"""The committed mutant table stays applicable: every snippet occurs
exactly once in its file, so a refactor of a guarded line must update
its row.  No mutant is run here; mutants/run.py runs them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_table():
    path = ROOT / "mutants" / "table.py"
    spec = importlib.util.spec_from_file_location("mutant_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_snippet_occurs_exactly_once():
    rows = load_table()
    assert len({row["id"] for row in rows}) == len(rows)
    for row in rows:
        text = (ROOT / row["file"]).read_text(encoding="utf-8")
        assert text.count(row["snippet"]) == 1, row["id"]
        assert row["replacement"] != row["snippet"], row["id"]
        assert row["status"] in ("killed", "equivalent"), row["id"]
        assert row["status"] == "killed" or row.get("argument"), row["id"]
        assert row["tests"], row["id"]
        for test in row["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (row["id"], test)
