"""Document round trips and exit codes for the command line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st
from record_cli_golden import (
    GOLDEN,
    output_path,
    python_version,
    replay,
    run_one,
    write_files,
)

from groupoids import cli
from groupoids.action import classical_to_relational
from groupoids.builders import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    set_groupoid,
)
from groupoids.morphism import identity_morphism, left_regular
from groupoids.relation import Universe

ROOT = Path(__file__).resolve().parent.parent


def src_env():
    """The environment of a child Python that imports groupoids from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def groupoid_doc(tmp_path, g, name="g.json"):
    return write(tmp_path, name, cli.serialize(cli.payload_of_groupoid(g)))


@pytest.fixture()
def z2_path(tmp_path):
    return groupoid_doc(tmp_path, group_groupoid(cyclic_table(2)))


def test_groupoid_documents_round_trip_bytes(catalog, tmp_path):
    for key, g in catalog.items():
        text = cli.serialize(cli.payload_of_groupoid(g))
        loaded = cli.groupoid_from_payload(json.loads(text), text)
        again = cli.serialize(cli.payload_of_groupoid(loaded))
        assert again == text, key


def test_morphism_document_round_trip(tmp_path):
    h = left_regular(group_groupoid(cyclic_table(2)))
    text = cli.serialize(cli.payload_of_morphism(h, "l"))
    payload = json.loads(text)
    loaded, name = cli.morphism_from_payload(payload, text, str(tmp_path))
    assert cli.serialize(cli.payload_of_morphism(loaded, name)) == text


def test_action_document_round_trip(tmp_path):
    z2 = group_groupoid(cyclic_table(2))
    pq = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    action = classical_to_relational(z2, pq, {x: "0" for x in pq}, swap)
    text = cli.serialize(cli.payload_of_action(action, "swap"))
    payload = json.loads(text)
    loaded, name = cli.action_from_payload(payload, text, str(tmp_path))
    assert cli.serialize(cli.payload_of_action(loaded, name)) == text


def test_build_exit_codes(capsys, tmp_path):
    out_path = str(tmp_path / "z2.json")
    code, out, _ = run(capsys, ["build", "group", "cyclic:2", "--output", out_path])
    assert code == 0 and out == ""
    code, _, err = run(capsys, ["build", "equiv", "--block", "1,2", "--block", "2"])
    assert code == 1
    code, _, err = run(capsys, ["build", "group", "nosuch:3"])
    assert code == 2 and "nosuch" in err


def test_build_output_is_canonical(capsys, tmp_path):
    out_path = str(tmp_path / "z2.json")
    run(capsys, ["build", "group", "cyclic:2", "--output", out_path])
    text = open(out_path, encoding="utf-8").read()
    expected = cli.serialize(cli.payload_of_groupoid(group_groupoid(cyclic_table(2))))
    assert text == expected


def test_validate_exit_codes(capsys, tmp_path, z2_path):
    code, out, _ = run(capsys, ["validate", z2_path])
    assert code == 0
    assert out == "valid: 2 elements, 1 unit, 1 orbit\n"

    payload = json.loads(open(z2_path, encoding="utf-8").read())
    payload["compose"] = payload["compose"][1:]
    broken = write(tmp_path, "broken.json", cli.serialize(payload))
    code, out, _ = run(capsys, ["validate", broken])
    assert code == 1 and out.startswith("invalid:")

    mangled = write(tmp_path, "mangled.json", "{\n  \"kind\": \"groupoid\",\n")
    code, _, err = run(capsys, ["validate", mangled])
    assert code == 2 and "parse error" in err


def test_parse_errors_carry_line_numbers(capsys, tmp_path):
    bad_json = write(tmp_path, "bad.json", '{\n  "kind": "groupoid",\n  !\n}\n')
    code, _, err = run(capsys, ["validate", bad_json])
    assert code == 2 and "line 3" in err

    payload = cli.payload_of_groupoid(group_groupoid(cyclic_table(2)))
    payload["units"] = ["7"]
    text = cli.serialize(payload)
    doc = write(tmp_path, "badunit.json", text)
    code, _, err = run(capsys, ["validate", doc])
    line = next(
        i for i, l in enumerate(text.splitlines(), 1) if l.endswith('"7"')
    )
    assert code == 2 and f"line {line}" in err


def test_info_exit_codes(capsys, tmp_path, z2_path):
    code, out, _ = run(capsys, ["info", z2_path])
    assert code == 0
    assert "elements: 2" in out and "transitive: yes" in out

    payload = json.loads(open(z2_path, encoding="utf-8").read())
    payload["inverse"]["1"] = "0"
    broken = write(tmp_path, "badinv.json", cli.serialize(payload))
    code, _, err = run(capsys, ["info", broken])
    assert code == 1

    code, _, err = run(capsys, ["info", str(tmp_path / "missing.json")])
    assert code == 2


def test_restrict_exit_codes(capsys, tmp_path, catalog):
    p3 = groupoid_doc(tmp_path, catalog["P3"])
    code, out, _ = run(capsys, ["restrict", p3, "1,1", "2,2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 4

    code, _, _ = run(capsys, ["restrict", p3, "1,2"])
    assert code == 1
    code, _, _ = run(capsys, ["restrict", str(tmp_path / "none.json"), "1,1"])
    assert code == 2


def test_union_and_product_exit_codes(capsys, tmp_path, z2_path):
    code, out, _ = run(capsys, ["union", z2_path, z2_path])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 4

    code, out, _ = run(capsys, ["product", z2_path, z2_path])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 4

    payload = cli.payload_of_groupoid(group_groupoid(cyclic_table(2)))
    payload["inverse"]["1"] = "0"
    broken = write(tmp_path, "badinv.json", cli.serialize(payload))
    assert run(capsys, ["union", z2_path, broken])[0] == 1
    assert run(capsys, ["product", broken, z2_path])[0] == 1
    assert run(capsys, ["union", z2_path, str(tmp_path / "ghost.json")])[0] == 2
    assert run(capsys, ["product", z2_path, str(tmp_path / "ghost.json")])[0] == 2


def test_decompose_exit_codes(capsys, tmp_path, catalog):
    tr = groupoid_doc(tmp_path, catalog["TR"])
    code, out, _ = run(capsys, ["decompose", tr])
    assert code == 0 and "components: 1" in out

    payload = cli.payload_of_groupoid(catalog["Z2"])
    payload["compose"] = payload["compose"][1:]
    broken = write(tmp_path, "broken.json", cli.serialize(payload))
    assert run(capsys, ["decompose", broken])[0] == 1

    morphism_doc = write(
        tmp_path,
        "m.json",
        cli.serialize(
            cli.payload_of_morphism(
                left_regular(group_groupoid(cyclic_table(2))), "l"
            )
        ),
    )
    assert run(capsys, ["decompose", morphism_doc])[0] == 2


def test_morphism_exit_codes(capsys, tmp_path, z2_path):
    z2 = group_groupoid(cyclic_table(2))
    lr = write(
        tmp_path,
        "lr.json",
        cli.serialize(cli.payload_of_morphism(left_regular(z2), "l")),
    )
    trivial = write(
        tmp_path,
        "tr.json",
        cli.serialize(
            {
                "kind": "morphism",
                "name": "t",
                "source": "g.json",
                "target": "g.json",
                "graph": [["0", "0"], ["0", "1"]],
            }
        ),
    )

    assert run(capsys, ["morphism", "validate", lr])[0] == 0
    code, out, _ = run(capsys, ["morphism", "mono", lr])
    assert code == 0 and out.startswith("mono")
    code, out, _ = run(capsys, ["morphism", "mono", trivial])
    assert code == 1 and out.startswith("not mono: kernel 0 1")
    code, out, _ = run(capsys, ["morphism", "kernel", trivial])
    assert code == 0 and out == "0\n1\n"
    assert run(capsys, ["morphism", "surjective", trivial])[0] == 1
    assert run(capsys, ["morphism", "compose", trivial, lr])[0] == 1

    code, out, _ = run(capsys, ["morphism", "classify-into-group", trivial])
    assert code == 0 and "base unit: 0" in out

    bad = write(
        tmp_path,
        "badrow.json",
        cli.serialize(
            {
                "kind": "morphism",
                "name": "b",
                "source": "g.json",
                "target": "g.json",
                "graph": [["0"]],
            }
        ),
    )
    assert run(capsys, ["morphism", "validate", bad])[0] == 2


def test_morphism_compose_across_documents(capsys, tmp_path, z2_path):
    z2 = group_groupoid(cyclic_table(2))
    lr = write(
        tmp_path,
        "lr.json",
        cli.serialize(cli.payload_of_morphism(left_regular(z2), "l")),
    )
    ident = write(
        tmp_path,
        "id.json",
        cli.serialize(
            {
                "kind": "morphism",
                "name": "i",
                "source": "g.json",
                "target": "g.json",
                "graph": [["0", "0"], ["1", "1"]],
            }
        ),
    )
    code, out, _ = run(capsys, ["morphism", "compose", lr, ident])
    assert code == 0
    composite = json.loads(out)
    assert composite["graph"] == sorted(
        [d, g] for d, g in left_regular(z2).graph
    )


def test_bisections_exit_codes(capsys, tmp_path, catalog):
    p3 = groupoid_doc(tmp_path, catalog["P3"])
    code, out, _ = run(capsys, ["bisections", "list", p3])
    assert code == 0 and out.startswith("6 bisections\n")
    code, out, _ = run(capsys, ["bisections", "group", p3])
    assert code == 0 and out.startswith("order 6\n")
    assert run(capsys, ["bisections", "ad", p3, "1,2"])[0] == 1
    assert run(capsys, ["bisections", "list", str(tmp_path / "nope.json")])[0] == 2


def test_bisections_ad_document(capsys, tmp_path, z2_path):
    code, out, _ = run(capsys, ["bisections", "ad", z2_path, "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"] == [["0", "0"], ["1", "1"]]


def test_action_exit_codes(capsys, tmp_path, catalog):
    z2 = catalog["Z2"]
    pq = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    action = classical_to_relational(z2, pq, {x: "0" for x in pq}, swap)
    act_doc = write(
        tmp_path, "swap.json", cli.serialize(cli.payload_of_action(action, "swap"))
    )
    code, out, _ = run(capsys, ["action", "validate", act_doc])
    assert code == 0 and out == "valid: action, 4 triples\n"

    payload = json.loads(open(act_doc, encoding="utf-8").read())
    payload["graph"] = payload["graph"][1:]
    broken = write(tmp_path, "badact.json", cli.serialize(payload))
    assert run(capsys, ["action", "validate", broken])[0] == 1

    payload = json.loads(open(act_doc, encoding="utf-8").read())
    payload["graph"][0] = ["p", "0"]
    shallow = write(tmp_path, "shortrow.json", cli.serialize(payload))
    assert run(capsys, ["action", "validate", shallow])[0] == 2


def test_action_quotient_names_one_offender_in_every_process(tmp_path, catalog):
    # the members form a set; the offender named must not follow its
    # hash order, which changes with PYTHONHASHSEED
    p3 = catalog["P3"]
    doc = groupoid_doc(tmp_path, p3, "p3.json")
    for hash_seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "groupoids.cli", "action", "quotient", doc,
             *p3.elements],
            capture_output=True, text=True,
            env={**src_env(), "PYTHONHASHSEED": hash_seed},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: '1,2' is outside the isotropy bundle\n"


def test_action_document_pipeline(capsys, tmp_path, catalog):
    z4 = groupoid_doc(tmp_path, catalog["Z4"], "z4.json")
    code, out, _ = run(capsys, ["action", "quotient", z4, "0", "2"])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 2
    assert run(capsys, ["action", "quotient", z4, "0", "1"])[0] == 1

    code, out, _ = run(capsys, ["action", "coset", z4, "0", "2"])
    assert code == 0
    assert len(json.loads(out)["carrier"]) == 2

    swap_doc = write(
        tmp_path,
        "m.json",
        cli.serialize(
            cli.payload_of_morphism(
                left_regular(group_groupoid(cyclic_table(2))), "l"
            )
        ),
    )
    code, out, _ = run(
        capsys, ["action", "from-morphism", swap_doc, "--carrier", "0", "1"]
    )
    assert code == 0
    roundtrip = json.loads(out)
    code, out, _ = run(
        capsys,
        [
            "action",
            "to-morphism",
            write(tmp_path, "back.json", cli.serialize(roundtrip)),
        ],
    )
    assert code == 0
    assert json.loads(out)["graph"] == sorted(
        [d, g] for d, g in left_regular(group_groupoid(cyclic_table(2))).graph
    )


def test_enum_exit_codes(capsys, tmp_path, z2_path, catalog):
    code, out, _ = run(capsys, ["enum", "morphisms", z2_path, z2_path])
    assert code == 0 and out.startswith("2 morphisms\n")
    code, out, _ = run(
        capsys, ["enum", "morphisms", z2_path, z2_path, "--naive"]
    )
    assert code == 0 and out.startswith("2 morphisms\n")

    p3 = groupoid_doc(tmp_path, catalog["P3"], "p3.json")
    code, _, err = run(capsys, ["enum", "morphisms", p3, p3, "--naive"])
    assert code == 1 and "cap" in err

    assert run(capsys, ["enum", "morphisms", z2_path, str(tmp_path / "x.json")])[0] == 2

    code, out, _ = run(
        capsys, ["enum", "actions", z2_path, "--carrier", "x", "y"]
    )
    assert code == 0 and out.startswith("2 actions\n")
    code, out, _ = run(
        capsys, ["enum", "actions", z2_path, "--carrier", "x", "y", "--direct"]
    )
    assert code == 0 and out.startswith("2 actions\n")

    code, out, _ = run(capsys, ["enum", "bisections", z2_path])
    assert code == 0 and out.startswith("2 bisections\n")


def test_enum_actions_direct_on_four_points(capsys, tmp_path):
    s3 = str(tmp_path / "s3.json")
    assert run(capsys, ["build", "group", "symmetric:3", "--output", s3])[0] == 0
    argv = ["enum", "actions", s3, "--carrier", "a", "b", "c", "d"]
    code, via_pairs, err = run(capsys, argv)
    assert (code, err) == (0, "")
    code, direct, err = run(capsys, [*argv, "--direct"])
    assert (code, err) == (0, "")
    head, *rows = direct.splitlines()
    assert head == "34 actions" and len(rows) == 34
    assert sorted(direct.splitlines()) == sorted(via_pairs.splitlines())


def test_enum_finds_the_empty_morphism_into_the_empty_groupoid(capsys, tmp_path):
    p1 = groupoid_doc(tmp_path, pair_groupoid(Universe("X1", ("1",))), "p1.json")
    e = groupoid_doc(tmp_path, set_groupoid(Universe("none", ())), "e.json")
    for extra in ([], ["--naive"]):
        code, out, _ = run(capsys, ["enum", "morphisms", p1, e, *extra])
        assert code == 0 and out.startswith("1 morphism\n"), extra


def _list_element_documents(tmp_path):
    """Documents with a JSON list where an element name belongs."""
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")), "L")
    groupoid = cli.payload_of_groupoid(p3)
    groupoid["compose"][0] = [["1,1"]] + groupoid["compose"][0][1:]
    z2 = group_groupoid(cyclic_table(2))
    morphism = cli.payload_of_morphism(left_regular(z2), "l")
    morphism["graph"][0] = [["0,0"], "0"]
    carrier = {
        "kind": "action",
        "name": "a",
        "groupoid": cli.payload_of_groupoid(z2),
        "carrier": [["p"], "q"],
        "graph": [],
    }
    action = dict(carrier, carrier=["p", "q"], graph=[[["p"], "0", "p"]])
    docs = {
        "groupoid": groupoid,
        "morphism": morphism,
        "carrier": carrier,
        "action": action,
    }
    return {
        f"@{kind}": write(tmp_path, f"list-{kind}.json", cli.serialize(payload))
        for kind, payload in docs.items()
    }


def _valid_documents(tmp_path):
    """A groupoid, a morphism and an action document on Z2."""
    z2 = group_groupoid(cyclic_table(2))
    pq = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    action = classical_to_relational(z2, pq, {x: "0" for x in pq}, swap)
    docs = {
        "z2": cli.payload_of_groupoid(z2),
        "l": cli.payload_of_morphism(left_regular(z2), "l"),
        "swap": cli.payload_of_action(action, "swap"),
    }
    return {
        f"@{key}": write(tmp_path, f"{key}.json", cli.serialize(payload))
        for key, payload in docs.items()
    }


def _int_name_documents(tmp_path):
    """The valid morphism and action documents again, each with a number
    for its name."""
    valid, docs = _valid_documents(tmp_path), {}
    for key in ("@l", "@swap"):
        payload = json.loads(Path(valid[key]).read_text(encoding="utf-8"))
        payload["name"] = 3
        text = cli.serialize(payload)
        docs[f"{key}-int-name"] = write(tmp_path, f"{key[1:]}-int-name.json", text)
    return docs


def _unreadable_documents(tmp_path):
    """A document that is not UTF-8, one nested past the recursion limit,
    and an --output path in a directory that does not exist."""
    latin = tmp_path / "latin-1.json"
    latin.write_bytes('{"kind": "groupoid", "name": "\u00e9"}'.encode("latin-1"))
    deep = write(tmp_path, "deep.json", "[" * 100000)
    missing = str(tmp_path / "no-such-dir" / "x.json")
    return {"@latin-1": str(latin), "@deep": deep, "@missing-dir": missing}


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "pair", "a", "a"],
        ["build", "pair", "a", "a,a"],
        ["build", "set", "a", "a,a"],
        ["build", "product-form", "a", "a,a", "--group", "trivial"],
        ["build", "group", "cyclic:x"],
        ["build", "group", "cyclic:0"],
        ["build", "group", "symmetric:0"],
        ["build", "group", "symmetric:10"],
        ["enum", "morphisms", "@z2", "@z2", "--naive", "--max-pairs", "0"],
        ["enum", "morphisms", "@z2", "@z2", "--naive", "--max-candidates", "0"],
        ["validate", "@groupoid"],
        ["build", "bundle", "symmetric:3", "symmetric:"],
        ["validate", "@morphism"],
        ["validate", "@carrier"],
        ["validate", "@action"],
        ["validate", "@l-int-name"],
        ["info", "@swap-int-name"],
        ["enum", "actions", "@z2", "--carrier", "x", "x"],
        ["action", "classify", "@swap", "--points", "b", "b", "--group", "cyclic:2"],
        ["action", "from-morphism", "@l", "--carrier", "0", "0"],
        ["build", "group", "cyclic:2", "--output", "@missing-dir"],
        ["build", "group", "cyclic:2", "--output", "."],
        ["validate", "@latin-1"],
        ["info", "@deep"],
        ["build", "transformation", "a", "--group", "trivial",
         "--move", "0", "a", "zz", "--move", "0", "a", "a"],
    ],
    ids=[
        "duplicate-point",
        "ambiguous-pair-names",
        "ambiguous-set-pair-names",
        "ambiguous-product-form-pair-names",
        "group-order-not-int",
        "cyclic-order-0",
        "symmetric-order-0",
        "symmetric-order-10",
        "max-pairs-0",
        "max-candidates-0",
        "list-as-element",
        "bundle-order-not-int",
        "list-in-morphism-graph",
        "list-in-action-carrier",
        "list-in-action-graph",
        "morphism-name-not-a-string",
        "action-name-not-a-string",
        "duplicate-carrier-point",
        "duplicate-classify-point",
        "duplicate-from-morphism-point",
        "output-in-missing-directory",
        "output-is-a-directory",
        "document-not-utf-8",
        "document-nested-too-deeply",
        "move-with-two-images",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv):
    docs = {
        **_list_element_documents(tmp_path),
        **_valid_documents(tmp_path),
        **_int_name_documents(tmp_path),
        **_unreadable_documents(tmp_path),
    }
    argv = [docs.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    lines = err.splitlines()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_algorithm_recursion_is_not_a_nesting_error(tmp_path, monkeypatch):
    """A stack overflow in the algorithm, after the document has loaded,
    must not be reported as a document nested too deeply.  The bisection
    enumerator is a loop, so it is replaced here by one that recurses
    once per unit, as it once did: with more units than the recursion
    limit it overflows the stack."""
    from groupoids import bisection

    def recurse(groupoid, limit=None, depth=0):
        if depth == len(groupoid.units):
            return [frozenset(groupoid.units)]
        return recurse(groupoid, limit, depth + 1)

    monkeypatch.setattr(bisection, "_enum_member_sets", recurse)
    g = set_groupoid(Universe("S", tuple(str(i) for i in range(200))), "S")
    path = write(tmp_path, "set.json", cli.serialize(cli.payload_of_groupoid(g)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # room to load the document, not to recurse once per unit
    sys.setrecursionlimit(depth + 100)
    try:
        with pytest.raises(RecursionError):
            cli.main(["bisections", "list", path])
    finally:
        sys.setrecursionlimit(limit)


def _fuzz_documents():
    """Valid groupoid, morphism and action documents, all inline."""
    z2 = group_groupoid(cyclic_table(2))
    p2 = pair_groupoid(Universe("X2", ("x", "y")), "P2")
    pq = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    action = classical_to_relational(z2, pq, {x: "0" for x in pq}, swap)
    payloads = [
        cli.payload_of_groupoid(z2),
        cli.payload_of_groupoid(p2),
        cli.payload_of_morphism(left_regular(z2), "l"),
        cli.payload_of_morphism(identity_morphism(p2), "id"),
        cli.payload_of_action(action, "swap"),
    ]
    return [cli.serialize(payload) for payload in payloads]


FUZZ_DOCUMENTS = _fuzz_documents()
WRONG_VALUES = [7, None, True, "zz", "", [], ["0"], {"a": "b"}]
DEEP = "@@deep@@"


def _locations(value, path=()):
    """(path, value) of every value inside a JSON value, itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield path + (key,), inner
        if isinstance(inner, (dict, list)):
            yield from _locations(inner, path + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _canonical_round_trip(text):
    """serialize(payload_of_*(load(text))) for a valid document."""
    payload = json.loads(text)
    kind = payload["kind"]
    if kind == "groupoid":
        g = cli.groupoid_from_payload(payload, text)
        return cli.serialize(cli.payload_of_groupoid(g))
    if kind == "morphism":
        h, name = cli.morphism_from_payload(payload, text, ".")
        return cli.serialize(cli.payload_of_morphism(h, name))
    a, name = cli.action_from_payload(payload, text, ".")
    return cli.serialize(cli.payload_of_action(a, name))


@st.composite
def mutated_documents(draw):
    """(original text, mutated bytes): one document changed in one way."""
    text = draw(st.sampled_from(FUZZ_DOCUMENTS))
    payload = json.loads(text)
    places = list(_locations(payload))
    how = draw(st.sampled_from(["drop", "retype", "name", "arity", "bytes", "deep"]))
    if how == "bytes":
        data = text.encode("utf-8")
        at = draw(st.integers(0, len(data)))
        return text, data[:at] + b"\xff\xfe" + data[at:]
    if how == "drop":
        places = [(p, v) for p, v in places if isinstance(_at(payload, p[:-1]), dict)]
    elif how == "name":
        places = [(p, v) for p, v in places if isinstance(v, str)]
    elif how == "arity":
        places = [(p, v) for p, v in places if isinstance(v, list)]
    path, value = draw(st.sampled_from(places))
    parent = _at(payload, path[:-1])
    if how == "drop":
        del parent[path[-1]]
    elif how == "arity":
        if value and draw(st.booleans()):
            value.pop()
        else:
            value.append(draw(st.sampled_from(["0", "zz", 7])))
    elif how == "deep":
        parent[path[-1]] = DEEP
    elif how == "name":  # an unknown or non-string name, or another known one
        names = sorted({v for _, v in places if isinstance(v, str)})
        parent[path[-1]] = draw(st.sampled_from(WRONG_VALUES + names))
    else:
        parent[path[-1]] = draw(st.sampled_from(WRONG_VALUES))
    mutated = cli.serialize(payload)
    if how == "deep":
        limit = sys.getrecursionlimit()
        depth = draw(st.one_of(st.integers(limit - 150, limit + 50), st.just(10**5)))
        mutated = mutated.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    return text, mutated.encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


@seed(1311)
@settings(max_examples=300, deadline=None)
@given(case=mutated_documents())
def test_mutated_documents_keep_the_exit_contract(fuzz_dir, parser, case):
    original, mutated = case
    assert _canonical_round_trip(original) == original
    path = fuzz_dir / "doc.json"
    path.write_bytes(mutated)
    for command in ("validate", "info"):
        # one parser for every run; building it is most of a run's time
        with mock.patch.object(cli, "build_parser", lambda: parser):
            code, out, err, usage = run_one([command, str(path)])
        assert code in (0, 1, 2) and not usage
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
        if code == 0 or (command == "validate" and code == 1):
            # validate reports a broken law on stdout
            assert err == ""
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        if command == "validate" and code == 0:
            canonical = _canonical_round_trip(mutated.decode("utf-8"))
            assert _canonical_round_trip(canonical) == canonical


# commands that answer on stdout, and exit 1 for a broken law or a no
STDOUT_ANSWERS = {
    ("validate",), ("morphism", "mono"), ("morphism", "surjective"),
    ("morphism", "epi-witness"),
}
ARGV_DOCUMENTS = dict(zip(("z2", "p2", "l", "id", "swap"), FUZZ_DOCUMENTS))
PATHS = [f"{key}.json" for key in ARGV_DOCUMENTS] + ["missing.json"]
GROUP_TOKENS = ["trivial", "klein", "cyclic:2", "cyclic:3", "symmetric:2",
                "symmetric:", "cyclic:x", "cyclic:0", "dihedral:3"]
ELEMENT_NAMES = ["0", "1", "p", "q", "x", "y", "x,x", "x,y", "1,1", "[0]", "zz"]
NUMBERS = ["-3", "0", "1", "2", "7", "30"]
JUNK = ["", "-x", "--bogus", "{}"]
ANY_VALUE = st.sampled_from(PATHS + GROUP_TOKENS + ELEMENT_NAMES + NUMBERS + JUNK)
# the values an argument of COMMANDS takes, by its first flag; the rest
# take element names
VALUES = {
    **dict.fromkeys(
        ["path", "left", "right", "outer", "inner", "action", "source", "target"],
        st.sampled_from(PATHS),
    ),
    **dict.fromkeys(["group", "groups", "--group"], st.sampled_from(GROUP_TOKENS)),
    **dict.fromkeys(["--max-pairs", "--max-candidates"], st.sampled_from(NUMBERS)),
}
FLAGS = sorted(
    {flags[0] for *_, args in cli.COMMANDS for flags, _ in args if flags[0][0] == "-"}
)


def _argument(draw, flag, options):
    """Tokens for one argument of a COMMANDS row: values of its kind, one
    in four replaced by any value.  An optional flag may be left out."""
    if flag[0] == "-" and not options.get("required") and draw(st.booleans()):
        return []
    if options.get("action") == "store_true":
        return [flag]
    if flag == "--output":
        return [flag, "out.json"]
    nargs = options.get("nargs", 1)
    low, high = (1, 3) if nargs == "+" else (nargs, nargs)
    kind = VALUES.get(flag, st.sampled_from(ELEMENT_NAMES))
    value = st.one_of(kind, kind, kind, ANY_VALUE)
    values = draw(st.lists(value, min_size=low, max_size=high))
    return [flag, *values] if flag[0] == "-" else values


@st.composite
def fuzzed_argv(draw):
    """(command words, argv): a row of COMMANDS with values drawn for its
    arguments, then up to four more tokens: documents of each kind, a
    missing path, flags alone, repeated or with an --output value, junk
    and numbers.  Or only the first of the row's words."""
    words, _, _, arguments = draw(st.sampled_from(cli.COMMANDS))
    if draw(st.integers(0, 7)) == 0:
        return words, list(words[:1])
    argv = list(words)
    for flags, options in arguments:
        argv += _argument(draw, flags[0], options)
    piece = st.one_of(
        ANY_VALUE.map(lambda v: [v]),
        st.sampled_from(FLAGS).map(lambda f: [f]),
        st.sampled_from(FLAGS).map(lambda f: [f, f]),
        st.just(["--output", "out.json"]),
    )
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3, 4]))):
        argv += draw(piece)
    return words, argv


def _reset_argv_documents(work):
    """Leave exactly the argv fuzz documents in work."""
    for name in os.listdir(work):
        os.remove(work / name)
    for key, text in ARGV_DOCUMENTS.items():
        write(work, f"{key}.json", text)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    _reset_argv_documents(work)
    return work


@seed(1311)
@settings(max_examples=300, deadline=None)
@given(case=fuzzed_argv())
def test_fuzzed_argv_keeps_the_exit_contract(argv_dir, parser, case):
    words, argv = case
    # an --output may name any drawn token, so run where the documents
    # are, and put them back as they were afterwards
    start = os.getcwd()
    os.chdir(argv_dir)
    try:
        with mock.patch.object(cli, "build_parser", lambda: parser):
            code, out, err, usage = run_one(argv)
    finally:
        os.chdir(start)
        _reset_argv_documents(argv_dir)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if usage:
        last = err.splitlines()[-1]
        assert code == 2 and out == ""
        assert last.startswith("groupoids") and ": error: " in last
        return
    if code == 2:
        assert out == ""
    if code == 0 or (code == 1 and words in STDOUT_ANSWERS and out):
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_stdin_documents(capsys, monkeypatch, z2_path):
    import io

    text = open(z2_path, encoding="utf-8").read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["validate", "-"])
    assert code == 0 and out.startswith("valid")


def test_cli_matches_golden(monkeypatch, tmp_path, parser):
    # the golden file is written by tests/record_cli_golden.py
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    same_python = golden["python"] == python_version()
    commands = [(c["argv"], c["save"]) for c in golden["commands"]]
    for got, want in zip(replay(golden["files"], commands), golden["commands"]):
        if want["usage"] and not same_python:
            continue  # argparse's layout differs between Python versions
        assert got == want, " ".join(want["argv"])


def test_help_and_usage_match_golden_on_a_fresh_parser(monkeypatch, tmp_path):
    """Every --help and usage entry on its own build_parser(), whose leaves
    have not been handed argv before."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["python"] != python_version():
        pytest.skip("argparse's layout differs between Python versions")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    wanted = [c for c in golden["commands"] if c["usage"]]
    commands = [(c["argv"], c["save"]) for c in wanted]
    for got, want in zip(replay(golden["files"], commands), wanted):
        assert got == want, " ".join(want["argv"])


COLD_HELP_AND_USAGE = ["build transformation --help", "enum morphisms p3.json"]


def test_cold_processes_match_golden(monkeypatch, tmp_path):
    """The first golden entry of each command, a leaf's --help and a usage
    error, each in a fresh `python -m groupoids.cli`.  In this process
    every module is loaded already, so only a fresh one shows a handler
    that misses an import."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    write_files(golden["files"])
    # the documents that earlier commands save or write with --output
    for c in golden["commands"]:
        if c["save"]:
            write(tmp_path, c["save"], c["stdout"])
        if c["output"] is not None:
            write(tmp_path, output_path(c["argv"]), c["output"])
    chosen = []
    for words, *_ in cli.COMMANDS:
        chosen.append(next(
            c for c in golden["commands"]
            if tuple(c["argv"][:len(words)]) == words and not c["usage"]
        ))
    if golden["python"] == python_version():
        help_and_usage = [
            c for c in golden["commands"] if " ".join(c["argv"]) in COLD_HELP_AND_USAGE
        ]
        assert len(help_and_usage) == len(COLD_HELP_AND_USAGE)
        chosen += help_and_usage
    env = {**src_env(), "COLUMNS": "80"}
    for want in chosen:
        argv = want["argv"]
        target = output_path(argv)
        if target and os.path.exists(target):
            os.remove(target)
        proc = subprocess.run(
            [sys.executable, "-m", "groupoids.cli", *argv],
            capture_output=True, stdin=subprocess.DEVNULL, env=env,
        )
        written = None
        if target and os.path.isfile(target):
            written = Path(target).read_text(encoding="utf-8")
        got = (proc.returncode, proc.stdout, proc.stderr, written)
        assert got == (
            want["exit"], want["stdout"].encode(), want["stderr"].encode(),
            want["output"],
        ), " ".join(argv)


# print the exit code of the command in argv, then the groupoids modules loaded
LOADED_MODULES = """
import contextlib, io, sys
from groupoids import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(code, *sorted(n for n in sys.modules if n.partition(".")[0] == "groupoids"))
"""
EVERY_COMMAND_LOADS = {"groupoids", "groupoids.cli", "groupoids.errors",
                       "groupoids.relation", "groupoids.groupoid"}


@pytest.mark.parametrize(
    "argv, code, more",
    [
        (["validate", "@p3"], 0, []),
        (["build", "pair", "1", "2"], 0, ["builders"]),
        (["enum", "morphisms", "@p3"], 2, []),
        (["bisections", "group", "@p3"], 0, ["builders", "morphism", "bisection"]),
        (["enum", "morphisms", "@p3", "@p3"], 0,
         ["builders", "morphism", "action", "search"]),
    ],
    ids=["validate", "build-pair", "parse-error", "bisections-group", "enum-morphisms"],
)
def test_a_command_loads_only_its_own_modules(tmp_path, argv, code, more):
    p3 = groupoid_doc(tmp_path, pair_groupoid(Universe("X", ("1", "2", "3")), "P3"))
    argv = [p3 if a == "@p3" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True, text=True, env=src_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    got_code, *loaded = proc.stdout.split()
    assert int(got_code) == code
    assert set(loaded) == EVERY_COMMAND_LOADS | {f"groupoids.{m}" for m in more}


@pytest.mark.parametrize(
    "module",
    ["action", "bisection", "builders", "cli", "errors", "groupoid", "morphism",
     "relation", "search"],
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the package no longer imports its modules in a fixed order, so a
    # cycle between two of them would show here
    proc = subprocess.run(
        [sys.executable, "-c", f"import groupoids.{module}"],
        capture_output=True, text=True, env=src_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# a bare import loads no submodule; a submodule, an export and the cli
# then resolve on first access
FRESH_IMPORT = """
import sys
import groupoids
print(sorted(n for n in sys.modules if n.startswith("groupoids")))
print(groupoids.search.enum_morphisms.__module__, groupoids.Groupoid.__module__)
print(groupoids.cli.main.__module__)
"""


def test_submodules_resolve_after_a_bare_import():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True,
        env=src_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "['groupoids']",
        "groupoids.search groupoids.groupoid",
        "groupoids.cli",
    ]


BROKEN_PIPE = b"error: cannot write to standard output: Broken pipe\n"


def _closed_after_first_line(argv):
    """(first line, exit code, stderr) of a child groupoids process whose
    reader closes its stdout after the first line, as `| head -1` does."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupoids.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(), stderr


def test_closed_stdout_exits_2_without_a_traceback(capsys, tmp_path):
    # The rows (2187 actions, about 260 kB) outgrow a pipe's buffer, so
    # the command is still printing when the pipe closes.
    doc = str(tmp_path / "s3.json")
    assert run(capsys, ["build", "set", "a", "b", "c", "--output", doc])[0] == 0
    argv = ["enum", "actions", doc, "--carrier", *"1234567", "--direct"]
    assert _closed_after_first_line(argv) == (b"2187 actions\n", 2, BROKEN_PIPE)


def test_closed_stdout_cut_inside_a_document_exits_2():
    # one document of about 1.5 MB, written by emit rather than row by row
    argv = ["build", "pair", *(f"p{i}" for i in range(30))]
    assert _closed_after_first_line(argv) == (b"{\n", 2, BROKEN_PIPE)


def check_console_script(launcher, tmp_path, env=None):
    """Build Z2 to a file, then validate it by path and on stdin."""

    def call(*argv, stdin=None):
        return subprocess.run(
            [*launcher, *argv], capture_output=True, text=True, input=stdin, env=env
        )

    out_path = tmp_path / "z2.json"
    proc = call("build", "group", "cyclic:2", "--output", str(out_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    valid = "valid: 2 elements, 1 unit, 1 orbit\n"
    proc = call("validate", str(out_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, valid, "")
    proc = call("validate", "-", stdin=out_path.read_text(encoding="utf-8"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, valid, "")


def test_console_script(tmp_path):
    # Run the declared entry point the way a generated console script does,
    # from the source tree, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["groupoids"]
    module, func = target.split(":")
    code = (
        f"import sys; sys.argv[0] = 'groupoids'; "
        f"from {module} import {func}; sys.exit({func}())"
    )
    check_console_script([sys.executable, "-c", code], tmp_path, src_env())


@pytest.mark.skipif(
    shutil.which("groupoids") is None, reason="groupoids console script not installed"
)
def test_installed_console_script(tmp_path):
    check_console_script(["groupoids"], tmp_path)
