"""Record oracle.json: the answer every benchmark operation must give.

    python3 perfbench/record_oracle.py

Run it only on a commit whose answers are trusted (it was recorded at the
seed commit); the benchmark then checks every later commit against it.
Beyond running each operation once, it checks that the raw tables the
build workload mutates equal the builders' tables, that every mutation is
rejected, that the naive and structured enumerators agree and that
enum_actions agrees with enum_actions_direct.  For the cli commands that
hit known defects it records the contract's answer (exit 2, nothing on
stdout, one error line), not the program's.
"""

import hashlib
import json
import os
import random
import shutil
import sys

from run import HERE, ORACLE, WORKLOADS, execute, import_package


def main():
    import_package()
    import workloads as W
    from groupoids.errors import AxiomViolation

    oracle = {"mutations": {}, "family_sizes": {}, "sweep": [], "results": {}}

    for label, build, raw_of in W.build_ladder():
        raw = raw_of()
        built = build(0)
        elems, units, inverse, table = raw
        probe = W.groupoid.Groupoid(label, elems, units, inverse, table)
        if not built.same_structure(probe):
            raise SystemExit(f"{label}: raw table differs from the builder's")
        oracle["mutations"][label] = W.make_mutations(raw, random.Random(label))

    cat = W.build_catalog()
    family = W.family_morphisms(cat)
    oracle["family_sizes"] = {f"{a}>{b}": len(hs) for (a, b), hs in family.items()}
    oracle["sweep"] = [
        [key, list(members)]
        for key in W.CATALOG_KEYS
        if len(cat[key].elements) <= 8
        for members in W.wide_subgroupoids(cat[key])
    ]

    workdir = os.path.join(HERE, ".work", "record")
    os.makedirs(workdir, exist_ok=True)
    for name in WORKLOADS:
        wl = W.make(name)
        if name == "cli":
            wl.setup(0, oracle, workdir)
        else:
            wl.setup(0, oracle)
        results = {}
        for op_id, fn, summarize in wl.all_ops():
            summary, _ = execute(fn, summarize)
            if "crash" in summary and name != "cli":
                raise SystemExit(f"{op_id}: {summary}")
            results[op_id] = {"result": summary, "reject": is_reject(name, summary)}
        if name == "cli":
            contract = {
                "exit": 2,
                "stdout": hashlib.sha256(b"").hexdigest()[:16],
                "stderr_ok": True,
            }
            for cid in wl.known_defects():
                results[cid] = {"result": contract, "reject": True}
        check(name, results)
        oracle["results"][name] = results
    shutil.rmtree(os.path.dirname(workdir))

    with open(ORACLE, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, results in oracle["results"].items():
        rejects = sum(r["reject"] for r in results.values())
        print(f"{name}: {len(results)} operations, {rejects} rejections")


def is_reject(workload, summary) -> bool:
    """An operation whose correct result is a refusal: a domain error, an
    empty search, or a nonzero exit."""
    if workload == "cli":
        return summary["exit"] != 0
    return "raised" in summary or summary.get("n") == 0


def check(name, results):
    """Cross-checks between independent answers."""
    if name == "build":
        for op_id, r in results.items():
            if op_id.startswith("reject:") and r["result"].get("raised") != "AxiomViolation":
                raise SystemExit(f"{op_id} was not rejected: {r['result']}")
    if name == "enumerate":
        for op_id, r in results.items():
            kind, _, pair = op_id.partition(":")
            if kind == "naive":
                if r["result"] != results[f"enum:{pair}"]["result"]:
                    raise SystemExit(f"naive and structured disagree on {pair}")
            if kind == "actions-direct":
                if r["result"] != results[f"actions:{pair}"]["result"]:
                    raise SystemExit(f"action enumerators disagree on {pair}")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main()
