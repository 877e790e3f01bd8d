"""Record cli_golden.json: what a fixed list of `groupoids` commands prints.

    python3 tests/record_cli_golden.py

Run it by hand, only on a commit whose command line output is trusted;
`test_cli_matches_golden` in test_cli.py then replays the list and
compares stdout bytes, stderr, the exit code and the file written by
`--output` of every command.

The commands run in one scratch directory, in order, with COLUMNS=80.
A command with a "save" name has its stdout written to that file, so
later commands can read the documents earlier ones built.  FILES are
documents written before the first command: a dict or list is written
as JSON, a string as it stands.  They hold the cases no command can
build: documents that break the schema in each way the loaders report,
and documents that reference a groupoid by path.

Help and argparse usage errors (the commands that raise SystemExit) are
formatted by argparse, whose layout changes between Python versions; the
golden file records the interpreter's version, and those entries are
compared only under the same version.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")


def _with(doc, drop=(), **changes):
    """A copy of doc with the given keys dropped and values replaced."""
    out = {k: v for k, v in doc.items() if k not in drop}
    out.update(changes)
    return out


Z2 = {
    "kind": "groupoid", "name": "Z2", "elements": ["0", "1"], "units": ["0"],
    "inverse": {"0": "0", "1": "1"},
    "compose": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}
IDENT = {
    "kind": "morphism", "name": "i", "source": Z2, "target": Z2,
    "graph": [["0", "0"], ["1", "1"]],
}
SWAP = {
    "kind": "action", "name": "swap", "groupoid": Z2, "carrier": ["p", "q"],
    "graph": [["p", "0", "p"], ["p", "1", "q"], ["q", "0", "q"], ["q", "1", "p"]],
}
# documents that break the schema, each in one way a loader reports
SCHEMA = {
    "g-name": _with(Z2, name=5),
    "g-no-elements": _with(Z2, drop=("elements",)),
    "g-no-units": _with(Z2, drop=("units",)),
    "g-no-inverse": _with(Z2, drop=("inverse",)),
    "g-no-compose": _with(Z2, drop=("compose",)),
    "g-elements-type": _with(Z2, elements="01"),
    "g-units-type": _with(Z2, units={"0": "0"}),
    "g-inverse-type": _with(Z2, inverse=[["0", "0"]]),
    "g-compose-type": _with(Z2, compose="rows"),
    "g-element-int": _with(Z2, elements=["0", 1]),
    "g-element-dup": _with(Z2, elements=["0", "1", "0"]),
    "g-unit-unknown": _with(Z2, units=["2"]),
    "g-unit-int": _with(Z2, units=[0]),
    "g-inverse-key": _with(Z2, inverse={"0": "0", "1": "1", "2": "1"}),
    "g-inverse-value-int": _with(Z2, inverse={"0": "0", "1": 1}),
    "g-inverse-value": _with(Z2, inverse={"0": "0", "1": "7"}),
    "g-row-short": _with(Z2, compose=Z2["compose"][:3] + [["1", "1"]]),
    "g-row-not-list": _with(Z2, compose=Z2["compose"][:3] + ["1,1,0"]),
    "g-row-unknown": _with(Z2, compose=Z2["compose"][:3] + [["1", "1", "2"]]),
    "g-row-null": _with(Z2, compose=Z2["compose"][:3] + [["1", None, "0"]]),
    "m-no-source": _with(IDENT, drop=("source",)),
    "m-no-target": _with(IDENT, drop=("target",)),
    "m-no-graph": _with(IDENT, drop=("graph",)),
    "m-source-type": _with(IDENT, source=7),
    "m-graph-type": _with(IDENT, graph={"0": "0"}),
    "m-source-bad": _with(IDENT, source=_with(Z2, units=["9"])),
    "m-source-kind": _with(IDENT, source="ident.json"),
    "m-row-long": _with(IDENT, graph=[["0", "0", "0"]]),
    "m-output-unknown": _with(IDENT, graph=[["0", "0"], ["2", "1"]]),
    "m-input-unknown": _with(IDENT, graph=[["0", "0"], ["1", "3"]]),
    "m-input-int": _with(IDENT, graph=[["0", 0]]),
    "a-no-groupoid": _with(SWAP, drop=("groupoid",)),
    "a-no-carrier": _with(SWAP, drop=("carrier",)),
    "a-no-graph": _with(SWAP, drop=("graph",)),
    "a-groupoid-type": _with(SWAP, groupoid=["Z2"]),
    "a-carrier-type": _with(SWAP, carrier="pq"),
    "a-carrier-int": _with(SWAP, carrier=["p", 1]),
    "a-carrier-dup": _with(SWAP, carrier=["p", "q", "p"]),
    "a-row-short": _with(SWAP, graph=[["p", "0"]]),
    "a-output-unknown": _with(SWAP, graph=[["r", "0", "p"]]),
    "a-input-unknown": _with(SWAP, graph=[["p", "0", "r"]]),
    "a-element-unknown": _with(SWAP, graph=[["p", "2", "p"]]),
    "a-element-list": _with(SWAP, graph=[["p", ["0"], "p"]]),
    "a-groupoid-kind": _with(SWAP, groupoid="swap.json"),
}
FILES = {
    "ident.json": IDENT,
    "swap.json": SWAP,
    "triv.json": _with(IDENT, name="t", graph=[["0", "0"], ["0", "1"]]),
    "incl.json": {
        "kind": "morphism", "name": "incl", "source": "pt.json",
        "target": "z2.json", "graph": [["0", "0"]],
    },
    "ref_ok.json": _with(IDENT, name="r", source="z2.json", target="z2.json"),
    "ref_action.json": {
        "kind": "morphism", "name": "r", "source": "coset.json",
        "target": "z2.json", "graph": [],
    },
    "bad_ident.json": _with(IDENT, graph=[["0", "0"], ["0", "1"], ["1", "1"]]),
    "bad_swap.json": _with(SWAP, graph=SWAP["graph"][1:]),
    "bad_z2.json": _with(Z2, inverse={"0": "0", "1": "0"}),
    "ref_action_ok.json": _with(SWAP, name="s", groupoid="z2.json"),
    "no_name.json": _with(IDENT, drop=("name",)),
    "int_name.json": _with(SWAP, name=3),
    **{f"{key}.json": doc for key, doc in SCHEMA.items()},
    "parse.json": '{\n  "kind": "groupoid",\n  !\n}\n',
    "truncated.json": '{"kind": "groupoid", "name": "B",\n  "elements": [\n',
    "array.json": "[1, 2]\n",
    "monoid.json": '{"kind": "monoid", "name": "M"}\n',
    "kindless.json": '{"name": "M"}\n',
}


def _commands():
    """(argv, file that receives stdout or None), in run order."""
    out = []

    def c(line, save=None):
        out.append((line.split(), save))

    # build: every family, its failures and argparse usage errors
    c("build pair 1 2 3 --name P3", "p3.json")
    c("build pair 1 2 3 4 --name P4", "p4.json")
    c("build pair x y", "p2.json")
    c("build set p q", "s2.json")
    c("build group cyclic:2", "z2.json")
    c("build group cyclic:4", "z4.json")
    c("build group symmetric:3", "s3.json")
    c("build group klein --name V4", "v4.json")
    c("build group trivial", "pt.json")
    c("build bundle cyclic:2 trivial --name BD", "bd.json")
    c("build equiv --block 1,2 --block 3", "eq.json")
    c("build product-form x y --group cyclic:2 --name PF", "pf.json")
    c("build transformation p q --group cyclic:2 --move 0 p p --move 0 q q"
      " --move 1 p q --move 1 q p --name TR", "tr.json")
    c("build pair a b --output o-pair.json")
    c("build set a --name One --output o-set.json")
    c("build group cyclic:3 --output o-group.json")
    c("build bundle klein cyclic:2 --output o-bundle.json")
    c("build equiv --block a,b --name E --output o-equiv.json")
    c("build product-form x --group trivial --output o-pf.json")
    c("build transformation p --group trivial --move 0 p p --output o-tr.json")
    c("build pair a a")
    c("build pair a a,a")
    c("build set a a")
    c("build group cyclic:x")
    c("build group quaternion")
    c("build bundle cyclic:2 nosuch")
    c("build bundle symmetric:3 symmetric:")
    c("build equiv --block 1,2 --block 2")
    c("build product-form x x --group cyclic:2")
    c("build product-form x --group bad")
    c("build transformation p q --group cyclic:2 --move 1 p p")
    c("build transformation p q --group cyclic:2 --move 0 p p --move 0 q q"
      " --move 1 p q --move 1 q q")
    c("build")
    c("build pair")
    c("build group")
    c("build group cyclic:2 extra")
    c("build equiv")
    c("build product-form x")
    c("build transformation p --group cyclic:2 --move 1 p")
    # validate and info on every kind, valid and invalid
    for doc in ("p3", "p4", "s2", "z4", "s3", "v4", "bd", "eq", "pf", "tr"):
        c(f"validate {doc}.json")
    for doc in ("p3", "p4", "bd", "eq", "tr", "ident", "triv", "incl", "swap"):
        c(f"info {doc}.json")
    for doc in ("ident", "triv", "incl", "ref_ok", "swap",
                "ref_action_ok", "no_name", "int_name", "bad_ident",
                "bad_swap", "bad_z2"):
        c(f"validate {doc}.json")
    c("info no_name.json")
    c("info int_name.json")
    c("info bad_z2.json")
    c("info bad_ident.json")
    c("info bad_swap.json")
    # every DocumentError the loaders raise
    for doc in ("parse", "truncated", "array", "monoid", "kindless", *SCHEMA):
        c(f"validate {doc}.json")
    c("info m-no-graph.json")
    c("info a-carrier-dup.json")
    c("validate missing.json")
    c("validate .")
    c("info missing.json")
    # restrict, union, product, decompose
    c("restrict p3.json 1,1 2,2")
    c("restrict p3.json 1,1 2,2 --output o-restrict.json")
    c("restrict p3.json 1,2")
    c("restrict p3.json 9,9")
    c("restrict missing.json 1,1")
    c("restrict ident.json 0")
    c("restrict p3.json")
    c("union z2.json s2.json")
    c("union z2.json p2.json --output o-union.json")
    c("union z2.json bad_z2.json")
    c("union z2.json ghost.json")
    c("union z2.json ident.json")
    c("union z2.json")
    c("product z2.json s2.json")
    c("product z2.json p2.json --output o-product.json")
    c("product bad_z2.json z2.json")
    c("product z2.json ghost.json")
    for doc in ("p3", "p4", "pf", "bd", "eq", "tr"):
        c(f"decompose {doc}.json")
    c("decompose bad_z2.json")
    c("decompose ident.json")
    # morphism
    c("bisections ad p3.json 1,2 2,3 3,1", "ad.json")
    c("action coset z4.json 0 2", "coset.json")
    c("action to-morphism coset.json", "pairs.json")
    c("validate coset.json")
    c("info coset.json")
    c("info pairs.json")
    c("morphism compose ident.json triv.json")
    c("morphism compose ident.json ident.json --output o-compose.json")
    c("morphism compose ident.json ad.json")
    c("morphism compose ident.json swap.json")
    c("morphism compose ident.json")
    for doc in ("ident", "ad", "ref_ok", "ref_action", "bad_ident", "swap"):
        c(f"morphism validate {doc}.json")
    c("morphism validate missing.json")
    for doc in ("ident", "triv", "pairs", "bad_ident"):
        c(f"morphism kernel {doc}.json")
    for doc in ("ident", "triv", "incl", "bad_ident"):
        c(f"morphism mono {doc}.json")
    for doc in ("ident", "triv", "incl", "pairs", "bad_ident"):
        c(f"morphism surjective {doc}.json")
    for doc in ("ident", "triv", "incl", "pairs", "bad_ident"):
        c(f"morphism epi-witness {doc}.json")
    for doc in ("ident", "triv", "incl", "ad", "bad_ident"):
        c(f"morphism classify-into-group {doc}.json")
    for doc in ("ad", "pairs", "triv", "incl", "p3", "bad_ident"):
        c(f"morphism factor {doc}.json")
    c("morphism factor triv.json --output o-factor.json")
    c("morphism")
    c("morphism kernel")
    # bisections
    for doc in ("p3", "p4", "pf", "z2", "coset", "bad_z2"):
        c(f"bisections list {doc}.json")
    for doc in ("p3", "p4", "pf", "bd", "bad_z2"):
        c(f"bisections group {doc}.json")
    c("bisections ad p3.json 1,2")
    c("bisections ad z2.json 1")
    c("bisections ad z2.json 1 --output o-ad.json")
    c("bisections ad z2.json 7")
    c("bisections ad ident.json 1")
    c("bisections")
    c("bisections ad p3.json")
    # action
    for doc in ("swap", "coset", "ref_action_ok", "bad_swap", "z2"):
        c(f"action validate {doc}.json")
    c("action to-morphism swap.json")
    c("action to-morphism swap.json --output o-to-morphism.json")
    c("action to-morphism bad_swap.json")
    c("action from-morphism pairs.json --carrier [0] [1]")
    c("action from-morphism pairs.json --carrier [0] [1] --output o-from.json")
    c("action from-morphism pairs.json --carrier x y")
    c("action from-morphism pairs.json --carrier x x")
    c("action from-morphism swap.json --carrier x")
    c("action from-morphism pairs.json")
    c("action groupoid swap.json")
    c("action groupoid z2.json")
    c("action groupoid coset.json --output o-action-groupoid.json")
    c("action groupoid bad_swap.json")
    c("action coset z4.json 0 1")
    c("action coset pf.json x|0|x y|0|y --output o-coset.json")
    c("action coset z4.json 0 9")
    c("action coset z4.json")
    c("action quotient z4.json 0 2")
    c("action quotient s3.json 123 231 312")
    c("action quotient s3.json 123 213")
    c("action quotient z4.json 0 9")
    c("action quotient z4.json 0 2 --output o-quotient.json")
    c("action induce z2.json swap.json --members 0 1")
    c("action induce z2.json swap.json --members 0 1 --output o-induce.json")
    c("action induce z2.json swap.json --members 0")
    c("action induce z2.json ident.json --members 0 1")
    c("action induce z2.json swap.json")
    c("action coset pf.json x|0|x y|0|y", "pf-left.json")
    c("action classify pf-left.json --points x y --group cyclic:2")
    c("action classify pf-left.json --points x y --group cyclic:2 --basepoint [y|1|x]")
    c("action classify pf-left.json --points x y --group cyclic:2 --basepoint nowhere")
    c("action classify pf-left.json --points x y z --group cyclic:2")
    c("action classify pf-left.json --points x x --group cyclic:2")
    c("action classify pf-left.json --points x y --group cyclic:q")
    c("action classify pf-left.json --points x y")
    c("action homogeneous coset.json --fix 0 [0]")
    c("action homogeneous swap.json --fix 0 p")
    c("action homogeneous coset.json --fix 1 [0]")
    c("action homogeneous coset.json --fix 0 nowhere")
    c("action homogeneous coset.json --fix 0")
    c("action")
    # enum
    c("enum morphisms z2.json z4.json")
    c("enum morphisms p3.json z2.json")
    c("enum morphisms bd.json z2.json")
    c("enum morphisms pairs.json z2.json")
    c("enum morphisms z2.json z2.json --naive")
    c("enum morphisms p3.json p3.json --naive")
    c("enum morphisms z2.json s2.json --naive --max-pairs 2")
    c("enum morphisms z2.json z2.json --naive --max-candidates 1")
    c("enum morphisms z2.json z2.json --naive --max-candidates 1 --override")
    c("enum morphisms z2.json bad_z2.json")
    c("enum morphisms z2.json missing.json")
    c("enum morphisms p3.json")
    c("enum morphisms z2.json z2.json --max-pairs x")
    c("enum actions z2.json --carrier x y")
    c("enum actions z2.json --carrier x y --direct")
    c("enum actions s2.json --carrier x")
    c("enum actions z2.json --carrier x x")
    c("enum actions missing.json --carrier x")
    c("enum actions z2.json")
    for doc in ("p3", "pf", "s2", "missing"):
        c(f"enum bisections {doc}.json")
    c("enum")
    # top-level usage errors and help
    c("")
    c("nosuch")
    c("validate")
    c("validate p3.json p4.json")
    c("--version")
    c("--help")
    for group in ("build", "morphism", "bisections", "action", "enum"):
        c(f"{group} --help")
    for leaf in ("build pair", "build group", "build bundle", "build equiv",
                 "build product-form", "build transformation", "validate",
                 "restrict", "union", "decompose", "morphism compose",
                 "morphism factor", "morphism kernel", "bisections ad",
                 "action from-morphism", "action coset", "action induce",
                 "action classify", "action homogeneous", "enum morphisms",
                 "enum actions"):
        c(f"{leaf} --help")
    c("build set -h")
    return out


COMMANDS = _commands()


def run_one(argv):
    """(exit code, stdout, stderr, whether argparse exited) of one command
    run in this process."""
    from groupoids import cli

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code, usage = stop.code, True
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue(), usage


def output_path(argv):
    return argv[argv.index("--output") + 1] if "--output" in argv else None


def write_files(files):
    """Write the golden file's documents into the current directory."""
    for name, payload in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)


def replay(files, commands):
    """Run the commands in the current directory; yields one result dict
    per command, in the golden file's format."""
    write_files(files)
    for argv, save in commands:
        target = output_path(argv)
        if target and os.path.exists(target):
            os.remove(target)
        code, out, err, usage = run_one(argv)
        if save:
            with open(save, "w", encoding="utf-8") as fh:
                fh.write(out)
        written = None
        if target and os.path.isfile(target):
            with open(target, encoding="utf-8") as fh:
                written = fh.read()
        yield {
            "argv": argv, "save": save, "exit": code, "stdout": out,
            "stderr": err, "output": written, "usage": usage,
        }


def python_version():
    return "%d.%d" % sys.version_info[:2]


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.environ["COLUMNS"] = "80"
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            results = list(replay(FILES, COMMANDS))
        finally:
            os.chdir(start)
    golden = {"python": python_version(), "files": FILES, "commands": results}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(results)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
