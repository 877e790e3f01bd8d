"""Record cli_golden.json: what a fixed list of `groupoids` commands prints.

    python3 tests/record_cli_golden.py

Run it by hand, only on a commit whose command line output is trusted;
`test_cli_matches_golden` in test_cli.py then replays the list and
compares stdout bytes, stderr and the exit code of every command.

The commands run in one scratch directory, in order.  A command with a
"save" name has its stdout written to that file, so later commands can
read the documents earlier ones built.  FILES are documents written
before the first command, for the cases no command can build (a
groupoid referenced by path from a morphism document).
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")

FILES = {
    "ref_ok.json": {
        "kind": "morphism", "name": "r", "source": "z2.json",
        "target": "z2.json", "graph": [["0", "0"], ["1", "1"]],
    },
    "ref_action.json": {
        "kind": "morphism", "name": "r", "source": "coset.json",
        "target": "z2.json", "graph": [],
    },
}

# (argv, file that receives stdout or None)
COMMANDS = [
    (["build", "pair", "1", "2", "3", "--name", "P3"], "p3.json"),
    (["build", "pair", "1", "2", "3", "4", "--name", "P4"], "p4.json"),
    (["build", "group", "cyclic:2"], "z2.json"),
    (["build", "group", "cyclic:4"], "z4.json"),
    (["build", "group", "symmetric:3"], "s3.json"),
    (["build", "bundle", "cyclic:2", "trivial", "--name", "BD"], "bd.json"),
    (["build", "product-form", "x", "y", "--group", "cyclic:2", "--name", "PF"], "pf.json"),
    (["validate", "p3.json"], None),
    (["validate", "p4.json"], None),
    (["info", "p3.json"], None),
    (["info", "p4.json"], None),
    (["info", "bd.json"], None),
    (["decompose", "p3.json"], None),
    (["decompose", "p4.json"], None),
    (["decompose", "pf.json"], None),
    (["decompose", "bd.json"], None),
    (["bisections", "list", "p3.json"], None),
    (["bisections", "list", "p4.json"], None),
    (["bisections", "group", "p3.json"], None),
    (["bisections", "group", "p4.json"], None),
    (["bisections", "group", "pf.json"], None),
    (["enum", "bisections", "p3.json"], None),
    (["enum", "bisections", "pf.json"], None),
    (["bisections", "ad", "p3.json", "1,2", "2,3", "3,1"], "ad.json"),
    (["morphism", "factor", "ad.json"], None),
    (["action", "coset", "z4.json", "0", "2"], "coset.json"),
    (["validate", "coset.json"], None),
    (["info", "coset.json"], None),
    (["action", "to-morphism", "coset.json"], "pairs.json"),
    (["info", "pairs.json"], None),
    (["morphism", "factor", "pairs.json"], None),
    (["action", "quotient", "z4.json", "0", "2"], None),
    (["action", "quotient", "s3.json", "123", "231", "312"], None),
    (["action", "quotient", "s3.json", "123", "213"], None),
    (["enum", "morphisms", "z2.json", "z4.json"], None),
    (["enum", "morphisms", "p3.json", "z2.json"], None),
    (["enum", "morphisms", "bd.json", "z2.json"], None),
    (["morphism", "validate", "ref_ok.json"], None),
    (["morphism", "validate", "ref_action.json"], None),
    (["morphism", "factor", "p3.json"], None),
    (["action", "groupoid", "z2.json"], None),
    (["bisections", "list", "coset.json"], None),
    (["enum", "morphisms", "pairs.json", "z2.json"], None),
    (["morphism", "validate", "missing.json"], None),
]


def run_one(argv):
    """(exit code, stdout, stderr) of one command run in this process."""
    from groupoids import cli

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def replay(files, commands):
    """Run the commands in the current directory; yields one result dict
    per command, in the golden file's format."""
    for name, payload in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    for argv, save in commands:
        code, out, err = run_one(argv)
        if save:
            with open(save, "w", encoding="utf-8") as fh:
                fh.write(out)
        yield {"argv": argv, "save": save, "exit": code, "stdout": out, "stderr": err}


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            results = list(replay(FILES, COMMANDS))
        finally:
            os.chdir(start)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"files": FILES, "commands": results}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(results)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
