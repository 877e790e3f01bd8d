"""Record api_grid.json: the digest of each output of tests/api_grid.py.

    python3 tests/record_api_grid.py

Run it by hand, only on a commit whose outputs are trusted;
`test_api_grid_matches_golden` in test_api_grid.py then replays the grid
and compares every digest.

The grid runs in one child process per hash seed (PYTHONHASHSEED 0, 1,
2 and 3).  If any label's digest, or the list of labels, differs between
seeds, an output depends on hash order: that is a fault of the program,
and nothing is recorded.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from api_grid import GOLDEN  # noqa: E402

SEEDS = (0, 1, 2, 3)


def run_seed(seed) -> dict:
    """The grid's digests, computed in a child under PYTHONHASHSEED=seed."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "api_grid.py")],
        cwd=HERE, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    runs = {seed: run_seed(seed) for seed in SEEDS}
    first = runs[SEEDS[0]]
    differ = []
    for seed, got in runs.items():
        if list(got) != list(first):
            print(f"PYTHONHASHSEED={seed}: the labels differ", file=sys.stderr)
            return 1
        differ += [label for label in first if got[label] != first[label]]
    if differ:
        labels = sorted(set(differ), key=list(first).index)
        print(
            "digests differ between hash seeds:", *labels[:10],
            sep="\n  ", file=sys.stderr,
        )
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(SEEDS), "digests": first}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(first)} labels to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
