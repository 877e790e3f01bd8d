"""The API grid (tests/api_grid.py) replays the digests of api_grid.json,
which tests/record_api_grid.py records under four hash seeds."""

import json

from api_grid import GOLDEN, digests


def test_api_grid_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)["digests"]
    got = digests()
    missing = [label for label in want if label not in got]
    extra = [label for label in got if label not in want]
    differ = [label for label in want if label in got and got[label] != want[label]]
    assert not missing, f"labels no longer made: {missing[:10]}"
    assert not extra, f"labels not in the golden file: {extra[:10]}"
    assert not differ, f"{len(differ)} labels differ, first: {differ[:10]}"
    assert list(got) == list(want), "the labels come in another order"
