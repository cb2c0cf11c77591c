"""Seeded forbidden-cone searches reproduce their recorded results
exactly.

tests/data/forbidden_search.json was captured from the depth-first cell
walk; see forbidden_search.py for the grid of cases and what each
records.
"""

import json
import pathlib

import pytest

from forbidden_search import CASES, record

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "forbidden_search.json").read_text())


def test_golden_covers_every_case():
    assert [c["index"] for c in GOLDEN] == list(range(CASES))


@pytest.mark.parametrize("start", range(0, CASES, 50))
def test_forbidden_searches_match_golden(start):
    for expected in GOLDEN[start:start + 50]:
        got = json.loads(json.dumps(record(expected["index"])))
        assert got == expected
