"""Seeded ideal studies reproduce their recorded outputs exactly.

tests/data/ideal_studies.json was captured from the Fraction-based
elimination and the per-monomial forbidden-cone evaluation; see
ideal_studies.py for what a study records.
"""

import json
import pathlib

import pytest

from ideal_studies import STUDIES, study

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "ideal_studies.json").read_text())


def test_golden_covers_every_seed():
    assert [s["seed"] for s in GOLDEN] == list(range(STUDIES))


@pytest.mark.parametrize("seed", range(0, STUDIES, 10))
def test_ideal_studies_match_golden(seed):
    # a JSON round trip turns tuples into lists and keeps floats exact
    for expected in GOLDEN[seed:seed + 10]:
        got = json.loads(json.dumps(study(expected["seed"])))
        assert got == expected
