"""Seeded annulus-condition reports reproduce their recorded text byte
for byte.

tests/data/annulus_reports.json was captured from the per-point
sample loops; see annulus_reports.py for the cases and what each
records.
"""

import pathlib

from annulus_reports import CASES, dump, record

GOLDEN = (pathlib.Path(__file__).parent / "data"
          / "annulus_reports.json").read_text()


def test_annulus_reports_match_golden_bytes():
    assert dump([record(i) for i in range(CASES)]) == GOLDEN
