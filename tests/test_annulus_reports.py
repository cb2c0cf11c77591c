"""Seeded annulus-condition reports reproduce their recorded text byte
for byte.

tests/data/annulus_reports.json was captured from the per-point
sample loops.  It was re-captured once when the C* and C** rows came to
be built from the derivative tables of F, the S_l and chi: only C* and
C** maxima and witness values moved, by rounding (annulus_reports.py
--diff).  See annulus_reports.py for the cases and what each records.
"""

import pathlib

from annulus_reports import CASES, dump, record

GOLDEN = (pathlib.Path(__file__).parent / "data"
          / "annulus_reports.json").read_text()


def test_annulus_reports_match_golden_bytes():
    assert dump([record(i) for i in range(CASES)]) == GOLDEN
