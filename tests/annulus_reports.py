"""Seeded annulus-condition reports, recorded whole for C, C* and C**.

A case is one input of check_annulus_condition on the introductory
cutoff certificate of acceptance criterion 08 (m = 2, n = 3):

* the undrawn certificate at check seeds 0, 1 and 2;
* the first three draws of criterion 08's C <-> C* loop, at seed 1;
* the first of those draws with the sign of S flipped;
* bounds that the samples break (eps and A scaled by 1e-9 and 1e-6),
  so that the F and S rows carry witnesses;
* a tilted Omega of one direction, and an Omega of two directions that
  are not antipodal, one of them with a signed zero coordinate.

Each case records the full report of every variant, sample maxima,
witnesses, identity method and chi constant included, so a change in
the sample points or in their order shows.  The identity is decided
exactly and draws nothing from the random stream.

tests/data/annulus_reports.json holds the cases; test_annulus_reports.py
requires every later version of the code to reproduce it byte for byte.
Regenerate it (only when a report is meant to change) with

    PYTHONPATH=src python tests/annulus_reports.py tests/data/annulus_reports.json

and see first what would move with

    PYTHONPATH=src python tests/annulus_reports.py --diff tests/data/annulus_reports.json

which prints every field that differs from the golden (path, old value,
new value, relative change) and a summary.  It exits non-zero when any
field moved other than a C* or C** max_ratio or witness value, the
figures that rounding moves when the rows are computed another way.
"""

import json
import math
import re
import sys

from jetideals.verifier import check_annulus_condition

from test_acceptance import POLES, _intro_annulus
from test_compiled_callers import _criterion_08_draws

VARIANTS = ("C", "C*", "C**")


def _unit(v):
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


def _cases():
    """(label, _intro_annulus scales, Omega, check seed, S flipped)."""
    cases = [(f"certificate seed {s}", {}, POLES, s, False)
             for s in range(3)]
    draws = _criterion_08_draws(3)
    cases += [(f"criterion 08 draw {j}", d, POLES, 1, False)
              for j, d in enumerate(draws)]
    cases.append(("criterion 08 draw 0, S flipped", draws[0], POLES, 1, True))
    cases.append(("broken bounds", {"eps_f": 1e-9, "a_f": 1e-6}, POLES, 2,
                  False))
    cases.append(("tilted Omega", {}, [_unit((0.3, -0.2, 0.9))], 0, False))
    cases.append(("two directions", {}, [(0.0, 0.0, 1.0), (-0.0, 0.6, 0.8)],
                  1, False))
    return cases


CASES = len(_cases())


def record(index):
    label, scales, omegas, seed, flip = _cases()[index]
    params, p, Q, F, S = _intro_annulus(**scales)
    if flip:
        S = [-s for s in S]
    return {"index": index, "case": label,
            "reports": {v: check_annulus_condition(v, params, p, Q, F, S,
                                                   omegas, seed=seed)
                        for v in VARIANTS}}


def dump(records):
    """The golden's text: records as indented JSON, one final newline."""
    return json.dumps(records, indent=1) + "\n"


ROUNDING = re.compile(
    r"\[\d+\]\.reports\.C\*\*?\.bounds\[\d+\]\.(max_ratio|witness\.value)")


def _leaves(value, path=""):
    """{path: leaf} of a JSON value."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    out = {}
    for key, v in items:
        out.update(_leaves(v, key))
    return out


def diff(old, new):
    """Print the fields of new that differ from old; return the number
    of them that are not rounding (ROUNDING)."""
    old, new = _leaves(old), _leaves(new)
    moved, other, largest = 0, 0, 0.0
    for path in list(old) + [p for p in new if p not in old]:
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if a == b and (path in old) == (path in new):
            continue
        moved += 1
        rel = "-"
        if all(isinstance(v, float) for v in (a, b)):
            change = abs(b - a) / abs(a) if a else math.inf
            largest = max(largest, change)
            rel = f"{change:.3g}"
        if not (ROUNDING.fullmatch(path) and rel != "-"):
            other += 1
        print(f"{path}: {a!r} -> {b!r} (relative change {rel})")
    print(f"{moved} fields moved, {other} of them not rounding; largest "
          f"relative change {largest:.3g}")
    return other


if __name__ == "__main__":
    records = json.loads(dump([record(i) for i in range(CASES)]))
    if sys.argv[1] == "--diff":
        with open(sys.argv[2]) as fh:
            sys.exit(1 if diff(json.load(fh), records) else 0)
    with open(sys.argv[1], "w") as fh:
        fh.write(dump(records))
