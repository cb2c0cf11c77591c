"""Negligible functions: small relative to |x|^m on a cone.

F is negligible for a direction set Omega when, for every eps, all its
derivatives up to order m obey |d^a F| <= eps |x|^(m-|a|) on some cone
around Omega.  The checker certifies every eps at once: a derivative
homogeneous of degree exactly m - |a| must vanish on Omega (decided
exactly), and a certified bound on its gradient over the domes gives
the cone opening delta(eps); surplus homogeneity goes into the cone
radius r(eps).
"""

import json

from jetideals import check_negligible, expr_parse

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]

F = expr_parse("y^3/z", 3)
cert = check_negligible(F, POLES, m=2, n=3)
print("y^3/z toward the poles:", cert.verdict)
rec = cert.records[0]
print(f"  delta0 = {rec['delta0']}, condition (b) constant "
      f"c = {rec['condition_b']['constant']:.4g}")
for row in rec["condition_a"]:
    if "lipschitz" in row:
        print(f"  d^{row['alpha']} F: delta(eps) = min(delta0, "
              f"eps / {row['lipschitz']:.4g})")

# a genuine counterexample comes with a witness point
import math
diag = [(1 / math.sqrt(2), 1 / math.sqrt(2))]
bad = check_negligible(expr_parse("x*y", 2), diag, m=2, n=2)
print("x*y toward the diagonal:", bad.verdict)
print("witness:", json.dumps(bad.records[0]["witness"], indent=2))
