"""
Cross-moments: closed forms against the brute-force oracle
==========================================================

T[a,b,c,d] = E(x0^a y1^b y2^c y3^d) couples the leading letter with up to
three consecutive gaps.  Every tabulated closed form is checkable against a
literal expectation sum; this demo prints both routes side by side.
"""

from fractions import Fraction

import wordperim as wp
from wordperim.cross_moments import supported_closed_indices

# ---------------------------------------------------------------------------
# Uniform[1,6]: the oracle sums over all 6**4 letter tuples (in three gap
# stages over integer letter weights), so agreement is exact rational equality.
# ---------------------------------------------------------------------------
model = wp.Model.uniform(6)
print(f"{model.describe()}:")
print(f"  {'index':<14} {'closed form':>14} {'oracle':>14}")
for idx in supported_closed_indices(model):
    closed = wp.cross_moment_closed(model, idx)
    oracle = wp.cross_moment_oracle(model, idx)
    assert closed == oracle
    print(f"  T{str(tuple(idx)):<13} {str(closed):>14} {str(oracle):>14}")

# Centered variants replace each gap y by y - M:
for idx in supported_closed_indices(model, centered=True):
    assert wp.cross_moment_closed(model, idx, True) == wp.cross_moment_oracle(model, idx, True)
print("  centered forms agree exactly as well")

# ---------------------------------------------------------------------------
# Geometric(1/2): infinite support, so the oracle truncates where q**U drops
# below 1e-15 and reports a bound on what the truncation can have cost.
# ---------------------------------------------------------------------------
geo = wp.Model.geometric(Fraction(1, 2))
print(f"\n{geo.describe()} (letters truncated at {wp.letter_cutoff(geo)}):")
for idx in [(0, 1, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)]:
    closed = wp.cross_moment_closed(geo, idx)
    oracle = wp.cross_moment_oracle(geo, idx)
    bound = wp.oracle_truncation_bound(geo, idx)
    print(
        f"  T{tuple(idx)}: closed {str(closed):>8}, |closed - oracle| = "
        f"{abs(float(closed - oracle)):.2e} (bound {bound:.2e})"
    )

# Two structural identities the oracle confirms without any closed form:
M = wp.mean_gap(model)
assert wp.cross_moment_oracle(model, (0, 1, 0, 1)) == M * M  # y1, y3 independent
assert wp.reversibility_check(model)  # (y1, y2) ~ (y2, y1)
print("\nindependence factorization and gap-pair reversibility confirmed")
