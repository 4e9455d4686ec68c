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
# stages), so agreement is exact rational equality.
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
# Geometric(1/2): the support is unbounded, and the oracle sums all of it.
# Each gap stage maps sums of z**v * poly(v) to sums of the same kind, so
# agreement is exact rational equality here too, for every p.
# ---------------------------------------------------------------------------
for geo in (wp.Model.geometric(Fraction(1, 2)), wp.Model.geometric(Fraction(1, 10**6))):
    print(f"\n{geo.describe()}:")
    for idx in [(0, 1, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)]:
        closed = wp.cross_moment_closed(geo, idx)
        oracle = wp.cross_moment_oracle(geo, idx)
        assert closed == oracle
        print(f"  T{tuple(idx)}: closed == oracle == {float(closed):.12g}")

# Two structural identities the oracle confirms without any closed form:
M = wp.mean_gap(model)
assert wp.cross_moment_oracle(model, (0, 1, 0, 1)) == M * M  # y1, y3 independent
assert wp.cross_moment_oracle(model, (0, 1, 2, 0)) == wp.cross_moment_oracle(
    model, (0, 2, 1, 0)
)  # (y1, y2) ~ (y2, y1)
print("\nindependence factorization and gap-pair reversibility confirmed")
