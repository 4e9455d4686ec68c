"""Cross-moments of a leading letter and up to three consecutive gaps.

For a word x0, x1, x2, x3 with gaps y_i = |x_i - x_{i-1}| the family

    T[a,b,c,d] = E( x0**a * y1**b * y2**c * y3**d )

captures every correlation the perimeter moments need (y_i is correlated
with y_{i+1} but independent of y_{i+2} and beyond).  A zero exponent means
the variable is absent.  Centered variants replace each gap y_j by
(y_j - M) where M = E(y); the leading letter is never centered.

Two independent routes are provided:

* :func:`cross_moment_oracle` -- the exact sum over letter tuples, run as
  three gap stages over exponential polynomials sum_z z**v * P_z(v).  Both
  letter laws are c * z**v on [1, U] (U = k, or unbounded for geometric), and
  partial sums of z**w * w**n stay in that class (indefinite hypergeometric
  summation; Petkovsek, Wilf & Zeilberger, *A = B*, 1996, ch. 5), so exact
  integer arithmetic gives the untruncated value at a cost independent of k
  and p.  Each z of a polynomial is keyed by its reduced integer pair
  (numerator, denominator), so no stage hashes or multiplies a Fraction.
  The stage chains are shared per model: the stages of a gap suffix
  (beta, gamma, delta) are cached per (model, centering, suffix), and every
  index that ends with the same gaps reuses them.
* :func:`cross_moment_closed` -- tabulated closed-form rational expressions,
  evaluated exactly.

Their agreement over a sweep of models is the core correctness check of the
whole library (see :mod:`wordperim.verification`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .models import CACHE_ENTRIES, UNIFORM, Model, integer_antidifference, letter_law, plain_int


class MomentIndex(NamedTuple):
    """Exponent tuple (alpha, beta, gamma, delta) selecting a cross-moment."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    def validate(self) -> "MomentIndex":
        """This index with plain int exponents (numpy integers pass; bool does not)."""
        exps = [plain_int(e) for e in self]
        if any(e is None or not 0 <= e <= 3 for e in exps):
            raise ValueError(f"exponents must be integers in [0, 3], got {tuple(self)}")
        if sum(exps) > 4:
            raise ValueError(f"total weight {sum(exps)} exceeds 4: {tuple(self)}")
        return MomentIndex(*exps)


class NoClosedFormError(ValueError):
    """Raised for an index without a tabulated closed form; use the oracle."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _F(a, b=1) -> Fraction:
    return Fraction(a, b)


# Each entry is a function of the model's parameter, k or p, which _closed_table
# returns with the table.  Uniform[1,k], uncentered.  Indices are (alpha, beta, gamma, delta).
UNIFORM_CLOSED: dict[MomentIndex, Callable[[int], Fraction]] = {
    MomentIndex(1, 0, 0, 0): lambda k: _F(k + 1, 2),
    MomentIndex(2, 0, 0, 0): lambda k: _F((k + 1) * (1 + 2 * k), 6),
    MomentIndex(1, 1, 0, 0): lambda k: _F((k - 1) * (k + 1) ** 2, 6 * k),
    MomentIndex(0, 1, 0, 0): lambda k: _F((k - 1) * (k + 1), 3 * k),
    MomentIndex(0, 2, 0, 0): lambda k: _F((k - 1) * (k + 1), 6),
    MomentIndex(0, 3, 0, 0): lambda k: _F((k - 1) * (k + 1) * (3 * k * k - 2), 30 * k),
    MomentIndex(0, 1, 1, 0): lambda k: _F((k - 1) * (k + 1) * (7 * k * k - 8), 60 * k * k),
    MomentIndex(0, 1, 2, 0): lambda k: _F((k - 1) * (k + 1) * (11 * k * k - 14), 180 * k),
    MomentIndex(0, 1, 1, 1):
        lambda k: _F((k - 1) * (k + 1) * (17 * k**4 - 39 * k * k + 24), 420 * k**3),
}
# served through the reversibility identity T[0,2,1,0] == T[0,1,2,0]
UNIFORM_CLOSED[MomentIndex(0, 2, 1, 0)] = UNIFORM_CLOSED[MomentIndex(0, 1, 2, 0)]

# Uniform, centered gaps (the only centered forms the closed-form table carries).
UNIFORM_CLOSED_CENTERED: dict[MomentIndex, Callable[[int], Fraction]] = {
    MomentIndex(0, 2, 0, 0): lambda k: _F((k - 1) * (k + 1) * (k * k + 2), 18 * k * k),
    MomentIndex(0, 1, 1, 0): lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1), 180 * k * k),
    MomentIndex(0, 3, 0, 0):
        lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (2 * k * k - 5), 270 * k**3),
    MomentIndex(0, 1, 1, 1):
        lambda k: -_F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (k * k + 5), 3780 * k**3),
    MomentIndex(0, 1, 2, 0):
        lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (k * k + 2), 540 * k**3),
}
UNIFORM_CLOSED_CENTERED[MomentIndex(0, 2, 1, 0)] = UNIFORM_CLOSED_CENTERED[MomentIndex(0, 1, 2, 0)]

# Geometric(p), uncentered.  q = 1 - p throughout.
GEOMETRIC_CLOSED: dict[MomentIndex, Callable[[Fraction], Fraction]] = {
    MomentIndex(1, 0, 0, 0): lambda p: 1 / p,
    MomentIndex(2, 0, 0, 0): lambda p: (2 - p) / p**2,
    MomentIndex(1, 1, 0, 0): lambda p: (1 - p) * (p * p - 4 * p + 6) / (p * p * (2 - p) ** 2),
    MomentIndex(0, 1, 0, 0): lambda p: 2 * (1 - p) / (p * (2 - p)),
    MomentIndex(0, 2, 0, 0): lambda p: 2 * (1 - p) / p**2,
    MomentIndex(0, 3, 0, 0): lambda p: 2 * (1 - p) * (p * p - 6 * p + 6) / (p**3 * (2 - p)),
    MomentIndex(0, 1, 1, 0):
        lambda p: (1 - p) * (p**4 - 7 * p**3 + 23 * p * p - 32 * p + 16)
        / (p * p * (2 - p) ** 2 * (p * p + 3 - 3 * p)),
    MomentIndex(0, 1, 2, 0):
        lambda p: (28 - 56 * p + 38 * p * p - 10 * p**3 + p**4) * (1 - p) / (p**3 * (2 - p) ** 3),
    MomentIndex(0, 1, 1, 1):
        lambda p: 2 * (28 - 84 * p + 113 * p**2 - 86 * p**3 + 39 * p**4 - 10 * p**5 + p**6)
        * (1 - p) ** 2 / (p**3 * (p * p - 2 * p + 2) * (2 - p) * (p * p + 3 - 3 * p) ** 2),
}
GEOMETRIC_CLOSED[MomentIndex(0, 2, 1, 0)] = GEOMETRIC_CLOSED[MomentIndex(0, 1, 2, 0)]

# Not tabulated: centered geometric cross-moments (no closed forms are carried
# for them; the ordinary cross-moments suffice for every geometric formula).
GEOMETRIC_CLOSED_CENTERED: dict[MomentIndex, Callable[[Fraction], Fraction]] = {}


def supported_closed_indices(model: Model, centered: bool = False) -> tuple[MomentIndex, ...]:
    return tuple(sorted(_closed_table(model, centered)[0]))


def _closed_table(model: Model, centered: bool) -> tuple[dict, int | Fraction]:
    """The closed-form table of ``model`` and the parameter its entries take, k or p."""
    if model.kind == UNIFORM:
        return (UNIFORM_CLOSED_CENTERED if centered else UNIFORM_CLOSED), model.k
    return (GEOMETRIC_CLOSED_CENTERED if centered else GEOMETRIC_CLOSED), model.p


def mean_gap(model: Model) -> Fraction:
    """M = E(y), the mean absolute gap (closed form)."""
    return cross_moment_closed(model, MomentIndex(0, 1, 0, 0))


def cross_moment_closed(model: Model, idx, centered: bool = False) -> Fraction:
    """Evaluate the tabulated closed form for T[idx] (or centered variant).

    Raises NoClosedFormError for indices outside the table; the brute-force
    oracle covers those.
    """
    idx = MomentIndex(*idx).validate()
    table, parameter = _closed_table(model, centered)
    fn = table.get(idx)
    if fn is None:
        kind = "centered " if centered else ""
        raise NoClosedFormError(f"no closed form tabulated for {kind}T{tuple(idx)} under "
                                f"{model.describe()}; use cross_moment_oracle")
    return fn(parameter)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def cross_moment_oracle(model: Model, idx, centered: bool = False) -> Fraction:
    """T[a,b,c,d] as the exact sum over letter tuples (i, j, l, r).

    Each tuple weighs P(i)P(j)P(l)P(r) * i**a * |j-i|**b * |l-j|**c * |r-l|**d.

    The sum runs innermost-out as three gap stages (:func:`_gap_stage`) over
    exponential polynomials, with no truncation: the geometric letters keep
    their whole unbounded support, and no step's cost grows with k or 1/p.

    ``centered`` replaces each gap factor |v - w| by (|v - w| - M).  Centering
    the leading letter is not a defined operation here, so centered=True with
    alpha > 0 is rejected.
    """
    idx = MomentIndex(*idx).validate()
    if centered and idx.alpha > 0:
        raise ValueError("centered cross-moments are defined for gap variables only "
                         "(alpha must be 0)")
    return _oracle_cached(model, idx, centered)


@lru_cache(maxsize=CACHE_ENTRIES)
def _oracle_cached(model: Model, idx: MomentIndex, centered: bool) -> Fraction:
    # P(x = v) = scale * z0**v on [1, U]; the stages sum z0**w, and each
    # centered gap factor is scaled by s, the denominator of M, so that it has
    # integer coefficients.  scale**4 and s**(b+c+d) divide out at the end.
    a, b, c, d = idx
    scale, z0, U = letter_law(model)
    s = _centering(model, centered)[0]
    D, polys = _stages(model, centered, (b, c, d))
    Q, _, _, total = _sums((z0.numerator, z0.denominator), U, polys, a)
    return Fraction(total[a] * scale.numerator**4,
                    D * Q * scale.denominator**4 * s ** (b + c + d))


def _centering(model: Model, centered: bool) -> tuple[int, int]:
    """(s, off) with M = off / s for centered gaps, (1, 0) otherwise.

    M is the oracle's own mean gap, so centering never leans on the closed forms.
    """
    if not centered:
        return 1, 0
    M = _oracle_cached(model, MomentIndex(0, 1, 0, 0), False)
    return M.denominator, M.numerator


_ONE = (1, 1)  # the key of z = 1: each z is keyed by its reduced (numerator, denominator)


@lru_cache(maxsize=CACHE_ENTRIES)
def _stages(model: Model, centered: bool, suffix: tuple[int, ...]) -> tuple:
    """The exponential polynomial (D, {z: P_z}) that the gap stages of ``suffix`` leave.

    For suffix (b, c, d) it is, as a function of the leading letter v, the sum
    over the later letters (j, l, r) of z0**(j+l+r) * G_b(|j - v|) *
    G_c(|l - j|) * G_d(|r - l|).  One :func:`_gap_stage` of suffix[0] is
    applied to the cached chain of suffix[1:], so the indices of a model that
    end the same way share those stages: T[0,1,1,0] and T[0,2,1,0] share
    their delta and gamma stages.  Callers read the result and never mutate it.
    """
    if not suffix:
        return 1, {_ONE: [1]}
    _, z0, U = letter_law(model)
    s, off = _centering(model, centered)
    inner = _stages(model, centered, suffix[1:])
    return _gap_stage((z0.numerator, z0.denominator), U, inner, suffix[0], s, off)


def _gap_stage(z0: tuple[int, int], U: int | None, inner: tuple, e: int, s: int, off: int) -> tuple:
    """out(v) = sum_{w=1..U} Y(w) * G(|w - v|), Y(w) = z0**w * inner(w), G(y) = (s*y - off)**e.

    ``inner`` and the result are exponential polynomials on [1, U]: a pair
    (D, {z: P_z}) of integer coefficient lists standing for sum_z z**v * P_z(v) / D,
    each z (and z0) held as its reduced (numerator, denominator) pair, so no
    Fraction is hashed or multiplied.  Split at w = v:

        out(v) = sum_w Y(w) G(w - v) + sum_{w < v} Y(w) (G(v - w) - G(w - v))

    The first sum is a polynomial in v over the full sums of Y(w) * w**j.  In
    the second only the odd powers of G survive, and by the binomial theorem
    it needs the partial sums of Y(w) * w**j, which stay in the class
    (:func:`_sums`).
    """
    g = [math.comb(e, t) * s**t * (-off) ** (e - t) for t in range(e + 1)]
    Q, A, start, total = _sums(z0, U, inner[1], e)
    out: dict = {z: [] for z in A}
    const = out.setdefault(_ONE, [])
    for t in range(e + 1):
        for j in range(t + 1):
            # sum_w Y(w) (w - v)**t = sum_j C(t, j) (-v)**(t-j) sum_w Y(w) w**j
            _accumulate(const, t - j, [total[j]], g[t] * math.comb(t, j) * (-1) ** (t - j))
            if t % 2:  # G(v - w) - G(w - v) = 2 g[t] (v - w)**t, expanded the same way
                f = 2 * g[t] * math.comb(t, j) * (-1) ** j
                _accumulate(const, t - j, [-start[j]], f)
                for z, Az in A.items():
                    _accumulate(out[z], t - j, Az[j], f)
    D = inner[0] * Q
    common = math.gcd(D, *(x for P in out.values() for x in P))
    return D // common, {z: [x // common for x in P] for z, P in out.items()}


def _sums(z0: tuple[int, int], U: int | None, polys: dict, e: int) -> tuple:
    """Partial and full sums of Y(w) * w**j for j = 0..e, Y(w) = z0**w * sum_z z**w * P_z(w).

    Returns (Q, A, start, total) for integer P_z: the sum over 1 <= w < v is
    (sum_z z**v * A[z][j](v) - start[j]) / Q, the one over 1 <= w <= U is
    total[j] / Q, and A[z][j], start[j] and total[j] are integers.  A is keyed
    by the reduced pair of z0 * z.  Each term c * z**w * w**n contributes
    c * (z**v * R(v) - z * R(1)), with R of
    :func:`models.integer_antidifference` over its denominator.  Q is the
    least common multiple of the denominators of z and of the R, so
    z * A[z][j](1) is an integer too.
    """
    zn0, zd0 = z0
    parts = []  # ((zn, zd), [(c, [(R, den) for j = 0..e]) for each term c * z**w * w**n])
    for (zn, zd), P in polys.items():
        zn, zd = zn * zn0, zd * zd0
        common = math.gcd(zn, zd)
        zn, zd = zn // common, zd // common
        parts.append(((zn, zd), [(c, [integer_antidifference(zn, zd, n + j) for j in range(e + 1)])
                                 for n, c in enumerate(P) if c]))
    Q = math.lcm(*(z[1] * den for z, terms in parts for _, Rs in terms for _, den in Rs))
    A: dict = {}
    for z, terms in parts:
        Az = A[z] = [[] for _ in range(e + 1)]
        for c, Rs in terms:
            for j, (R, den) in enumerate(Rs):
                _accumulate(Az[j], 0, R, c * (Q // den))
    start = [sum(zn * sum(Az[j]) // zd for (zn, zd), Az in A.items()) for j in range(e + 1)]
    if U is None:  # every |z| < 1, so z**v * A(v) vanishes as v grows
        return Q, A, start, [-x for x in start]
    # a bounded support is uniform, every z is 1: the partial sum at v = U + 1
    top = [sum(x * (U + 1) ** i for Az in A.values() for i, x in enumerate(Az[j]))
           for j in range(e + 1)]
    return Q, A, start, [x - y for x, y in zip(top, start)]


def _accumulate(acc: list, shift: int, poly, factor: int) -> None:
    """acc += factor * v**shift * poly(v), on coefficient lists."""
    acc.extend([0] * (shift + len(poly) - len(acc)))
    for i, r in enumerate(poly):
        acc[shift + i] += factor * r

