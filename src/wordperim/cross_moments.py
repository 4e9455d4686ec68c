"""Cross-moments of a leading letter and up to three consecutive gaps.

For a word x0, x1, x2, x3 with gaps y_i = |x_i - x_{i-1}| the family

    T[a,b,c,d] = E( x0**a * y1**b * y2**c * y3**d )

captures every correlation the perimeter moments need (y_i is correlated
with y_{i+1} but independent of y_{i+2} and beyond).  A zero exponent means
the variable is absent.  Centered variants replace each gap y_j by
(y_j - M) where M = E(y); the leading letter is never centered.

Two independent routes are provided:

* :func:`cross_moment_oracle` -- the exact sum over letter tuples, run as
  three gap stages over integer letter weights (truncated for geometric).
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

from .models import UNIFORM, Model, letter_cutoff, letter_weights


class MomentIndex(NamedTuple):
    """Exponent tuple (alpha, beta, gamma, delta) selecting a cross-moment."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    def validate(self) -> "MomentIndex":
        if any(not isinstance(e, int) or not 0 <= e <= 3 for e in self):
            raise ValueError(f"exponents must be integers in [0, 3], got {tuple(self)}")
        if sum(self) > 4:
            raise ValueError(f"total weight {sum(self)} exceeds 4: {tuple(self)}")
        return self


class NoClosedFormError(ValueError):
    """Raised for an index without a tabulated closed form; use the oracle."""


class CrossMomentResult(NamedTuple):
    index: MomentIndex
    centered: bool
    value: Fraction
    method: str  # "closed_form" | "brute_force"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _u(expr: Callable[[int], Fraction]) -> Callable[[Model], Fraction]:
    return lambda m: expr(m.k)


def _g(expr: Callable[[Fraction], Fraction]) -> Callable[[Model], Fraction]:
    return lambda m: expr(m.p)


def _F(a, b=1) -> Fraction:
    return Fraction(a, b)


# Uniform[1,k], uncentered.  Indices are (alpha, beta, gamma, delta).
UNIFORM_CLOSED: dict[MomentIndex, Callable[[Model], Fraction]] = {
    MomentIndex(1, 0, 0, 0): _u(lambda k: _F(k + 1, 2)),
    MomentIndex(2, 0, 0, 0): _u(lambda k: _F((k + 1) * (1 + 2 * k), 6)),
    MomentIndex(1, 1, 0, 0): _u(lambda k: _F((k - 1) * (k + 1) ** 2, 6 * k)),
    MomentIndex(0, 1, 0, 0): _u(lambda k: _F((k - 1) * (k + 1), 3 * k)),
    MomentIndex(0, 2, 0, 0): _u(lambda k: _F((k - 1) * (k + 1), 6)),
    MomentIndex(0, 3, 0, 0): _u(lambda k: _F((k - 1) * (k + 1) * (3 * k * k - 2), 30 * k)),
    MomentIndex(0, 1, 1, 0): _u(lambda k: _F((k - 1) * (k + 1) * (7 * k * k - 8), 60 * k * k)),
    MomentIndex(0, 1, 2, 0): _u(lambda k: _F((k - 1) * (k + 1) * (11 * k * k - 14), 180 * k)),
    MomentIndex(0, 1, 1, 1): _u(
        lambda k: _F((k - 1) * (k + 1) * (17 * k**4 - 39 * k * k + 24), 420 * k**3)
    ),
}
# served through the reversibility identity T[0,2,1,0] == T[0,1,2,0]
UNIFORM_CLOSED[MomentIndex(0, 2, 1, 0)] = UNIFORM_CLOSED[MomentIndex(0, 1, 2, 0)]

# Uniform, centered gaps (the only centered forms the closed-form table carries).
UNIFORM_CLOSED_CENTERED: dict[MomentIndex, Callable[[Model], Fraction]] = {
    MomentIndex(0, 2, 0, 0): _u(lambda k: _F((k - 1) * (k + 1) * (k * k + 2), 18 * k * k)),
    MomentIndex(0, 1, 1, 0): _u(
        lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1), 180 * k * k)
    ),
    MomentIndex(0, 3, 0, 0): _u(
        lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (2 * k * k - 5), 270 * k**3)
    ),
    MomentIndex(0, 1, 1, 1): _u(
        lambda k: -_F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (k * k + 5), 3780 * k**3)
    ),
    MomentIndex(0, 1, 2, 0): _u(
        lambda k: _F((k - 1) * (k - 2) * (k + 2) * (k + 1) * (k * k + 2), 540 * k**3)
    ),
}
UNIFORM_CLOSED_CENTERED[MomentIndex(0, 2, 1, 0)] = UNIFORM_CLOSED_CENTERED[
    MomentIndex(0, 1, 2, 0)
]

# Geometric(p), uncentered.  q = 1 - p throughout.
GEOMETRIC_CLOSED: dict[MomentIndex, Callable[[Model], Fraction]] = {
    MomentIndex(1, 0, 0, 0): _g(lambda p: 1 / p),
    MomentIndex(2, 0, 0, 0): _g(lambda p: (2 - p) / p**2),
    MomentIndex(1, 1, 0, 0): _g(lambda p: (1 - p) * (p * p - 4 * p + 6) / (p * p * (2 - p) ** 2)),
    MomentIndex(0, 1, 0, 0): _g(lambda p: 2 * (1 - p) / (p * (2 - p))),
    MomentIndex(0, 2, 0, 0): _g(lambda p: 2 * (1 - p) / p**2),
    MomentIndex(0, 3, 0, 0): _g(lambda p: 2 * (1 - p) * (p * p - 6 * p + 6) / (p**3 * (2 - p))),
    MomentIndex(0, 1, 1, 0): _g(
        lambda p: (1 - p)
        * (p**4 - 7 * p**3 + 23 * p * p - 32 * p + 16)
        / (p * p * (2 - p) ** 2 * (p * p + 3 - 3 * p))
    ),
    MomentIndex(0, 1, 2, 0): _g(
        lambda p: (28 - 56 * p + 38 * p * p - 10 * p**3 + p**4) * (1 - p) / (p**3 * (2 - p) ** 3)
    ),
    MomentIndex(0, 1, 1, 1): _g(
        lambda p: 2
        * (28 - 84 * p + 113 * p**2 - 86 * p**3 + 39 * p**4 - 10 * p**5 + p**6)
        * (1 - p) ** 2
        / (p**3 * (p * p - 2 * p + 2) * (2 - p) * (p * p + 3 - 3 * p) ** 2)
    ),
}
GEOMETRIC_CLOSED[MomentIndex(0, 2, 1, 0)] = GEOMETRIC_CLOSED[MomentIndex(0, 1, 2, 0)]

# Not tabulated: centered geometric cross-moments (no closed forms are carried
# for them; the ordinary cross-moments suffice for every geometric formula).
GEOMETRIC_CLOSED_CENTERED: dict[MomentIndex, Callable[[Model], Fraction]] = {}


def supported_closed_indices(model: Model, centered: bool = False) -> tuple[MomentIndex, ...]:
    table = _closed_table(model, centered)
    return tuple(sorted(table.keys()))


def _closed_table(model: Model, centered: bool):
    if model.kind == UNIFORM:
        return UNIFORM_CLOSED_CENTERED if centered else UNIFORM_CLOSED
    return GEOMETRIC_CLOSED_CENTERED if centered else GEOMETRIC_CLOSED


def mean_gap(model: Model) -> Fraction:
    """M = E(y), the mean absolute gap (closed form)."""
    return cross_moment_closed(model, MomentIndex(0, 1, 0, 0))


def cross_moment_closed(model: Model, idx, centered: bool = False) -> Fraction:
    """Evaluate the tabulated closed form for T[idx] (or centered variant).

    Raises NoClosedFormError for indices outside the table; the brute-force
    oracle covers those.
    """
    idx = MomentIndex(*idx).validate()
    table = _closed_table(model, centered)
    fn = table.get(idx)
    if fn is None:
        kind = "centered " if centered else ""
        raise NoClosedFormError(
            f"no closed form tabulated for {kind}T{tuple(idx)} under {model.describe()}; "
            f"use cross_moment_oracle"
        )
    return fn(model)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def cross_moment_oracle(model: Model, idx, centered: bool = False) -> Fraction:
    """Sum over letter tuples (i, j, l, r) in [1, U]**4, exact rationals.

    The letters carry the integer weights of models.letter_weights, truncated
    at U = letter_cutoff(model) for geometric; the neglected tail is bounded by
    :func:`oracle_truncation_bound`.  The sum runs innermost-out as three
    O(U) gap stages (:func:`_gap_stage`) with one division at the end.

    ``centered`` replaces each gap factor |v - w| by (|v - w| - M).  Centering
    the leading letter is not a defined operation here, so centered=True with
    alpha > 0 is rejected.
    """
    idx = MomentIndex(*idx).validate()
    if centered and idx.alpha > 0:
        raise ValueError("centered cross-moments are defined for gap variables only (alpha must be 0)")
    return _oracle_cached(model, idx, centered)


@lru_cache(maxsize=None)
def _oracle_cached(model: Model, idx: MomentIndex, centered: bool) -> Fraction:
    # P(x = i) = W[i] / D, and each centered gap factor is scaled by s, the
    # denominator of M = off / s, so every stage stays an integer.  M is the
    # oracle's own mean gap, so centering never leans on the closed forms.
    a, b, c, d = idx
    W, D = letter_weights(model)
    M = _oracle_cached(model, MomentIndex(0, 1, 0, 0), False) if centered else Fraction(0)
    off, s = M.numerator, M.denominator
    inner = [1] * len(W)
    for e in (d, c, b):
        inner = _gap_stage(W, inner, e, s, off)
    total = sum(W[i] * i**a * inner[i] for i in range(1, len(W)))
    return Fraction(total, D**4 * s ** (b + c + d))


def _gap_stage(W: list[int], inner: list[int], e: int, s: int, off: int) -> list[int]:
    """out[v] = sum over w of W[w] * inner[w] * g(|w - v|), g(y) = (s*y - off)**e.

    Split at w = v: with g(y) = sum_t g[t] * y**t, the binomial theorem gives

        out[v] = sum_{t,j} g[t] * C(t,j) * v**(t-j) * ((-1)**j * L[j] + (-1)**(t-j) * R[j])

    where L[j] and R[j] sum X[w] * w**j, X = W * inner, over w < v and w >= v.
    Updating L and R as v steps makes the stage O(U * e**2), not O(U**2).
    """
    g = [math.comb(e, t) * s**t * (-off) ** (e - t) for t in range(e + 1)]
    terms = [(g[t] * math.comb(t, j), t - j, j, (-1) ** j, (-1) ** (t - j))
             for t in range(e + 1) for j in range(t + 1)]
    X = [w * x for w, x in zip(W, inner)]
    L = [0] * (e + 1)
    R = [sum(x * w**j for w, x in enumerate(X)) for j in range(e + 1)]
    out = [0] * len(X)
    for v in range(1, len(X)):
        out[v] = sum(coef * v**pv * (sl * L[j] + sr * R[j]) for coef, pv, j, sl, sr in terms)
        for j in range(e + 1):  # move w = v from the right sums to the left ones
            L[j] += X[v] * v**j
            R[j] -= X[v] * v**j
    return out


def oracle_truncation_bound(model: Model, idx) -> float:
    """Upper bound on |true T - truncated-oracle T| for the geometric model.

    Union bound over the four letters exceeding the cutoff U, with the
    monomial bounded by (i+j+l+r)**w, w = total weight.  Exact for uniform
    (returns 0.0).  Deliberately crude -- it is only used to demonstrate the
    truncation is far inside the comparison tolerances.
    """
    idx = MomentIndex(*idx).validate()
    if model.kind == UNIFORM:
        return 0.0
    w = sum(idx)
    U = letter_cutoff(model)
    p, q = float(model.p), float(model.q)

    def letter_moment(t: int, start: int) -> float:
        # sum_{i >= start} p q**(i-1) i**t, summed until terms vanish
        total, term_w = 0.0, p * q ** (start - 1)
        i = start
        while True:
            term = term_w * i**t
            total += term
            if term < 1e-300 or (i > start + 10 and term < 1e-18 * total):
                return total
            i += 1
            term_w *= q

    m1 = [letter_moment(t, 1) for t in range(w + 1)]  # single-letter raw moments
    # raw moments of the sum of three i.i.d. letters, by binomial convolution
    m2 = [sum(math.comb(t, s) * m1[s] * m1[t - s] for s in range(t + 1)) for t in range(w + 1)]
    m3 = [sum(math.comb(t, s) * m2[s] * m1[t - s] for s in range(t + 1)) for t in range(w + 1)]
    tail = sum(math.comb(w, t) * letter_moment(w - t, U + 1) * m3[t] for t in range(w + 1))
    return 4.0 * tail


def reversibility_check(model: Model) -> bool:
    """Oracle test of T[0,1,2,0] == T[0,2,1,0] (adjacent gap pair is reversible).

    Exact equality for both models: reversing (x0, x1, x2) maps one truncated
    sum onto the other term by term, with the same letter weights.
    """
    lhs = cross_moment_oracle(model, MomentIndex(0, 1, 2, 0))
    return lhs == cross_moment_oracle(model, MomentIndex(0, 2, 1, 0))


def cross_moment(model: Model, idx, centered: bool = False, method: str = "closed_form") -> CrossMomentResult:
    """Uniform entry point used by the command-line `xmoment` query."""
    idx = MomentIndex(*idx).validate()
    if method == "closed_form":
        value = cross_moment_closed(model, idx, centered)
    elif method == "brute_force":
        value = cross_moment_oracle(model, idx, centered)
    else:
        raise ValueError(f"method must be 'closed_form' or 'brute_force', got {method!r}")
    return CrossMomentResult(idx, centered, value, method)
