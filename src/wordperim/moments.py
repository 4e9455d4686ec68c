"""Exact first three moments of the perimeter P_n of a random word.

For a word of n letters with m = n - 1 gaps, the perimeter decomposes as
P_n = Q_m + x0 + x_m + 2n where Q_m is the gap sum, so every moment of P_n
is assembled from the cross-moments of :mod:`wordperim.cross_moments`.
Each public quantity is computed twice -- by the cross-moment assembly and
by a closed-form rational function of the model parameter -- and the two
routes are asserted equal (exactly; everything here is Fraction arithmetic).

Outputs:

* mean_perimeter, variance_perimeter           exact rationals
* mu3_dominant        n * mu3_rate, the order-n term of the third centered
                      moment (the O(1) remainder has no tabulated form and
                      is not reconstructed)
* vstar_sigma         per-gap variance rate V* and sigma = sqrt(V*), the
                      normalization constants of the limit theorems
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cross_moments import MomentIndex, cross_moment_closed
from .models import UNIFORM, Model, plain_int

# cross-moment source signature: (model, index, centered) -> Fraction
Source = Callable[..., Fraction]

_T1 = MomentIndex(1, 0, 0, 0)
_T2 = MomentIndex(2, 0, 0, 0)
_T11 = MomentIndex(1, 1, 0, 0)
_M = MomentIndex(0, 1, 0, 0)
_T02 = MomentIndex(0, 2, 0, 0)
_T03 = MomentIndex(0, 3, 0, 0)
_T011 = MomentIndex(0, 1, 1, 0)
_T012 = MomentIndex(0, 1, 2, 0)
_T021 = MomentIndex(0, 2, 1, 0)
_T0111 = MomentIndex(0, 1, 1, 1)


class RouteDisagreement(AssertionError):
    """Assembly route and closed form disagreed; one of them is wrong."""


def _agreed(name: str, where: str, value: Fraction, other: Fraction) -> Fraction:
    """``value``, once a second route gave ``other`` equal to it; else RouteDisagreement."""
    if value != other:
        raise RouteDisagreement(f"{name} routes disagree at {where}: {value} vs {other}")
    return value


def _require(n: int, least: int = 2) -> int:
    """n as a plain int (numpy integers pass; bool does not), checked to be >= least."""
    value = plain_int(n)
    if value is None or value < least:
        raise ValueError(f"word length n must be an integer >= {least}, got {n!r}")
    return value


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------

def mean_closed(model: Model, n: int) -> Fraction:
    """Closed rational form of E(P_n)."""
    n = _require(n)
    if model.kind == UNIFORM:
        k = model.k
        return Fraction((3 * k + 2 * k * k + 1) + (k * k + 6 * k - 1) * n, 3 * k)
    p = model.p
    return (2 + (2 + 2 * p - 2 * p * p) * n) / (p * (2 - p))


def mean_assembly(model: Model, n: int, source: Source = cross_moment_closed) -> Fraction:
    """E(P_n) = (n-1)M + 2n + 2*E(x0), from cross-moments."""
    n = _require(n)
    return (n - 1) * source(model, _M) + 2 * n + 2 * source(model, _T1)


def mean_perimeter(model: Model, n: int) -> Fraction:
    return _agreed("mean", f"{model.describe()}, n={n}", mean_closed(model, n),
                   mean_assembly(model, n))


def mean_vertical(model: Model, n: int) -> Fraction:
    """E(R_n) where R_n = P_n - 2n is the vertical perimeter."""
    return mean_perimeter(model, n) - 2 * n


def mean_gap_sum(model: Model, n: int) -> Fraction:
    """E(Q_m) = m*M for the m = n-1 gaps."""
    n = _require(n)
    return (n - 1) * cross_moment_closed(model, _M)


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def variance_closed(model: Model, n: int) -> Fraction:
    """Closed rational form of Var(P_n) = Var(R_n)."""
    n = _require(n)
    if model.kind == UNIFORM:
        k = model.k
        return Fraction((-5 * k * k + 4 * k**4 + 1) + (-3 + 3 * k**4) * n, 45 * k * k)
    p = model.p
    num = n * (4 * (1 - p) * (p**4 + 9 * p * p - 4 * p**3 - 10 * p + 5)) + 4 * (
        3 * p * p - 5 * p + 5
    ) * (1 - p) ** 2
    return num / (p * p * (2 - p) ** 2 * (p * p + 3 - 3 * p))


def variance_assembly(model: Model, n: int, source: Source = cross_moment_closed) -> Fraction:
    """Var(R_n) assembled by counting contributing variable tuples.

    Expanding E(R_n**2) = E(x0 + x_m + y1 + ... + y_m)**2, the surviving
    expectations and their multiplicities are:

        y_i**2            -> m T[0,2]              (m = n-1 gaps)
        y_i y_{i+1}       -> 2(m-1) T[0,1,1]
        x0**2, x_m**2     -> 2 T[2]
        x0 y1, x_m y_m    -> 4 T[1,1]
        y_i y_j, |i-j|>=2 -> (m-1)(m-2) M**2       (independent)
        x0 x_m            -> 2 T[1]**2             (independent)
        x0 y_i (i>1), x_m y_j (j<m) -> 4(m-1) T[1] M   (independent)

    The multiplicities describe actual tuples only for n >= 4; as a rational
    expression in n the result coincides with variance_closed for every
    n >= 2 (polynomial identity), which the verification sweep exploits.
    """
    n = _require(n)
    T02 = source(model, _T02)
    T2 = source(model, _T2)
    T011 = source(model, _T011)
    T11 = source(model, _T11)
    M = source(model, _M)
    T1 = source(model, _T1)
    mean_R = (n - 1) * M + 2 * T1
    second = (
        (n - 1) * T02
        + 2 * T2
        + (n - 2) * 2 * T011
        + 4 * T11
        + (n - 2) * (n - 3) * M * M
        + 2 * T1 * T1
        + 4 * T1 * M * (n - 2)
    )
    return second - mean_R * mean_R


def variance_perimeter(model: Model, n: int) -> Fraction:
    return _agreed("variance", f"{model.describe()}, n={n}", variance_closed(model, n),
                   variance_assembly(model, n))


# ---------------------------------------------------------------------------
# third centered moment (dominant term) and limit constants
# ---------------------------------------------------------------------------

def mu3_rate_closed(model: Model) -> Fraction:
    """Closed factored form of mu3*, the per-gap rate of the third centered moment."""
    if model.kind == UNIFORM:
        k = model.k
        return Fraction(
            4 * (k - 2) * (1 + 2 * k) * (2 * k - 1) * (k + 2) * (k - 1) * (k + 1), 945 * k**3
        )
    p = model.p
    num = 8 * (1 - p) * (
        114
        - 570 * p
        + 1332 * p**2
        - 1908 * p**3
        + 1849 * p**4
        - 1263 * p**5
        + 616 * p**6
        - 213 * p**7
        + 52 * p**8
        - 9 * p**9
        + p**10
    )
    return num / ((2 - p) ** 3 * p**3 * (p * p - 2 * p + 2) * (p * p + 3 - 3 * p) ** 2)


def mu3_rate_assembly(model: Model, source: Source = cross_moment_closed) -> Fraction:
    """mu3* from ordinary cross-moments.

    Only adjacent-gap triples contribute at order n; collecting them by the
    three-step substitution gives

        (T[0,3] + 3 T[0,1,2] + 6 T[0,1,1,1] + 3 T[0,2,1])
        + (-9 T[0,2] - 24 T[0,1,1] - 6 M**2) M + 26 M**3.

    The +26 M**3 constant is forced by the centered route and the factored
    closed form (their common value is the ground truth here).
    """
    T03 = source(model, _T03)
    T012 = source(model, _T012)
    T0111 = source(model, _T0111)
    T021 = source(model, _T021)
    T02 = source(model, _T02)
    T011 = source(model, _T011)
    M = source(model, _M)
    return (
        (T03 + 3 * T012 + 6 * T0111 + 3 * T021)
        + (-9 * T02 - 24 * T011 - 6 * M * M) * M
        + 26 * M**3
    )


def mu3_rate_centered_assembly(model: Model, source: Source = cross_moment_closed) -> Fraction:
    """mu3* as the centered combination T~[0,3] + 3T~[0,1,2] + 6T~[0,1,1,1] + 3T~[0,2,1].

    Centered closed forms exist only for the uniform model; pass the oracle
    as ``source`` to evaluate it for geometric models too.
    """
    return (
        source(model, _T03, True)
        + 3 * source(model, _T012, True)
        + 6 * source(model, _T0111, True)
        + 3 * source(model, _T021, True)
    )


def mu3_dominant(model: Model, n: int) -> Fraction:
    """n * mu3*, the order-n term of the third centered moment of P_n."""
    n = _require(n)
    rate = _agreed("mu3", model.describe(), mu3_rate_closed(model), mu3_rate_assembly(model))
    if model.kind == UNIFORM:
        _agreed("mu3 centered", model.describe(), rate, mu3_rate_centered_assembly(model))
    return n * rate


# ---------------------------------------------------------------------------
# limit constants
# ---------------------------------------------------------------------------

def vstar_closed(model: Model) -> Fraction:
    if model.kind == UNIFORM:
        k = model.k
        return Fraction((k - 1) * (k + 1) * (k * k + 1), 15 * k * k)
    p = model.p
    return (
        4 * (1 - p) * (p**4 + 9 * p * p - 4 * p**3 - 10 * p + 5)
        / (p * p * (2 - p) ** 2 * (p * p + 3 - 3 * p))
    )


def vstar_assembly(model: Model, source: Source = cross_moment_closed) -> Fraction:
    """V* = (T[0,2] - M**2) + 2(T[0,1,1] - M**2), the per-gap variance rate."""
    T02 = source(model, _T02)
    T011 = source(model, _T011)
    M = source(model, _M)
    return (T02 - M * M) + 2 * (T011 - M * M)


def vstar_sigma(model: Model) -> tuple[Fraction, float]:
    """(V*, sigma) with sigma = sqrt(V*) as the only floating-point output."""
    vstar = _agreed("V*", model.describe(), vstar_closed(model), vstar_assembly(model))
    return vstar, math.sqrt(vstar.numerator / vstar.denominator)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """Every exact moment of one (model, n) pair, plus the limit constants."""

    model: Model
    n: int
    m: int
    mean_P: Fraction
    mean_R: Fraction
    mean_Q: Fraction
    var_P: Fraction
    mu3_dominant: Fraction
    vstar: Fraction
    sigma: float

    def as_dict(self) -> dict:
        def cell(x: Fraction) -> dict:
            return {"exact": str(x), "decimal": float(x)}

        return {
            "model": self.model.as_dict(),
            "n": self.n,
            "m": self.m,
            "mean_P": cell(self.mean_P),
            "mean_R": cell(self.mean_R),
            "mean_Q": cell(self.mean_Q),
            "var_P": cell(self.var_P),
            "mu3_dominant": cell(self.mu3_dominant),
            "vstar": cell(self.vstar),
            "sigma": self.sigma,
        }


def moment_report(model: Model, n: int) -> MomentReport:
    n = _require(n)
    vstar, sigma = vstar_sigma(model)
    return MomentReport(
        model=model,
        n=n,
        m=n - 1,
        mean_P=mean_perimeter(model, n),
        mean_R=mean_vertical(model, n),
        mean_Q=mean_gap_sum(model, n),
        var_P=variance_perimeter(model, n),
        mu3_dominant=mu3_dominant(model, n),
        vstar=vstar,
        sigma=sigma,
    )
