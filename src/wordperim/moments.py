"""Exact first three moments of the perimeter P_n of a random word.

For a word of n letters with m = n - 1 gaps, the perimeter decomposes as
P_n = Q_m + x0 + x_m + 2n where Q_m is the gap sum, so every moment of P_n
is assembled from the cross-moments of :mod:`wordperim.cross_moments`.
Each public quantity is computed twice -- by the cross-moment assembly and
by a closed-form rational function of the model parameter -- and the two
routes are asserted equal (exactly; everything here is Fraction arithmetic).

E(P_n) and Var(P_n) are polynomials of degree 1 in n: each route gives them
as a :class:`Form`, exact coefficients in n built once per model, and a value
at one n is an evaluation.  The coefficient of n in Var(P_n) is V*, the
per-gap variance rate; sigma = sqrt(V*) normalizes the limit theorems.  Of
the third centered moment only its order-n term n * mu3* is tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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


def _require(n: int) -> int:
    """n as a plain int (numpy integers pass; bool does not), checked to be >= 2."""
    value = plain_int(n)
    if value is None or value < 2:
        raise ValueError(f"word length n must be an integer >= 2, got {n!r}")
    return value


@dataclass(frozen=True)
class Form:
    """A polynomial in the word length n: exact coefficients, lowest power first.

    Forms add, subtract and multiply with forms and rationals and keep every
    coefficient, zero or not; calling a form evaluates it at one n.
    """

    coefficients: tuple  # coefficients[1] is the slope, the coefficient of n

    def __call__(self, n: int) -> Fraction:
        # Horner's rule on integer numerators over one common denominator
        den = math.lcm(*(c.denominator for c in self.coefficients))
        value = 0
        for c in reversed(self.coefficients):
            value = value * n + c.numerator * (den // c.denominator)
        return Fraction(value, den)

    def __add__(self, other) -> Form:
        pairs = zip_longest(self.coefficients, _coefficients(other), fillvalue=0)
        return Form(tuple(a + b for a, b in pairs))

    def __sub__(self, other) -> Form:
        return self + -1 * other

    def __mul__(self, other) -> Form:
        out = [0] * (len(self.coefficients) + len(_coefficients(other)) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(_coefficients(other)):
                out[i + j] += a * b
        return Form(tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__


def _coefficients(x) -> tuple:
    return x.coefficients if isinstance(x, Form) else (x,)


_N = Form((0, 1))  # the word length n
_GAPS = _N - 1  # m = n - 1


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------

def mean_closed(model: Model) -> Form:
    """Closed rational form of E(P_n)."""
    if model.kind == UNIFORM:
        k = model.k
        return Form((Fraction(3 * k + 2 * k * k + 1, 3 * k), Fraction(k * k + 6 * k - 1, 3 * k)))
    p = model.p
    return Form((2 / (p * (2 - p)), (2 + 2 * p - 2 * p * p) / (p * (2 - p))))


def mean_assembly(model: Model, source: Source = cross_moment_closed) -> Form:
    """E(P_n) = (n-1)M + 2n + 2*E(x0), from cross-moments."""
    return _GAPS * source(model, _M) + 2 * _N + 2 * source(model, _T1)


def mean_perimeter(model: Model, n: int) -> Fraction:
    n = _require(n)
    return _agreed("mean", f"{model.describe()}, n={n}", mean_closed(model)(n),
                   mean_assembly(model)(n))


def mean_vertical(model: Model, n: int) -> Fraction:
    """E(R_n) = E(Q_m) + E(x0) + E(x_m): R_n = P_n - 2n is the vertical perimeter."""
    return mean_gap_sum(model, n) + 2 * cross_moment_closed(model, _T1)


def mean_gap_sum(model: Model, n: int) -> Fraction:
    """E(Q_m) = m*M for the m = n-1 gaps."""
    n = _require(n)
    return (n - 1) * cross_moment_closed(model, _M)


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def variance_closed(model: Model) -> Form:
    """Closed rational form of Var(P_n) = Var(R_n); its slope is V*."""
    if model.kind == UNIFORM:
        k = model.k
        return Form((Fraction(-5 * k * k + 4 * k**4 + 1, 45 * k * k),
                     Fraction(-3 + 3 * k**4, 45 * k * k)))
    p = model.p
    den = p * p * (2 - p) ** 2 * (p * p + 3 - 3 * p)
    return Form((4 * (3 * p * p - 5 * p + 5) * (1 - p) ** 2 / den,
                 4 * (1 - p) * (p**4 + 9 * p * p - 4 * p**3 - 10 * p + 5) / den))


def variance_assembly(model: Model, source: Source = cross_moment_closed) -> Form:
    """Var(R_n) assembled by counting contributing variable tuples.

    Expanding E(R_n**2) = E(x0 + x_m + y1 + ... + y_m)**2 over the m = n-1
    gaps, the surviving expectations and their multiplicities in n are:

        y_i**2            -> m T[0,2]
        y_i y_{i+1}       -> 2(m-1) T[0,1,1]
        x0**2, x_m**2     -> 2 T[2]
        x0 y1, x_m y_m    -> 4 T[1,1]
        y_i y_j, |i-j|>=2 -> (m-1)(m-2) M**2       (independent)
        x0 x_m            -> 2 T[1]**2             (independent)
        x0 y_i (i>1), x_m y_j (j<m) -> 4(m-1) T[1] M   (independent)

    E(R_n)**2 = (m M + 2 T[1])**2 is subtracted as a form too, so the n**2
    coefficient M**2 - M**2 is computed, not dropped.  The multiplicities
    count actual tuples for n >= 4; as a polynomial the form equals
    variance_closed, so it holds for every n >= 2.
    """
    T02 = source(model, _T02)
    T2 = source(model, _T2)
    T011 = source(model, _T011)
    T11 = source(model, _T11)
    M = source(model, _M)
    T1 = source(model, _T1)
    m = _GAPS
    mean_R = m * M + 2 * T1
    second = (m * T02 + 2 * (m - 1) * T011 + 2 * T2 + 4 * T11
              + (m - 1) * (m - 2) * M * M + 2 * T1 * T1 + 4 * (m - 1) * T1 * M)
    return second - mean_R * mean_R


def variance_perimeter(model: Model, n: int) -> Fraction:
    n = _require(n)
    return _agreed("variance", f"{model.describe()}, n={n}", variance_closed(model)(n),
                   variance_assembly(model)(n))


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


def vstar_sigma(model: Model) -> tuple[Fraction, float]:
    """(V*, sigma) with sigma = sqrt(V*) as the only floating-point output."""
    vstar = _agreed("V*", model.describe(), variance_closed(model).coefficients[1],
                    variance_assembly(model).coefficients[1])
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

    EXACT_FIELDS = ("mean_P", "mean_R", "mean_Q", "var_P", "mu3_dominant", "vstar")

    def as_dict(self) -> dict:
        cells = {f: {"exact": str(getattr(self, f)), "decimal": float(getattr(self, f))}
                 for f in self.EXACT_FIELDS}
        return {"model": self.model.as_dict(), "n": self.n, "m": self.m, **cells,
                "sigma": self.sigma}


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
