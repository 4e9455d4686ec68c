"""Exact first three moments of the perimeter P_n of a random word.

For a word of n letters with m = n - 1 gaps, the perimeter decomposes as
P_n = Q_m + x0 + x_m + 2n where Q_m is the gap sum, so every moment of P_n
is assembled from the cross-moments of :mod:`wordperim.cross_moments`.
Each public quantity is computed twice -- by the cross-moment assembly and
by a closed-form rational function of the model parameter -- and the two
routes are asserted equal (exactly; everything here is Fraction arithmetic).

Every assembly rests on one derivation, :func:`gap_sum_cumulant`.  The gaps
are stationary and 1-dependent, so a joint cumulant of gaps vanishes unless
their indices form an interval (Leonov & Shiryaev 1959; Janson 1988), and
kappa_r(Q_m) = c_r + m * kappa_r* exactly for m >= r - 1.  Its values at
m = r - 1 and r, integer combinations of cross-moments, are derived once per
order from E(Q_m**j) by the multinomial theorem and the moment-cumulant
recursion; V* and mu3* are the slopes kappa_2* and kappa_3*.

E(P_n) and Var(P_n) are polynomials of degree 1 in n: each route gives them
as a :class:`Form`, exact coefficients in n built once per model, and a value
at one n is an evaluation.  The coefficient of n in Var(P_n) is V*, the
per-gap variance rate; sigma = sqrt(V*) normalizes the limit theorems.  Of
the third centered moment only its order-n term n * mu3* is tabulated.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product, zip_longest
from typing import Callable, NamedTuple

from .cross_moments import MomentIndex, cross_moment_closed
from .models import UNIFORM, Model, exact_text, plain_int

# cross-moment source signature: (model, index, centered) -> Fraction
Source = Callable[..., Fraction]

_T1 = MomentIndex(1, 0, 0, 0)
_T2 = MomentIndex(2, 0, 0, 0)
_T11 = MomentIndex(1, 1, 0, 0)
_M = MomentIndex(0, 1, 0, 0)


class RouteDisagreement(AssertionError):
    """Assembly route and closed form disagreed; one of them is wrong."""


def _agreed(name: str, where: str, value: Fraction, other: Fraction) -> Fraction:
    """``value``, once a second route gave ``other`` equal to it; else RouteDisagreement."""
    if value != other:
        raise RouteDisagreement(f"{name} routes disagree at {where}: "
                                f"{exact_text(value)} vs {exact_text(other)}")
    return value


def _require(n: int) -> int:
    """n as a plain int (numpy integers pass; bool does not), checked to be >= 2."""
    value = plain_int(n)
    if value is None or value < 2:
        raise ValueError(f"word length n must be an integer >= 2, got {n!r}")
    return value


class Form(NamedTuple):
    """A polynomial in the word length n: exact coefficients, lowest power first.

    Forms add and subtract forms and rationals, multiply by a rational, and
    keep every coefficient, zero or not; calling a form evaluates it at one n.
    A form is a one-field tuple, but its ``+`` and ``*`` are the polynomial's.
    """

    coefficients: tuple  # coefficients[1] is the slope, the coefficient of n

    def __call__(self, n: int) -> Fraction:
        return sum((c * n**i for i, c in enumerate(self.coefficients)), Fraction(0))

    def __add__(self, other) -> Form:
        theirs = other.coefficients if isinstance(other, Form) else (other,)
        return Form(tuple(a + b for a, b in zip_longest(self.coefficients, theirs, fillvalue=0)))

    def __sub__(self, other) -> Form:
        return self + -1 * other

    def __mul__(self, number) -> Form:
        if isinstance(number, Form):
            return NotImplemented
        return Form(tuple(number * c for c in self.coefficients))

    __radd__ = __add__
    __rmul__ = __mul__


_N = Form((0, 1))  # the word length n


# ---------------------------------------------------------------------------
# cumulants of the gap sum
# ---------------------------------------------------------------------------

def gap_sum_cumulant(model: Model, r: int, source: Source = cross_moment_closed,
                     centered: bool = False) -> Form:
    """kappa_r(Q_{n-1}), r = 1, 2, 3, as a form in n, exact for n >= r; its slope is kappa_r*.

    ``centered`` reads each gap as y - M: kappa_1 becomes 0, the others do not change.
    """
    if plain_int(r) not in (1, 2, 3):
        raise ValueError(f"cumulant order r must be 1, 2 or 3, got {r!r}")
    return Form(_evaluate(_cumulant_terms(r, centered), model, source, centered))


def _evaluate(parts: tuple, model: Model, source: Source, centered: bool) -> tuple:
    """The value of each {monomial: integer} part, each cross-moment read once from ``source``."""
    values = {i: source(model, i, centered) for i in {i for p in parts for mono in p for i in mono}}
    return tuple(sum(c * math.prod(map(values.get, mono)) for mono, c in p.items()) for p in parts)


@lru_cache(maxsize=6)  # one entry per (r, centered)
def _cumulant_terms(r: int, centered: bool) -> tuple[dict, dict]:
    """The constant and slope of :func:`gap_sum_cumulant` as {monomial: integer}.

    A monomial is a sorted tuple of MomentIndex, the product of their
    cross-moments.  E(Q_m**j) is expanded by the multinomial theorem; each
    term splits at its zero exponents into runs of consecutive gaps, which
    share no letter and so are independent, and a run is read as T[0, run]
    by stationarity.  A centered lone gap has mean 0, so its terms drop.  The
    recursion kappa_j = mu_j - sum_i C(j-1, i-1) kappa_i mu_(j-i) gives a and
    b, kappa_r(Q_m) at m = r - 1 and r; its line in n is a + (n - r)(b - a).
    Callers read the result and never mutate it.
    """
    ends = []
    for m in (r - 1, r):
        mu = [Counter() for _ in range(r)]  # mu[j - 1] is E(Q_m**j)
        for exps in product(range(r + 1), repeat=m):
            j = sum(exps)
            runs = [tuple(run) for nonzero, run in groupby(exps, key=bool) if nonzero]
            if 0 < j <= r and not (centered and (1,) in runs):
                mono = tuple(sorted(MomentIndex(0, *run, *[0] * (3 - len(run))) for run in runs))
                mu[j - 1][mono] += math.factorial(j) // math.prod(map(math.factorial, exps))
        kappa = []
        for j in range(1, r + 1):
            kappa.append(Counter(mu[j - 1]))
            for i in range(1, j):
                for (x, cx), (y, cy) in product(kappa[i - 1].items(), mu[j - i - 1].items()):
                    kappa[-1][tuple(sorted(x + y))] -= math.comb(j - 1, i - 1) * cx * cy
        ends.append(kappa[-1])
    a, b = ends
    return tuple({mono: c for mono in a.keys() | b.keys() if (c := u * a[mono] + v * b[mono])}
                 for u, v in ((r + 1, -r), (-1, 1)))


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
    """E(P_n) = E(Q_m) + 2n + 2*E(x0), from cross-moments; E(Q_m) = (n-1)M."""
    return gap_sum_cumulant(model, 1, source) + 2 * _N + 2 * source(model, _T1)


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
    """Var(R_n) = Var(Q_m) + 2 Var(x0) + 4 Cov(x0, y1), from cross-moments.

    R_n = Q_m + x0 + x_m: x0 and x_m are independent for n >= 2, x0 meets
    Q_m only through y1, and x_m through y_m, which reversal maps to x0, y1.
    """
    T1, M = source(model, _T1), source(model, _M)
    return (gap_sum_cumulant(model, 2, source) + 2 * (source(model, _T2) - T1 * T1)
            + 4 * (source(model, _T11) - T1 * M))


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


def mu3_rate_assembly(model: Model, source: Source = cross_moment_closed,
                      centered: bool = False) -> Fraction:
    """mu3* = kappa_3*, the slope alone of ``gap_sum_cumulant(model, 3, source, centered)``.

    Centered closed forms exist only for the uniform model; the oracle has both.
    """
    return _evaluate(_cumulant_terms(3, centered)[1:], model, source, centered)[0]


def mu3_dominant(model: Model, n: int) -> Fraction:
    """n * mu3*, the order-n term of the third centered moment of P_n."""
    n = _require(n)
    rate = _agreed("mu3", model.describe(), mu3_rate_closed(model), mu3_rate_assembly(model))
    if model.kind == UNIFORM:
        _agreed("mu3 centered", model.describe(), rate, mu3_rate_assembly(model, centered=True))
    return n * rate


def vstar_sigma(model: Model) -> tuple[Fraction, float]:
    """(V*, sigma) with sigma = sqrt(V*) as the only floating-point output."""
    vstar = _agreed("V*", model.describe(), variance_closed(model).coefficients[1],
                    variance_assembly(model).coefficients[1])
    return vstar, math.sqrt(vstar.numerator / vstar.denominator)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

class MomentReport(NamedTuple):
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
