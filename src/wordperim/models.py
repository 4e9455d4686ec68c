"""Letter models for random words: uniform on [1, k] and geometric(p).

A word is a sequence of i.i.d. positive-integer letters.  Both models expose
exact probability mass functions (as ``fractions.Fraction``) for a single
letter and for the absolute gap ``|x1 - x0|`` between two consecutive
letters, plus a reproducible numpy-based sampler used by the Monte Carlo
engine.  Everything except the sampler is exact rational arithmetic.  Both
letter laws are P(x = v) = c * z**v on [1, U] (:func:`letter_law`), and
:func:`antidifference` sums z**w * w**n in closed form, also over the
unbounded geometric support.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

UNIFORM = "uniform"
GEOMETRIC = "geometric"


def plain_int(value) -> int | None:
    """``value`` as a plain int if it is a Python or numpy integer (not a bool), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class Model:
    """Letter distribution: ``uniform`` on [1, k] or ``geometric(p)`` on {1, 2, ...}.

    Build instances through :meth:`uniform` or :meth:`geometric`; the
    constructor validates the parameters either way.
    """

    kind: str
    k: int = 0
    p: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind == UNIFORM:
            k = plain_int(self.k)
            if k is None or k < 1:
                raise ValueError(f"uniform model needs integer k >= 1, got {self.k!r}")
            object.__setattr__(self, "k", k)  # a numpy integer is stored as an int
        elif self.kind == GEOMETRIC:
            if not isinstance(self.p, Fraction) or not 0 < self.p < 1:
                raise ValueError(f"geometric model needs rational 0 < p < 1, got {self.p!r}")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @staticmethod
    def uniform(k: int) -> "Model":
        return Model(UNIFORM, k=k)

    @staticmethod
    def geometric(p) -> "Model":
        return Model(GEOMETRIC, p=Fraction(p))

    @property
    def q(self) -> Fraction:
        """Failure probability 1 - p (geometric only)."""
        return 1 - self.p

    def describe(self) -> str:
        if self.kind == UNIFORM:
            return f"uniform[1,{self.k}]"
        return f"geometric({self.p})"

    def as_dict(self) -> dict:
        if self.kind == UNIFORM:
            return {"kind": UNIFORM, "k": self.k}
        return {"kind": GEOMETRIC, "p": str(self.p)}

    @staticmethod
    def from_dict(d: dict) -> "Model":
        if d["kind"] == UNIFORM:
            return Model.uniform(int(d["k"]))
        return Model.geometric(Fraction(d["p"]))


def gap_pmf(model: Model, u: int) -> Fraction:
    """P(|x1 - x0| = u) for two i.i.d. letters, exact closed form.

    Uniform:    f(0) = 1/k,       f(u) = 2(k-u)/k**2   for 1 <= u <= k-1.
    Geometric:  f(0) = p/(2-p),   f(u) = 2p(1-p)**u/(2-p).
    """
    if u < 0:
        raise ValueError(f"gap values are nonnegative, got {u}")
    if model.kind == UNIFORM:
        k = model.k
        if u == 0:
            return Fraction(1, k)
        if u <= k - 1:
            return Fraction(2 * (k - u), k * k)
        return Fraction(0)
    p = model.p
    if u == 0:
        return p / (2 - p)
    return 2 * p * model.q**u / (2 - p)


def letter_law(model: Model) -> tuple[Fraction, Fraction, int | None]:
    """(c, z, U) with P(x = v) = c * z**v for 1 <= v <= U; U is None for no bound.

    Uniform: c = 1/k, z = 1, U = k.  Geometric: c = p/q, z = q, U = None.
    """
    if model.kind == UNIFORM:
        return Fraction(1, model.k), Fraction(1), model.k
    return model.p / model.q, model.q, None


def letter_pmf(model: Model, i: int) -> Fraction:
    """P(x = i) for a single letter; zero outside the support."""
    if i < 1:
        raise ValueError(f"letters are positive integers, got {i}")
    c, z, U = letter_law(model)
    return c * z**i if U is None or i <= U else Fraction(0)


def antidifference(z: Fraction, n: int) -> tuple[Fraction, ...]:
    """Coefficients r[0], r[1], ... of the polynomial R with z*R(v+1) - R(v) = v**n.

    Telescoping then gives sum_{1 <= w < v} z**w * w**n = z**v * R(v) - z * R(1).
    R has degree n for z != 1; for z = 1 it is Faulhaber's polynomial of
    degree n + 1, taken with R(0) = 0.  The coefficient of v**m on the left
    is (z - 1)*r[m] + z * sum_{i > m} C(i, m)*r[i]; matching it for m = n
    down to 0 fixes r[m] (r[m + 1] when z = 1) from the ones above.
    """
    lead = int(z == 1)
    r = [Fraction(0)] * (n + 1 + lead)
    for m in range(n, -1, -1):
        above = z * sum(math.comb(i, m) * r[i] for i in range(m + 1 + lead, len(r)))
        r[m + lead] = (Fraction(int(m == n)) - above) / (z * math.comb(m + lead, m) - 1 + lead)
    return tuple(r)


def power_sum(z: Fraction, n: int, U: int | None) -> Fraction:
    """sum_{w=1..U} z**w * w**n exactly; U = None sums the whole series (needs |z| < 1).

    The z**(U+1) * R(U+1) term of :func:`antidifference` vanishes as U grows
    when |z| < 1, so the unbounded sum is -z * R(1), with R(1) = sum(R).
    """
    R = antidifference(z, n)
    top = 0 if U is None else z ** (U + 1) * sum(r * (U + 1) ** i for i, r in enumerate(R))
    return top - z * sum(R)


def gap_pmf_by_convolution(model: Model, u: int) -> Fraction:
    """Check of gap_pmf by the letter-pair sum f(u) = (2 - [u = 0]) * sum_i P(i) * P(i + u).

    With P(i) = c * z**i on [1, U] the pair sum is c**2 * z**u times the power
    sum of z**2 over i = 1 .. U - u: exact for both models, also over the
    unbounded geometric support.
    """
    if u < 0:
        raise ValueError(f"gap values are nonnegative, got {u}")
    c, z, U = letter_law(model)
    pairs = c * c * z**u * power_sum(z * z, 0, None if U is None else max(U - u, 0))
    return pairs if u == 0 else 2 * pairs


def sample_letters(model: Model, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. letters as an int64 array.

    Geometric letters come from inversion of the closed-form CDF 1 - q**i
    (no rejection), so a given uniform-bits stream always yields the same
    letters.
    """
    if model.kind == UNIFORM:
        return rng.integers(1, model.k + 1, size=size, dtype=np.int64)
    return geometric_letters(model, rng.random(size))


def geometric_letters(model: Model, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Geometric letters from uniforms ``u`` in [0, 1), by inversion of 1 - q**i.

    With ``out``, an int64 array of u's shape, the letters are written there
    and ``u`` serves as scratch space (it is overwritten), so that a caller
    drawing block after block allocates nothing.  Raises ``ValueError`` when
    p is so small that 1 - p rounds to 1.0 in float64 and the inversion
    would divide by log(1.0) = 0.
    """
    q = float(model.q)
    if q == 1.0:
        raise ValueError(
            f"geometric p = {model.p} is too small to sample: 1 - p rounds to 1.0 in float64"
        )
    lnq = math.log(q)
    x = np.negative(u, out=None if out is None else u)
    np.log1p(x, out=x)
    np.divide(x, lnq, out=x)
    np.ceil(x, out=x)
    np.maximum(x, 1.0, out=x)
    if out is None:
        return x.astype(np.int64)
    out[...] = x
    return out
