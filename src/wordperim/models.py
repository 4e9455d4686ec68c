"""Letter models for random words: uniform on [1, k] and geometric(p).

A word is a sequence of i.i.d. positive-integer letters.  Both models expose
exact probability mass functions (as ``fractions.Fraction``) for a single
letter and for the absolute gap ``|x1 - x0|`` between two consecutive
letters, plus a reproducible sampler on numpy's ``Generator``
(:func:`sample_letters`): the reference that the Monte Carlo engine, which
reads raw Philox words, is tested against.  Everything except the sampler is
exact rational arithmetic, and only the sampler imports numpy, so the exact
core loads without it.  Both letter laws are P(x = v) = c * z**v on
[1, U] (:func:`letter_law`); :func:`integer_antidifference` gives the oracle
its closed-form sums of z**w * w**n, also over the unbounded geometric support.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

UNIFORM = "uniform"
GEOMETRIC = "geometric"
# Entries kept by each exact-arithmetic cache: the oracle's values and stage
# chains (cross_moments) and the antidifferences below.  A default verify holds
# 289 values, 510 chains and 53 antidifferences, so nothing is evicted there;
# the bound keeps a caller that sweeps many models at flat memory.
CACHE_ENTRIES = 1024


def plain_int(value) -> int | None:
    """``value`` as a plain int if it is a Python or numpy integer (not a bool), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def exact_text(value: Fraction) -> str:
    """``str(value)``, a part past Python's int-to-str limit (str() raises) as ``<N digits>``."""
    parts = []
    for n in (value.numerator, value.denominator)[: 1 + (value.denominator != 1)]:
        try:
            parts.append(str(n))
        except ValueError:  # d or d + 1 digits, d from the bit length and log10(2)
            d = int((abs(n).bit_length() - 1) * 0.30102999566398120) + 1
            parts.append("-" * (n < 0) + f"<{d + (abs(n) >= 10**d)} digits>")
    return "/".join(parts)


class _ModelFields(NamedTuple):
    kind: str
    k: int = 0
    p: Fraction = Fraction(0)


class Model(_ModelFields):
    """Letter distribution: ``uniform`` on [1, k] or ``geometric(p)`` on {1, 2, ...}.

    Build instances through :meth:`uniform` or :meth:`geometric`; the
    constructor validates the parameters either way, and so do pickling and
    ``_replace``.  A model is a tuple of its fields: it compares and hashes
    as ``(kind, k, p)`` and stores nothing else.
    """

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 0, p: Fraction = Fraction(0)):
        if kind == UNIFORM:
            value = plain_int(k)
            if value is None or value < 1:
                raise ValueError(f"uniform model needs integer k >= 1, got {k!r}")
            k = value  # a numpy integer is stored as an int
        elif kind == GEOMETRIC:
            if not isinstance(p, Fraction) or not 0 < p < 1:
                raise ValueError(f"geometric model needs rational 0 < p < 1, got {p}")
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        return super().__new__(cls, kind, k, p)

    @classmethod
    def _make(cls, fields):
        """A model of ``fields``, validated: ``_replace`` builds its result here."""
        return cls(*fields)

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


def _gap_value(u) -> int:
    """``u`` as a plain int (numpy integers pass; bool does not); ValueError unless it is >= 0."""
    value = plain_int(u)
    if value is None:
        raise ValueError(f"gap values are integers, got {u!r}")
    if value < 0:
        raise ValueError(f"gap values are nonnegative, got {value}")
    return value


def gap_pmf(model: Model, u: int) -> Fraction:
    """P(|x1 - x0| = u) for two i.i.d. letters, exact closed form.

    Uniform:    f(0) = 1/k,       f(u) = 2(k-u)/k**2   for 1 <= u <= k-1.
    Geometric:  f(0) = p/(2-p),   f(u) = 2p(1-p)**u/(2-p).
    """
    u = _gap_value(u)
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
    letter = plain_int(i)
    if letter is None or letter < 1:
        raise ValueError(f"letters are positive integers, got {i!r}")
    c, z, U = letter_law(model)
    return c * z**letter if U is None or letter <= U else Fraction(0)


@lru_cache(maxsize=CACHE_ENTRIES)
def integer_antidifference(zn: int, zd: int, n: int) -> tuple[tuple[int, ...], int]:
    """R with z*R(v+1) - R(v) = v**n for z = zn/zd, as (integer coefficients, their denominator).

    Telescoping then gives sum_{1 <= w < v} z**w * w**n = z**v * R(v) - z * R(1).
    R has degree n for z != 1; for z = 1 it is Faulhaber's polynomial of
    degree n + 1, taken with R(0) = 0.  The coefficients are lowest power
    first, r[i] = coefficients[i] / denominator.

    Cached under ints: hashing the Fraction z would cost a modular inverse per
    lookup.  The coefficient of v**m in z*R(v+1) - R(v) is
    (z - 1)*r[m] + z * sum_{i > m} C(i, m)*r[i]; matching it to v**n for
    m = n down to 0 fixes r[m] (r[m + 1] when z = 1) from the ones above.
    """
    z = Fraction(zn, zd)
    lead = int(z == 1)
    r = [Fraction(0)] * (n + 1 + lead)
    for m in range(n, -1, -1):
        above = z * sum(math.comb(i, m) * r[i] for i in range(m + 1 + lead, len(r)))
        r[m + lead] = (Fraction(int(m == n)) - above) / (z * math.comb(m + lead, m) - 1 + lead)
    den = math.lcm(*(x.denominator for x in r))
    return tuple(x.numerator * (den // x.denominator) for x in r), den


def gap_pmf_by_convolution(model: Model, u: int) -> Fraction:
    """Check of gap_pmf by the letter-pair sum f(u) = (2 - [u = 0]) * sum_i P(i) * P(i + u).

    With P(i) = c * z**i on [1, U] the pair sum is c**2 * z**u times the sum
    of z**(2i) over i = 1 .. U - u: max(U - u, 0) pairs for uniform (z = 1),
    and z*z / (1 - z*z) over the unbounded geometric support.
    """
    u = _gap_value(u)
    c, z, U = letter_law(model)
    pairs = c * c * z**u * (z * z / (1 - z * z) if U is None else max(U - u, 0))
    return pairs if u == 0 else 2 * pairs


# Geometric p below which the sampler takes ln q as log1p(-p) (see geometric_letters).
_LOG1P_BELOW = Fraction(1, 2**26)


def sample_letters(model: Model, rng, size: int):
    """Draw ``size`` i.i.d. letters as an int64 array from numpy's Generator ``rng``.

    Geometric letters come from inversion of the closed-form CDF 1 - q**i
    (no rejection), so a given uniform-bits stream always yields the same
    letters.
    """
    import numpy as np

    if model.kind == UNIFORM:
        return rng.integers(1, model.k + 1, size=size, dtype=np.int64)
    return geometric_letters(model, rng.random(size))


def geometric_letters(model: Model, u, out=None):
    """Geometric letters from float64 uniforms ``u`` in [0, 1), by inverting 1 - q**i.

    Returns an int64 array.  With ``out``, an int64 array of u's shape, the
    letters are written there and ``u`` serves as scratch space (it is
    overwritten), so that a caller drawing block after block allocates
    nothing.  Raises ``ValueError`` when
    1 - p rounds to 1.0 in float64 (p too small: the inversion would divide
    by log(1.0) = 0) or to 0.0 (p too close to 1: log(0.0) is undefined).

    ln q is ``log(float(q))`` for p >= 2**-26, where every sampled ensemble
    keeps its bytes; below, float(q) keeps too few digits of p (ln q off by
    2.2e-5 relative at p = 1e-12), so ln q is ``log1p(-float(p))``.
    """
    import numpy as np

    q = float(model.q)
    if q in (0.0, 1.0):
        raise ValueError(f"geometric p = {model.p} is too {'small' if q else 'close to 1'} to "
                         f"sample: 1 - p rounds to {q} in float64")
    lnq = math.log1p(-float(model.p)) if model.p < _LOG1P_BELOW else math.log(q)
    x = np.negative(u, out=None if out is None else u)
    np.log1p(x, out=x)
    np.divide(x, lnq, out=x)
    np.ceil(x, out=x)
    np.maximum(x, 1.0, out=x)
    if out is None:
        return x.astype(np.int64)
    out[...] = x
    return out
