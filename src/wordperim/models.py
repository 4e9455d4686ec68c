"""Letter models for random words: uniform on [1, k] and geometric(p).

A word is a sequence of i.i.d. positive-integer letters.  Both models expose
exact probability mass functions (as ``fractions.Fraction``) for a single
letter and for the absolute gap ``|x1 - x0|`` between two consecutive
letters, plus a reproducible numpy-based sampler used by the Monte Carlo
engine.  Everything except the sampler is exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

UNIFORM = "uniform"
GEOMETRIC = "geometric"

# Exact series for the geometric model are truncated at the smallest U with
# q**U < TAIL_EPS; the dropped tail is geometrically bounded.
TAIL_EPS = Fraction(1, 10**15)


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
            if not isinstance(self.k, int) or self.k < 1:
                raise ValueError(f"uniform model needs integer k >= 1, got {self.k!r}")
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


def letter_cutoff(model: Model) -> int:
    """Largest letter value kept in truncated exact sums.

    Uniform support is [1, k] so the cutoff is k.  Geometric support is
    infinite; the cutoff is the smallest U with q**U < TAIL_EPS, found
    exactly (no floating point).
    """
    if model.kind == UNIFORM:
        return model.k
    q = model.q
    # float estimate first, then settle the boundary exactly from both sides
    u = max(1, int(math.log(float(TAIL_EPS)) / math.log(float(q))) - 2)
    while q**u >= TAIL_EPS:
        u += 1
    while u > 1 and q ** (u - 1) < TAIL_EPS:
        u -= 1
    return u


def letter_pmf(model: Model, i: int) -> Fraction:
    """P(x = i) for a single letter; zero outside the support."""
    if i < 1:
        raise ValueError(f"letters are positive integers, got {i}")
    if model.kind == UNIFORM:
        return Fraction(1, model.k) if i <= model.k else Fraction(0)
    return model.p * model.q ** (i - 1)


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


def letter_weights(model: Model) -> tuple[list[int], int]:
    """Integer weights (W, D) of the letter law truncated at U = letter_cutoff(model).

    P(x = i) = W[i] / D for 1 <= i <= U, and W[0] = 0, so exact sums over
    letters stay in integers until one final division.  Uniform: W[i] = 1,
    D = k.  Geometric with p = a/b: W[i] = a * (b-a)**(i-1) * b**(U-i) and
    D = b**U.
    """
    U = letter_cutoff(model)
    if model.kind == UNIFORM:
        return [0] + [1] * U, U
    a, b = model.p.numerator, model.p.denominator
    W = [0, a * b ** (U - 1)]
    for _ in range(U - 1):
        W.append(W[-1] * (b - a) // b)  # exact: W[i] carries a factor b**(U-i)
    return W, b**U


def gap_pmf_by_convolution(model: Model, u: int) -> Fraction:
    """Brute-force check of gap_pmf: sum P(x=i) * P(x=j) over |i-j| = u.

    Exact for uniform; for geometric the letter sums are truncated at
    letter_cutoff(model), so the result is the exact value of the truncated
    double sum (short of the true value by a geometrically small tail).
    """
    if u < 0:
        raise ValueError(f"gap values are nonnegative, got {u}")
    W, D = letter_weights(model)
    total = sum(W[i] * W[i + u] for i in range(1, len(W) - u))
    return Fraction(total if u == 0 else 2 * total, D * D)


def sample_letters(model: Model, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. letters as an int64 array.

    Geometric letters come from inversion of the closed-form CDF 1 - q**i
    (no rejection), so a given uniform-bits stream always yields the same
    letters.
    """
    if model.kind == UNIFORM:
        return rng.integers(1, model.k + 1, size=size, dtype=np.int64)
    return geometric_letters(model, rng.random(size))


def geometric_letters(model: Model, u: np.ndarray) -> np.ndarray:
    """Geometric letters from uniforms ``u`` in [0, 1), by inversion of 1 - q**i."""
    lnq = math.log(float(model.q))
    x = np.ceil(np.log1p(-u) / lnq)
    return np.maximum(x, 1.0).astype(np.int64)


def sample_letter(model: Model, rng: np.random.Generator) -> int:
    """Single-letter convenience wrapper around sample_letters."""
    return int(sample_letters(model, rng, 1)[0])
