"""Identity sweep: every closed form against its independent brute-force route.

Each check pits two computations of the same quantity against each other:
closed-form rational expressions versus the staged exact-sum oracle, assembled
moments versus their closed forms, and the perimeter decomposition versus
literal boundary-edge counting.  Every comparison demands exact rational
equality, for geometric letters too: the oracle sums their whole unbounded
support (see :mod:`wordperim.cross_moments`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cross_moments as xm
from . import moments as mo
from .models import UNIFORM, Model, gap_pmf, gap_pmf_by_convolution
from .polyomino import perimeter_decomposed_batch, perimeter_edge_count_batch

DEFAULT_P_LIST = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))

# exhaustive perimeter cases: (k, n) ranges small enough to enumerate k**n words
EXHAUSTIVE_PERIMETER = tuple(
    [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
)
# words per block of the batched perimeter checks: each occupancy grid stays
# far below 1 MB (64 x 62 x 32 cells for the random check's largest words)
_BLOCK_WORDS = 64


@dataclass
class IdentityCheck:
    name: str
    instances: int = 0
    max_deviation: float = 0.0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check, set by run_verification

    @property
    def passed(self) -> bool:
        return not self.failures

    def exact(self, lhs: Fraction, rhs: Fraction, label: str) -> None:
        self.instances += 1
        if lhs != rhs:
            dev = abs(float(lhs - rhs))
            self.max_deviation = max(self.max_deviation, dev)
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {lhs} != {rhs}")


def _uniform_models(k_max: int):
    return [Model.uniform(k) for k in range(1, k_max + 1)]


def _geometric_models(p_list):
    return [Model.geometric(p) for p in p_list]


def check_gap_pmf(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("gap pmf closed form vs letter-pair convolution")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        uniform = m.kind == UNIFORM
        for u in range(0, m.k + 1 if uniform else 21):
            chk.exact(gap_pmf(m, u), gap_pmf_by_convolution(m, u), f"{m.describe()} u={u}")
        if uniform:
            total = sum(gap_pmf(m, u) for u in range(m.k))
        else:  # f(u) = f(1) * q**(u-1) for u >= 1: a geometric series
            total = gap_pmf(m, 0) + gap_pmf(m, 1) / m.p
        chk.exact(total, Fraction(1), f"{m.describe()} sum over support")
    return chk


def _check_closed_vs_oracle(name: str, models) -> IdentityCheck:
    chk = IdentityCheck(name)
    for m in models:
        for centered in (False, True):
            for idx in xm.supported_closed_indices(m, centered):
                chk.exact(
                    xm.cross_moment_closed(m, idx, centered),
                    xm.cross_moment_oracle(m, idx, centered),
                    f"{m.describe()} {'centered ' if centered else ''}T{tuple(idx)}",
                )
    return chk


def check_cross_moments_uniform(k_max: int) -> IdentityCheck:
    return _check_closed_vs_oracle(
        "cross-moment closed forms vs oracle (uniform)", _uniform_models(k_max))


def check_cross_moments_geometric(p_list) -> IdentityCheck:
    return _check_closed_vs_oracle(
        "cross-moment closed forms vs oracle (geometric)", _geometric_models(p_list))


def check_reversibility(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("gap-pair reversibility T[0,1,2] == T[0,2,1] (oracle)")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        chk.exact(xm.cross_moment_oracle(m, xm.MomentIndex(0, 1, 2, 0)),
                  xm.cross_moment_oracle(m, xm.MomentIndex(0, 2, 1, 0)), m.describe())
    return chk


def check_centering(k_max: int) -> IdentityCheck:
    chk = IdentityCheck("centering identities T~ == T - M**2 (oracle, uniform)")
    i02 = xm.MomentIndex(0, 2, 0, 0)
    i011 = xm.MomentIndex(0, 1, 1, 0)
    iM = xm.MomentIndex(0, 1, 0, 0)
    for m in _uniform_models(k_max):
        M = xm.cross_moment_oracle(m, iM)
        for idx in (i02, i011):
            chk.exact(
                xm.cross_moment_oracle(m, idx, centered=True),
                xm.cross_moment_oracle(m, idx) - M * M,
                f"{m.describe()} T{tuple(idx)}",
            )
    return chk


def check_independence(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("independent gaps E(y1 y3) == M**2 (oracle, middle marginalized)")
    idx = xm.MomentIndex(0, 1, 0, 1)
    iM = xm.MomentIndex(0, 1, 0, 0)
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        M = xm.cross_moment_oracle(m, iM)
        chk.exact(xm.cross_moment_oracle(m, idx), M * M, m.describe())
    return chk


def check_mean(k_max: int, p_list, n_max: int) -> IdentityCheck:
    chk = IdentityCheck("mean assembly (oracle cross-moments) vs closed form")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        for n in range(2, n_max + 1):
            chk.exact(
                mo.mean_assembly(m, n, source=xm.cross_moment_oracle),
                mo.mean_closed(m, n),
                f"{m.describe()} n={n}",
            )
    return chk


def check_variance(k_max: int, p_list, n_max: int) -> IdentityCheck:
    chk = IdentityCheck("variance tuple-count assembly (oracle) vs closed form")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        for n in range(4, n_max + 1):  # multiplicities describe actual tuples from n=4 up
            chk.exact(
                mo.variance_assembly(m, n, source=xm.cross_moment_oracle),
                mo.variance_closed(m, n),
                f"{m.describe()} n={n}",
            )
    return chk


def check_mu3(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("mu3* routes: uncentered combination, centered combination, closed")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        closed = mo.mu3_rate_closed(m)
        chk.exact(mo.mu3_rate_assembly(m, source=xm.cross_moment_oracle), closed,
                  f"{m.describe()} uncentered route")
        chk.exact(mo.mu3_rate_centered_assembly(m, source=xm.cross_moment_oracle), closed,
                  f"{m.describe()} centered route")
    return chk


def check_vstar(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("V* routes: (T02 - M**2) + 2(T011 - M**2) vs closed form")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        chk.exact(mo.vstar_assembly(m, source=xm.cross_moment_oracle),
                  mo.vstar_closed(m), m.describe())
        # V* is also the centered combination T~[0,2] + 2 T~[0,1,1]
        centered = xm.cross_moment_oracle(m, (0, 2, 0, 0), centered=True) + 2 * xm.cross_moment_oracle(
            m, (0, 1, 1, 0), centered=True
        )
        chk.exact(centered, mo.vstar_closed(m), f"{m.describe()} centered combination")
    return chk


def check_mean_decomposition(k_max: int, p_list, n_max: int) -> IdentityCheck:
    chk = IdentityCheck("mean decomposition mean_P - mean_R == 2n")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        for n in (2, 3, n_max):
            chk.exact(
                mo.mean_perimeter(m, n) - mo.mean_vertical(m, n), Fraction(2 * n),
                f"{m.describe()} n={n}",
            )
    return chk


def _compare_perimeter_routes(chk: IdentityCheck, words: np.ndarray) -> None:
    """Check P == edge count == Q + x0 + x_last + 2n on every row of ``words``.

    ``words`` holds one zero-padded word per row; both kernels run on blocks
    of _BLOCK_WORDS rows, which keeps each occupancy grid small.
    """
    for start in range(0, words.shape[0], _BLOCK_WORDS):
        block = words[start : start + _BLOCK_WORDS]
        b = perimeter_decomposed_batch(block)
        edges = perimeter_edge_count_batch(block)
        n = np.count_nonzero(block, axis=1)
        last = block[np.arange(block.shape[0]), n - 1]
        bad = (b.P != edges) | (b.P != b.Q + block[:, 0] + last + 2 * n)
        chk.instances += block.shape[0]
        for row in np.flatnonzero(bad)[: 5 - len(chk.failures)]:
            word = tuple(int(x) for x in block[row, : n[row]])
            chk.failures.append(f"word {word}: P={b.P[row]} edges={edges[row]}")


def check_perimeter_exhaustive() -> IdentityCheck:
    chk = IdentityCheck("perimeter identity, exhaustive small words")
    for k, n in EXHAUSTIVE_PERIMETER:
        # all k**n words over [1,k], one per row, in lexicographic order
        words = np.indices((k,) * n).reshape(n, -1).T + 1
        _compare_perimeter_routes(chk, words)
    return chk


def check_perimeter_random(count: int, seed: int) -> IdentityCheck:
    """``count`` words with n in [2,60], k in [2,30] and letters uniform on [1,k]."""
    chk = IdentityCheck("perimeter identity, randomized larger words")
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 61, size=count)
    alphabets = rng.integers(2, 31, size=count)
    for start in range(0, count, _BLOCK_WORDS):
        n = lengths[start : start + _BLOCK_WORDS]
        k = alphabets[start : start + _BLOCK_WORDS]
        words = rng.integers(1, k[:, None] + 1, size=(n.size, int(n.max())))
        words[np.arange(words.shape[1]) >= n[:, None]] = 0
        _compare_perimeter_routes(chk, words)
    return chk


def run_verification(
    k_max: int = 12,
    p_list=DEFAULT_P_LIST,
    n_max: int = 40,
    random_words: int = 10000,
    seed: int = 0,
) -> list[IdentityCheck]:
    """Run every check in report order; each records its wall time in ``seconds``."""
    p_list = tuple(Fraction(p) for p in p_list)
    steps = [
        (check_gap_pmf, (k_max, p_list)),
        (check_cross_moments_uniform, (k_max,)),
        (check_cross_moments_geometric, (p_list,)),
        (check_reversibility, (k_max, p_list)),
        (check_centering, (k_max,)),
        (check_independence, (k_max, p_list)),
        (check_mean, (k_max, p_list, n_max)),
        (check_variance, (k_max, p_list, n_max)),
        (check_mu3, (k_max, p_list)),
        (check_vstar, (k_max, p_list)),
        (check_mean_decomposition, (k_max, p_list, n_max)),
        (check_perimeter_exhaustive, ()),
        (check_perimeter_random, (random_words, seed)),
    ]
    checks = []
    for check, args in steps:
        start = time.perf_counter()
        chk = check(*args)
        chk.seconds = time.perf_counter() - start
        checks.append(chk)
    return checks


def format_report(checks: list[IdentityCheck]) -> str:
    lines = []
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<{width}}  instances={c.instances:<6d} max_dev={c.max_deviation:.3e}"
        )
        for f in c.failures:
            lines.append(f"      offending: {f}")
    total = sum(c.instances for c in checks)
    bad = [c for c in checks if not c.passed]
    lines.append(
        f"{len(checks) - len(bad)}/{len(checks)} identities pass over {total} instances"
        + ("" if not bad else f"; FAILED: {', '.join(c.name for c in bad)}")
    )
    return "\n".join(lines)
