"""Identity sweep: every closed form against its independent brute-force route.

Each check pits two computations of the same quantity against each other:
closed-form rational expressions versus the staged exact-sum oracle, assembled
moments versus their closed forms, and the perimeter decomposition versus
literal boundary-edge counting.  Uniform-model comparisons demand exact
rational equality; geometric comparisons allow GEOMETRIC_TOL relative error
(the oracle truncates an infinite support; see the truncation bound in
:mod:`wordperim.cross_moments`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cross_moments as xm
from . import moments as mo
from .models import Model, gap_pmf, gap_pmf_by_convolution, letter_cutoff
from .polyomino import perimeter_decomposed, perimeter_edge_count

GEOMETRIC_TOL = 1e-10
DEFAULT_P_LIST = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))

# exhaustive perimeter cases: (k, n) ranges small enough to enumerate k**n words
EXHAUSTIVE_PERIMETER = tuple(
    [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
)


@dataclass
class IdentityCheck:
    name: str
    instances: int = 0
    max_deviation: float = 0.0
    failures: list[str] = field(default_factory=list)

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

    def close(self, lhs, rhs, label: str, tol: float = GEOMETRIC_TOL) -> None:
        self.instances += 1
        dev = abs(float(lhs) - float(rhs)) / max(1.0, abs(float(rhs)))
        self.max_deviation = max(self.max_deviation, dev)
        if dev > tol:
            if len(self.failures) < 5:
                self.failures.append(f"{label}: relative deviation {dev:.3e} > {tol:.1e}")


def _uniform_models(k_max: int):
    return [Model.uniform(k) for k in range(1, k_max + 1)]


def _geometric_models(p_list):
    return [Model.geometric(p) for p in p_list]


def check_gap_pmf(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("gap pmf closed form vs letter-pair convolution")
    for m in _uniform_models(k_max):
        total = Fraction(0)
        for u in range(0, m.k + 1):
            chk.exact(gap_pmf(m, u), gap_pmf_by_convolution(m, u), f"{m.describe()} u={u}")
            total += gap_pmf(m, u)
        chk.exact(total, Fraction(1), f"{m.describe()} sum over support")
    for m in _geometric_models(p_list):
        cut = letter_cutoff(m)
        for u in range(0, 21):
            chk.close(gap_pmf(m, u), gap_pmf_by_convolution(m, u), f"{m.describe()} u={u}")
        total = sum(gap_pmf(m, u) for u in range(0, cut + 1))
        chk.close(total, Fraction(1), f"{m.describe()} truncated sum", tol=1e-12)
    return chk


def check_cross_moments_uniform(k_max: int) -> IdentityCheck:
    chk = IdentityCheck("cross-moment closed forms vs oracle (uniform)")
    for m in _uniform_models(k_max):
        for idx in xm.supported_closed_indices(m):
            chk.exact(
                xm.cross_moment_closed(m, idx),
                xm.cross_moment_oracle(m, idx),
                f"{m.describe()} T{tuple(idx)}",
            )
        for idx in xm.supported_closed_indices(m, centered=True):
            chk.exact(
                xm.cross_moment_closed(m, idx, centered=True),
                xm.cross_moment_oracle(m, idx, centered=True),
                f"{m.describe()} centered T{tuple(idx)}",
            )
    return chk


def check_cross_moments_geometric(p_list) -> IdentityCheck:
    chk = IdentityCheck("cross-moment closed forms vs truncated oracle (geometric)")
    for m in _geometric_models(p_list):
        for idx in xm.supported_closed_indices(m):
            chk.close(
                xm.cross_moment_oracle(m, idx),
                xm.cross_moment_closed(m, idx),
                f"{m.describe()} T{tuple(idx)}",
            )
    return chk


def check_reversibility(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("gap-pair reversibility T[0,1,2] == T[0,2,1] (oracle)")
    for m in _uniform_models(k_max) + _geometric_models(p_list):
        chk.instances += 1
        if not xm.reversibility_check(m):
            chk.failures.append(f"{m.describe()}: reversibility violated")
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
    for m in _uniform_models(k_max):
        M = xm.cross_moment_oracle(m, iM)
        chk.exact(xm.cross_moment_oracle(m, idx), M * M, m.describe())
    for m in _geometric_models(p_list):
        M = xm.cross_moment_closed(m, iM)
        chk.close(xm.cross_moment_oracle(m, idx), M * M, m.describe())
    return chk


def check_mean(k_max: int, p_list, n_max: int) -> IdentityCheck:
    chk = IdentityCheck("mean assembly (oracle cross-moments) vs closed form")
    ns = range(2, n_max + 1)
    for m in _uniform_models(k_max):
        for n in ns:
            chk.exact(
                mo.mean_assembly(m, n, source=xm.cross_moment_oracle),
                mo.mean_closed(m, n),
                f"{m.describe()} n={n}",
            )
    for m in _geometric_models(p_list):
        for n in ns:
            chk.close(
                mo.mean_assembly(m, n, source=xm.cross_moment_oracle),
                mo.mean_closed(m, n),
                f"{m.describe()} n={n}",
            )
    return chk


def check_variance(k_max: int, p_list, n_max: int) -> IdentityCheck:
    chk = IdentityCheck("variance tuple-count assembly (oracle) vs closed form")
    ns = range(4, n_max + 1)  # multiplicities describe actual tuples from n=4 up
    for m in _uniform_models(k_max):
        for n in ns:
            chk.exact(
                mo.variance_assembly(m, n, source=xm.cross_moment_oracle),
                mo.variance_closed(m, n),
                f"{m.describe()} n={n}",
            )
    for m in _geometric_models(p_list):
        for n in ns:
            chk.close(
                mo.variance_assembly(m, n, source=xm.cross_moment_oracle),
                mo.variance_closed(m, n),
                f"{m.describe()} n={n}",
            )
    return chk


def check_mu3(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("mu3* routes: uncentered combination, centered combination, closed")
    for m in _uniform_models(k_max):
        closed = mo.mu3_rate_closed(m)
        chk.exact(mo.mu3_rate_assembly(m, source=xm.cross_moment_oracle), closed,
                  f"{m.describe()} uncentered route")
        chk.exact(mo.mu3_rate_centered_assembly(m, source=xm.cross_moment_oracle), closed,
                  f"{m.describe()} centered route")
    for m in _geometric_models(p_list):
        chk.close(mo.mu3_rate_assembly(m, source=xm.cross_moment_oracle),
                  mo.mu3_rate_closed(m), f"{m.describe()} uncentered route")
    return chk


def check_vstar(k_max: int, p_list) -> IdentityCheck:
    chk = IdentityCheck("V* routes: (T02 - M**2) + 2(T011 - M**2) vs closed form")
    for m in _uniform_models(k_max):
        chk.exact(mo.vstar_assembly(m, source=xm.cross_moment_oracle),
                  mo.vstar_closed(m), m.describe())
        # V* is also the centered combination T~[0,2] + 2 T~[0,1,1]
        centered = xm.cross_moment_oracle(m, (0, 2, 0, 0), centered=True) + 2 * xm.cross_moment_oracle(
            m, (0, 1, 1, 0), centered=True
        )
        chk.exact(centered, mo.vstar_closed(m), f"{m.describe()} centered combination")
    for m in _geometric_models(p_list):
        chk.close(mo.vstar_assembly(m, source=xm.cross_moment_oracle),
                  mo.vstar_closed(m), m.describe())
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


def check_perimeter_exhaustive() -> IdentityCheck:
    chk = IdentityCheck("perimeter identity, exhaustive small words")
    for k, n in EXHAUSTIVE_PERIMETER:
        word = [1] * n
        while True:
            chk.instances += 1
            b = perimeter_decomposed(word)
            edges = perimeter_edge_count(word)
            if b.P != edges or b.P != b.Q + word[0] + word[-1] + 2 * n:
                if len(chk.failures) < 5:
                    chk.failures.append(f"word {tuple(word)}: P={b.P} edges={edges}")
            # next word in lexicographic order over [1,k]**n
            pos = n - 1
            while pos >= 0 and word[pos] == k:
                word[pos] = 1
                pos -= 1
            if pos < 0:
                break
            word[pos] += 1
    return chk


def check_perimeter_random(count: int, seed: int) -> IdentityCheck:
    chk = IdentityCheck("perimeter identity, randomized larger words")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(2, 31))
        word = rng.integers(1, k + 1, size=n)
        chk.instances += 1
        b = perimeter_decomposed(word)
        if b.P != perimeter_edge_count(word):
            if len(chk.failures) < 5:
                chk.failures.append(f"word {tuple(int(x) for x in word)}")
    return chk


def run_verification(
    k_max: int = 12,
    p_list=DEFAULT_P_LIST,
    n_max: int = 40,
    random_words: int = 10000,
    seed: int = 0,
) -> list[IdentityCheck]:
    p_list = tuple(Fraction(p) for p in p_list)
    return [
        check_gap_pmf(k_max, p_list),
        check_cross_moments_uniform(k_max),
        check_cross_moments_geometric(p_list),
        check_reversibility(k_max, p_list),
        check_centering(k_max),
        check_independence(k_max, p_list),
        check_mean(k_max, p_list, n_max),
        check_variance(k_max, p_list, n_max),
        check_mu3(k_max, p_list),
        check_vstar(k_max, p_list),
        check_mean_decomposition(k_max, p_list, n_max),
        check_perimeter_exhaustive(),
        check_perimeter_random(random_words, seed),
    ]


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
