"""Identity sweep: every closed form against its independent brute-force route.

Each check pits two computations of the same quantity against each other:
closed-form rational expressions versus the staged exact-sum oracle, assembled
moments versus their closed forms, and the perimeter decomposition versus
literal boundary-edge counting.  Every comparison demands exact rational
equality, for geometric letters too: the oracle sums their whole unbounded
support (see :mod:`wordperim.cross_moments`).
"""

from __future__ import annotations

import math
import struct
import time
from fractions import Fraction
from itertools import product, zip_longest

from . import cross_moments as xm
from . import moments as mo
from .models import UNIFORM, Model, exact_text, gap_pmf, gap_pmf_by_convolution, plain_int
from .polyomino import perimeters_from_edges, perimeters_from_gaps

DEFAULT_P_LIST = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
# the n that the mean, variance and mean decomposition checks count and name on a failure
MEAN_NS = range(2, 41)
VARIANCE_NS = range(4, 41)
DECOMPOSITION_NS = (2, 3, 40)

# exhaustive perimeter cases: (k, n) ranges small enough to enumerate k**n words
EXHAUSTIVE_PERIMETER = tuple(
    [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
)
# words per window of the random perimeter check: one SHAKE-128 digest each
_WINDOW_WORDS = 2048
# n and k of a word: the first two little-endian uint16 values of its 64-byte row
_ROW_HEAD = struct.Struct("<2H60x")
# the letter 1 + (b*k >> 8) of each byte b, for k = 2 .. 30 (index k): letter j + 1
# is the image of the bytes ceil(256j/k) .. ceil(256(j+1)/k) - 1
_LETTER_TABLES = (b"", b"") + tuple(
    b"".join(bytes([j + 1]) * (-(-256 * (j + 1) // k) - -(-256 * j // k)) for j in range(k))
    for k in range(2, 31))


class IdentityCheck:
    """One identity's tally: instances compared, the first five failures named."""

    def __init__(self, name: str, instances: int = 0, max_deviation: float = 0.0,
                 failures: list[str] | None = None, seconds: float = 0.0):
        self.name = name
        self.instances = instances
        self.max_deviation = max_deviation
        self.failures = [] if failures is None else failures
        self.seconds = seconds  # wall time of the check, set by run_verification

    @property
    def passed(self) -> bool:
        return not self.failures

    def exact(self, lhs: Fraction, rhs: Fraction, label: str) -> None:
        if lhs == rhs:
            self.instances += 1
            return
        try:
            deviation = abs(float(lhs - rhs))
        except OverflowError:  # a difference beyond float range
            deviation = math.inf
        self.max_deviation = max(self.max_deviation, deviation)
        self.fail(f"{label}: {exact_text(lhs)} != {exact_text(rhs)}")

    def fail(self, failure: str) -> None:
        """Count one failed instance; the first five are named."""
        self.instances += 1
        if len(self.failures) < 5:
            self.failures.append(failure)


def check_gap_pmf(models) -> IdentityCheck:
    chk = IdentityCheck("gap pmf closed form vs letter-pair convolution")
    for m in models:
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


def check_cross_moments_uniform(uniform_models) -> IdentityCheck:
    return _check_closed_vs_oracle("cross-moment closed forms vs oracle (uniform)", uniform_models)


def check_cross_moments_geometric(geometric_models) -> IdentityCheck:
    return _check_closed_vs_oracle(
        "cross-moment closed forms vs oracle (geometric)", geometric_models)


def check_reversibility(models) -> IdentityCheck:
    chk = IdentityCheck("gap-pair reversibility T[0,1,2] == T[0,2,1] (oracle)")
    for m in models:
        chk.exact(xm.cross_moment_oracle(m, xm.MomentIndex(0, 1, 2, 0)),
                  xm.cross_moment_oracle(m, xm.MomentIndex(0, 2, 1, 0)), m.describe())
    return chk


def check_centering(uniform_models) -> IdentityCheck:
    chk = IdentityCheck("centering identities T~ == T - M**2 (oracle, uniform)")
    i02 = xm.MomentIndex(0, 2, 0, 0)
    i011 = xm.MomentIndex(0, 1, 1, 0)
    iM = xm.MomentIndex(0, 1, 0, 0)
    for m in uniform_models:
        M = xm.cross_moment_oracle(m, iM)
        for idx in (i02, i011):
            chk.exact(
                xm.cross_moment_oracle(m, idx, centered=True),
                xm.cross_moment_oracle(m, idx) - M * M,
                f"{m.describe()} T{tuple(idx)}",
            )
    return chk


def check_independence(models) -> IdentityCheck:
    chk = IdentityCheck("independent gaps E(y1 y3) == M**2 (oracle, middle marginalized)")
    idx = xm.MomentIndex(0, 1, 0, 1)
    iM = xm.MomentIndex(0, 1, 0, 0)
    for m in models:
        M = xm.cross_moment_oracle(m, iM)
        chk.exact(xm.cross_moment_oracle(m, idx), M * M, m.describe())
    return chk


def _check_forms(name: str, models, ns, assembly, closed) -> IdentityCheck:
    """Build each model's two forms in n once and compare their coefficients.

    Either form may carry trailing zero coefficients the other lacks, so the
    shorter tuple is padded with zeros.  Equal coefficients prove the identity
    at every n, so each n of ``ns`` counts as a passing instance; only forms
    that differ are evaluated at each n, to name the failing n and max_deviation.
    """
    chk = IdentityCheck(name)
    for m in models:
        lhs, rhs = assembly(m, source=xm.cross_moment_oracle), closed(m)
        pairs = zip_longest(lhs.coefficients, rhs.coefficients, fillvalue=0)
        if all(a == b for a, b in pairs):
            chk.instances += len(ns)
            continue
        for n in ns:
            chk.exact(lhs(n), rhs(n), f"{m.describe()} n={n}")
    return chk


def check_mean(models) -> IdentityCheck:
    return _check_forms("mean assembly (oracle cross-moments) vs closed form",
                        models, MEAN_NS, mo.mean_assembly, mo.mean_closed)


def check_variance(models) -> IdentityCheck:
    return _check_forms("variance tuple-count assembly (oracle) vs closed form",
                        models, VARIANCE_NS, mo.variance_assembly, mo.variance_closed)


def check_mu3(models) -> IdentityCheck:
    chk = IdentityCheck("mu3* routes: uncentered combination, centered combination, closed")
    for m in models:
        closed = mo.mu3_rate_closed(m)
        chk.exact(mo.mu3_rate_assembly(m, source=xm.cross_moment_oracle), closed,
                  f"{m.describe()} uncentered route")
        chk.exact(mo.mu3_rate_assembly(m, source=xm.cross_moment_oracle, centered=True), closed,
                  f"{m.describe()} centered route")
    return chk


def check_vstar(models) -> IdentityCheck:
    chk = IdentityCheck("V* routes: (T02 - M**2) + 2(T011 - M**2) vs closed form")
    for m in models:
        # V* is the coefficient of n of the variance forms
        closed = mo.variance_closed(m).coefficients[1]
        chk.exact(mo.variance_assembly(m, source=xm.cross_moment_oracle).coefficients[1], closed,
                  m.describe())
        # V* is also kappa_2* of the centered gaps, T~[0,2] + 2 T~[0,1,1]
        centered = mo.gap_sum_cumulant(m, 2, xm.cross_moment_oracle, centered=True).coefficients[1]
        chk.exact(centered, closed, f"{m.describe()} centered combination")
    return chk


def check_mean_decomposition(models) -> IdentityCheck:
    """E(P) from its two routes against E(R) = E(Q) + E(x0) + E(x_m), plus 2n."""
    chk = IdentityCheck("mean decomposition mean_P - mean_R == 2n")
    for m in models:
        for n in DECOMPOSITION_NS:
            try:  # mean_perimeter raises when its two routes disagree
                mean_p = mo.mean_perimeter(m, n)
            except mo.RouteDisagreement as e:
                chk.fail(str(e))
                continue
            chk.exact(mean_p - mo.mean_vertical(m, n), Fraction(2 * n), f"{m.describe()} n={n}")
    return chk


def _compare_routes(chk: IdentityCheck, words: list) -> None:
    """Count each of ``words`` into ``chk``, naming the first five failures in order.

    A word fails unless P from the decomposition Q + x0 + x_last + 2n equals
    the count of its boundary edges.  The words are built valid (letters in
    [1, k]), so they go to the two routes unchecked, each given the whole
    list; only when the two lists differ are the words walked one by one.
    """
    p = [breakdown[2] for breakdown in perimeters_from_gaps(words)]
    edges = perimeters_from_edges(words)
    if p == edges:
        chk.instances += len(words)
        return
    for word, p_word, edges_word in zip(words, p, edges):
        if p_word == edges_word:
            chk.instances += 1
        else:
            chk.fail(f"word {tuple(word)}: P={p_word} edges={edges_word}")


def check_perimeter_exhaustive() -> IdentityCheck:
    chk = IdentityCheck("perimeter identity, exhaustive small words")
    for k, n in EXHAUSTIVE_PERIMETER:
        # all k**n words over [1,k] in lexicographic order
        _compare_routes(chk, list(map(bytes, product(range(1, k + 1), repeat=n))))
    return chk


def _at_least(name: str, value, low: int = 0) -> int:
    """``value`` as a plain int; ValueError unless it is an integer >= ``low``."""
    number = plain_int(value)
    if number is None or number < low:
        least = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {least}, got {value!r}")
    return number


def _random_windows(count: int, seed: int):
    """The ``count`` words of the random check's stream as one list per window, each word bytes.

    A word's letters are the first n bytes after its row's head, each turned
    into its letter by the one translate table of the row's k.
    """
    import hashlib  # here, not at the top: moments and xmoment never load OpenSSL

    for window, lo in enumerate(range(0, count, _WINDOW_WORDS)):
        size = min(_WINDOW_WORDS, count - lo)
        digest = hashlib.shake_128(f"{seed},{window}".encode()).digest(64 * size)
        yield [digest[64 * row + 4 : 64 * row + 6 + (u0 * 59 >> 16)]
               .translate(_LETTER_TABLES[2 + (u1 * 29 >> 16)])
               for row, (u0, u1) in enumerate(_ROW_HEAD.iter_unpack(digest))]


def check_perimeter_random(count: int, seed: int) -> IdentityCheck:
    """``count`` words with n in [2,60], k in [2,30] and letters in [1,k], from a keyed stream.

    Words 2048w .. 2048w + 2047 form window w, which reads the SHAKE-128 digest
    of the ASCII key ``f"{seed},{w}"`` in rows of 64 bytes, one row per word.
    A row starts with two little-endian uint16 values u0 and u1, giving n = 2 +
    (u0*59 >> 16) and k = 2 + (u1*29 >> 16); the letters 1 + (b*k >> 8) come
    from its first n other bytes b.  Each of the 59 lengths gets 2**16 // 59 or
    one more of the 2**16 values of u0, and each of the 29 k the same of u1, so
    each is within 0.1 % of uniform; each of the k letters gets 256 // k or one
    more of the 256 byte values, so a letter's probability is within 1/256 of
    1/k.  A shorter digest is a prefix of a longer one, so a word does not
    depend on ``count``.  Both routes read a window as a whole, in blocks of
    ``polyomino.BLOCK_WORDS`` words; failures are named in word order.
    """
    count, seed = _at_least("count", count), _at_least("seed", seed)
    chk = IdentityCheck("perimeter identity, randomized larger words")
    for words in _random_windows(count, seed):
        _compare_routes(chk, words)
    return chk


# verify's checks in report order, by short id.  Each call takes run_verification's inputs
# and looks its check_* up in this module when it runs, so a patched check_* is the one run.
CHECKS = {
    "pmf": lambda run: check_gap_pmf(run["models"]),
    "uniform": lambda run: check_cross_moments_uniform(run["uniform"]),
    "geometric": lambda run: check_cross_moments_geometric(run["geometric"]),
    "reversibility": lambda run: check_reversibility(run["models"]),
    "centering": lambda run: check_centering(run["uniform"]),
    "independence": lambda run: check_independence(run["models"]),
    "mean": lambda run: check_mean(run["models"]),
    "variance": lambda run: check_variance(run["models"]),
    "mu3": lambda run: check_mu3(run["models"]),
    "vstar": lambda run: check_vstar(run["models"]),
    "decomposition": lambda run: check_mean_decomposition(run["models"]),
    "exhaustive": lambda run: check_perimeter_exhaustive(),
    "random": lambda run: check_perimeter_random(run["random_words"], run["seed"]),
}


def run_verification(k_max: int = 12, p_list=DEFAULT_P_LIST, random_words: int = 10000,
                     seed: int = 0) -> list[IdentityCheck]:
    """Run the checks of ``CHECKS`` in report order; each records its wall time in ``seconds``.

    ValueError, before any check runs, for k_max < 1, for which some checks
    would compare nothing and pass, or for a negative ``random_words`` or ``seed``.
    """
    k_max = _at_least("k_max", k_max, 1)
    run = {"random_words": _at_least("random_words", random_words), "seed": _at_least("seed", seed)}
    # each model is built once, so the oracle's cache finds the very same objects
    run["uniform"] = [Model.uniform(k) for k in range(1, k_max + 1)]
    run["geometric"] = [Model.geometric(Fraction(p)) for p in p_list]
    run["models"] = run["uniform"] + run["geometric"]
    checks = []
    for call in CHECKS.values():
        start = time.perf_counter()
        chk = call(run)
        chk.seconds = time.perf_counter() - start
        checks.append(chk)
    return checks


def format_report(checks: list[IdentityCheck]) -> str:
    """One line per check, then a summary; a check that compared nothing reads SKIP.

    A skipped check still passes (it has no failures), but it is left out of
    the summary's pass count and named there.
    """
    lines = []
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "FAIL" if not c.passed else "SKIP" if c.instances == 0 else "PASS"
        lines.append(
            f"{status}  {c.name:<{width}}  instances={c.instances:<6d} max_dev={c.max_deviation:.3e}"
        )
        for f in c.failures:
            lines.append(f"      offending: {f}")
    total = sum(c.instances for c in checks)
    bad = [c for c in checks if not c.passed]
    skipped = [c for c in checks if c.passed and c.instances == 0]
    passed = len(checks) - len(bad) - len(skipped)
    lines.append(
        f"{passed}/{len(checks)} identities pass over {total} instances"
        + ("" if not skipped else f"; SKIPPED: {', '.join(c.name for c in skipped)}")
        + ("" if not bad else f"; FAILED: {', '.join(c.name for c in bad)}")
    )
    return "\n".join(lines)
