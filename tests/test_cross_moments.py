import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import models, verification

U6 = wp.Model.uniform(6)
G_HALF = wp.Model.geometric(Fraction(1, 2))


def test_index_validation():
    with pytest.raises(ValueError):
        xm.MomentIndex(0, 4, 0, 0).validate()
    with pytest.raises(ValueError):
        xm.MomentIndex(-1, 0, 0, 0).validate()
    with pytest.raises(ValueError):
        xm.MomentIndex(2, 1, 1, 1).validate()  # total weight 5
    assert xm.MomentIndex(1, 1, 1, 1).validate() == (1, 1, 1, 1)


def test_oracle_known_values():
    assert wp.cross_moment_oracle(U6, (1, 0, 0, 0)) == Fraction(7, 2)
    assert wp.cross_moment_oracle(U6, (0, 2, 0, 0)) == Fraction(35, 6)
    assert wp.cross_moment_oracle(U6, (0, 1, 0, 0), centered=True) == 0
    assert wp.cross_moment_oracle(G_HALF, (0, 1, 0, 0)) == Fraction(4, 3)
    assert wp.cross_moment_oracle(G_HALF, (0, 1, 0, 0), centered=True) == 0


def test_closed_known_values():
    assert wp.cross_moment_closed(U6, (0, 1, 1, 0)) == Fraction(427, 108)
    assert wp.cross_moment_closed(wp.Model.uniform(2), (0, 1, 1, 1), centered=True) == 0
    assert wp.cross_moment_closed(G_HALF, (1, 1, 0, 0)) == Fraction(34, 9)
    assert wp.mean_gap(U6) == Fraction(35, 18)


def test_closed_equals_oracle_uniform():
    for k in (*range(1, 9), 10**3, 10**6, 10**12):
        m = wp.Model.uniform(k)
        for idx in xm.supported_closed_indices(m):
            assert wp.cross_moment_closed(m, idx) == wp.cross_moment_oracle(m, idx), (k, idx)
        for idx in xm.supported_closed_indices(m, centered=True):
            assert wp.cross_moment_closed(m, idx, centered=True) == wp.cross_moment_oracle(
                m, idx, centered=True
            ), (k, idx)


ALL_INDICES = [i for i in itertools.product(range(4), repeat=4) if sum(i) <= 4]


def _literal_oracle(model, idx, U, M=0):
    """Test-only reference: the quadruple sum over [1, U]**4 written out from letter_pmf.

    Each gap factor is (|v - w| - M)**e.  Each factor table is brought to
    integers over its own common denominator, so the 65536 terms at U = 16
    add as ints; that is exact, and much faster than adding Fractions.
    """
    a, b, c, d = idx
    pmf = [wp.letter_pmf(model, i) for i in range(1, U + 1)]

    def integers(values):
        den = math.lcm(*(Fraction(x).denominator for x in values))
        return [int(x * den) for x in values], den

    P, dp = integers(pmf)
    (gb, db), (gc, dc), (gd, dd) = (integers([(y - M) ** e for y in range(len(P))])
                                    for e in (b, c, d))
    letters = range(len(P))  # letter i + 1 sits at position i
    total = 0
    for i in letters:
        ti = P[i] * (i + 1) ** a
        for j in letters:
            tj = ti * P[j] * gb[abs(j - i)]
            for l in letters:
                tl = tj * P[l] * gc[abs(l - j)]
                for r in letters:
                    total += tl * P[r] * gd[abs(r - l)]
    return Fraction(total, dp**4 * db * dc * dd)


def _truncation_bound(model, idx, U, M=0):
    """Test-only bound on |exact oracle - _literal_oracle(model, idx, U, M)|, geometric letters.

    The two differ by the tuples with a letter above U.  With S = i+j+l+r,
    every factor of the summand is at most S + M in size, so the summand is
    at most (S + M)**w, w = total weight; a union bound over which of the
    four letters exceeds U then gives 4 * E((x + rest + M)**w; x > U), with
    rest the sum of the other three letters.  Deliberately crude.
    """
    w = sum(idx)
    p, q, M = float(model.p), float(model.q), float(M)

    def letter_moment(t, start):
        # sum_{i >= start} p q**(i-1) i**t, summed until terms vanish
        total, term_w, i = 0.0, p * q ** (start - 1), start
        while True:
            term = term_w * i**t
            total += term
            if term < 1e-300 or (i > start + 10 and term < 1e-18 * total):
                return total
            i += 1
            term_w *= q

    def shifted_sum(moments, t):  # the t-th raw moment of (that sum + one more letter)
        return sum(math.comb(t, s) * moments[s] * m1[t - s] for s in range(t + 1))

    m1 = [letter_moment(t, 1) for t in range(w + 1)]
    m3 = [shifted_sum(m1, t) for t in range(w + 1)]
    m3 = [shifted_sum(m3, t) for t in range(w + 1)]  # raw moments of three i.i.d. letters
    rest = [sum(math.comb(t, s) * m3[s] * M ** (t - s) for s in range(t + 1)) for t in range(w + 1)]
    return 4.0 * sum(math.comb(w, t) * letter_moment(w - t, U + 1) * rest[t] for t in range(w + 1))


def test_oracle_equals_literal_quadruple_sum():
    for k in (1, 2, 3, 5):
        m = wp.Model.uniform(k)
        M = _literal_oracle(m, (0, 1, 0, 0), k)
        for idx in ALL_INDICES:
            assert wp.cross_moment_oracle(m, idx) == _literal_oracle(m, idx, k), (k, idx)
            if idx[0] == 0:
                assert wp.cross_moment_oracle(m, idx, centered=True) == _literal_oracle(
                    m, idx, k, M
                ), (k, idx)
    # the oracle sums the whole geometric support, the literal sum stops at
    # U = 16 (q**16 = 1e-16): they differ by less than the tail bound
    g, U = wp.Model.geometric(Fraction(9, 10)), 16
    for idx in ((0, 1, 1, 1), (0, 1, 2, 0), (1, 1, 0, 0), (2, 0, 0, 2)):
        gap = abs(float(wp.cross_moment_oracle(g, idx) - _literal_oracle(g, idx, U)))
        assert gap <= _truncation_bound(g, idx, U), idx
    M = wp.mean_gap(g)
    for idx in ((0, 1, 1, 1), (0, 2, 1, 0)):
        gap = abs(float(wp.cross_moment_oracle(g, idx, centered=True)
                        - _literal_oracle(g, idx, U, M)))
        assert gap <= _truncation_bound(g, idx, U, M), idx


def test_closed_near_oracle_geometric():
    # exact: the oracle sums the unbounded support, even where it is long (small p)
    for p in (Fraction(1, 10**6), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2),
              Fraction(9, 10)):
        m = wp.Model.geometric(p)
        for idx in xm.supported_closed_indices(m):
            assert wp.cross_moment_closed(m, idx) == wp.cross_moment_oracle(m, idx), (p, idx)


def test_truncation_bound_dominates_actual_error():
    # at U = 12, p = 1/2 the dropped tail is large enough to see: the bound must cover it
    for idx in ((0, 3, 0, 0), (0, 1, 1, 1), (1, 1, 0, 0)):
        actual = abs(float(wp.cross_moment_oracle(G_HALF, idx) - _literal_oracle(G_HALF, idx, 12)))
        assert 0 < actual <= _truncation_bound(G_HALF, idx, 12)
        assert _truncation_bound(G_HALF, idx, 50) < 1e-8  # and it falls off with U


def test_centered_with_leading_letter_rejected():
    with pytest.raises(ValueError, match="alpha"):
        wp.cross_moment_oracle(U6, (1, 1, 0, 0), centered=True)


def test_no_closed_form_directs_to_oracle():
    with pytest.raises(wp.NoClosedFormError, match="oracle"):
        wp.cross_moment_closed(U6, (0, 1, 0, 1))
    with pytest.raises(wp.NoClosedFormError):
        wp.cross_moment_closed(G_HALF, (0, 2, 0, 0), centered=True)
    # the oracle covers what the table does not
    assert wp.cross_moment_oracle(U6, (0, 1, 0, 1)) == wp.mean_gap(U6) ** 2


def test_reversibility():
    for m in (U6, wp.Model.uniform(1), wp.Model.geometric(Fraction(1, 3))):
        assert wp.cross_moment_oracle(m, (0, 1, 2, 0)) == wp.cross_moment_oracle(m, (0, 2, 1, 0))


def test_centering_identity():
    for k in (2, 3, 6):
        m = wp.Model.uniform(k)
        M = wp.cross_moment_oracle(m, (0, 1, 0, 0))
        for idx in ((0, 2, 0, 0), (0, 1, 1, 0)):
            assert wp.cross_moment_oracle(m, idx, centered=True) == wp.cross_moment_oracle(
                m, idx
            ) - M * M


def test_vstar_consistency_centered_vs_uncentered():
    for k in range(1, 9):
        m = wp.Model.uniform(k)
        M = wp.cross_moment_oracle(m, (0, 1, 0, 0))
        uncentered = (wp.cross_moment_oracle(m, (0, 2, 0, 0)) - M * M) + 2 * (
            wp.cross_moment_oracle(m, (0, 1, 1, 0)) - M * M
        )
        centered = wp.cross_moment_oracle(m, (0, 2, 0, 0), centered=True) + 2 * (
            wp.cross_moment_oracle(m, (0, 1, 1, 0), centered=True)
        )
        assert uncentered == centered


def test_independent_gaps_factorize():
    for k in (2, 4, 6):
        m = wp.Model.uniform(k)
        M = wp.cross_moment_oracle(m, (0, 1, 0, 0))
        assert wp.cross_moment_oracle(m, (0, 1, 0, 1)) == M * M
    M = wp.cross_moment_closed(G_HALF, (0, 1, 0, 0))
    assert wp.cross_moment_oracle(G_HALF, (0, 1, 0, 1)) == M * M


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 5),
    b=st.integers(0, 2),
    c=st.integers(0, 2),
    d=st.integers(0, 2),
)
def test_gap_sequence_reversal_symmetry(k, b, c, d):
    # (y1, y2, y3) has the same law as (y3, y2, y1): reversing the letters
    # preserves the i.i.d. distribution
    assume(b + c + d <= 4)
    m = wp.Model.uniform(k)
    assert wp.cross_moment_oracle(m, (0, b, c, d)) == wp.cross_moment_oracle(m, (0, d, c, b))


@pytest.mark.parametrize("route", [wp.cross_moment_oracle, wp.cross_moment_closed])
def test_moment_index_instances_are_still_validated(route):
    # a MomentIndex skips re-validation only when it holds plain ints within bounds
    for bad in ((0, True, 0, 0), (0, 4, 0, 0), (-1, 1, 0, 0), (1, 1, 1, 2), (0, 1.0, 0, 0)):
        with pytest.raises(ValueError, match="exponents must be integers|total weight"):
            route(U6, xm.MomentIndex(*bad))
    # numpy exponents inside a MomentIndex take the validating path to plain ints
    np_idx = xm.MomentIndex(*np.array([0, 1, 1, 0], dtype=np.uint8))
    assert route(U6, np_idx) == route(U6, xm.MomentIndex(0, 1, 1, 0)) == route(U6, (0, 1, 1, 0))


# ---------------------------------------------------------------------------
# stage chains shared per model, against a per-index reference
# ---------------------------------------------------------------------------

STAGE_MODELS = [wp.Model.uniform(k) for k in range(1, 13)] + [
    wp.Model.geometric(Fraction(p)) for p in ("1/10", "1/4", "1/2", "3/4", "9/10", "1/3", "2/7")
]
VALID_PAIRS = [(idx, centered) for idx in ALL_INDICES for centered in (False, True)
               if not (centered and idx[0])]


EXACT_CACHES = (xm._oracle_cached, xm._stages, models.integer_antidifference)


@pytest.fixture
def cold_oracle():
    """Empty the oracle's caches before and after (request it before monkeypatch)."""
    for cache in EXACT_CACHES:
        cache.cache_clear()
    yield
    for cache in EXACT_CACHES:
        cache.cache_clear()


def per_index_oracle(model, idx, centered):
    """Test-side reference: three fresh gap stages for every index, nothing shared or cached."""
    a, b, c, d = idx
    scale, z0, U = models.letter_law(model)
    z0 = (z0.numerator, z0.denominator)
    s, off = 1, 0
    if centered:
        M = per_index_oracle(model, (0, 1, 0, 0), False)
        s, off = M.denominator, M.numerator
    inner = 1, {(1, 1): [1]}
    for e in (d, c, b):
        inner = xm._gap_stage(z0, U, inner, e, s, off)
    Q, _, _, total = xm._sums(z0, U, inner[1], a)
    return Fraction(total[a], inner[0] * Q) * scale**4 / s ** (b + c + d)


def oracle_mismatches(model_list):
    return [(m.describe(), idx, centered) for m in model_list for idx, centered in VALID_PAIRS
            if wp.cross_moment_oracle(m, idx, centered) != per_index_oracle(m, idx, centered)]


def test_shared_stages_equal_the_per_index_reference(cold_oracle):
    assert len(STAGE_MODELS) * len(VALID_PAIRS) == 1862
    assert oracle_mismatches(STAGE_MODELS) == []


def test_oracle_values_are_pinned(cold_oracle):
    # sha256 of every value above, one line per (model, index, centering);
    # the digest was taken from the oracle before its stages were shared
    h = hashlib.sha256()
    for m in STAGE_MODELS:
        for idx in ALL_INDICES:
            for centered in (False, True):
                if not (centered and idx[0]):
                    value = wp.cross_moment_oracle(m, idx, centered)
                    h.update(f"{m.describe()} {idx} {centered} {value}\n".encode())
    assert h.hexdigest() == "234a55d754e17f7e3c91f706776bfa68dc8320e2b9af6d0366185455234cfed6"


def test_default_sweep_runs_each_stage_chain_once(cold_oracle, monkeypatch):
    # the arguments of the benchmark's verify: 272 distinct keys, 3 stages
    # each, but only 448 distinct (model, centering, suffix) chains
    calls = []
    real = xm._gap_stage
    monkeypatch.setattr(xm, "_gap_stage", lambda *args: calls.append(1) or real(*args))
    p_list = [Fraction(p) for p in ("1/4", "1/2", "3/4", "9/10")]
    checks = verification.run_verification(p_list=p_list, random_words=0)
    assert all(c.passed for c in checks)
    assert xm._oracle_cached.cache_info().currsize == 272
    assert len(calls) == 448
    # 448 chains and one empty suffix per (model, centering)
    assert xm._stages.cache_info().currsize == 448 + 32 < models.CACHE_ENTRIES
    # no cache evicted anything: every miss is still held
    assert [c.cache_info().misses - c.cache_info().currsize for c in EXACT_CACHES] == [0, 0, 0]


def test_a_sweep_over_many_models_holds_flat_memory(cold_oracle):
    # E(y) and E(x) of 1000 geometric models: 2000 values, 5000 stage chains
    # and 3000 antidifferences, each about twice its cache's bound or more.
    # Once the caches are full, each new entry evicts an old one, and the
    # last 250 models add about 0.04 MiB; with unbounded caches, about 0.4 MiB.
    indices = [xm.MomentIndex(0, 1, 0, 0), xm.MomentIndex(1, 0, 0, 0)]
    tracemalloc.start()
    try:
        traced = {}
        for q in range(2, 1002):
            model = wp.Model.geometric(Fraction(1, q))
            for idx in indices:
                wp.cross_moment_oracle(model, idx)
            traced[q - 1] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [c.cache_info().currsize for c in EXACT_CACHES] == [models.CACHE_ENTRIES] * 3
    assert traced[1000] - traced[750] < 0.15 * 2**20


def test_a_stage_cache_keyed_without_centering_is_caught(cold_oracle, monkeypatch):
    uncached, chains = xm._stages.__wrapped__, {}

    def keyed_without_centering(model, centered, suffix):
        if (model, suffix) not in chains:
            chains[model, suffix] = uncached(model, centered, suffix)
        return chains[model, suffix]

    monkeypatch.setattr(xm, "_stages", keyed_without_centering)
    mismatches = oracle_mismatches([wp.Model.uniform(3), wp.Model.geometric(Fraction(1, 3))])
    assert mismatches and all(centered for _, _, centered in mismatches)
