import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import cross_moments as xm

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
    dev = wp.cross_moment_oracle(G_HALF, (0, 1, 0, 0)) - Fraction(4, 3)
    assert abs(float(dev)) < 1e-12


def test_closed_known_values():
    assert wp.cross_moment_closed(U6, (0, 1, 1, 0)) == Fraction(427, 108)
    assert wp.cross_moment_closed(wp.Model.uniform(2), (0, 1, 1, 1), centered=True) == 0
    assert wp.cross_moment_closed(G_HALF, (1, 1, 0, 0)) == Fraction(34, 9)
    assert wp.mean_gap(U6) == Fraction(35, 18)


def test_closed_equals_oracle_uniform():
    for k in range(1, 9):
        m = wp.Model.uniform(k)
        for idx in xm.supported_closed_indices(m):
            assert wp.cross_moment_closed(m, idx) == wp.cross_moment_oracle(m, idx), (k, idx)
        for idx in xm.supported_closed_indices(m, centered=True):
            assert wp.cross_moment_closed(m, idx, centered=True) == wp.cross_moment_oracle(
                m, idx, centered=True
            ), (k, idx)


ALL_INDICES = [i for i in itertools.product(range(4), repeat=4) if sum(i) <= 4]


def _literal_oracle(model, idx, centered=False):
    """Test-only reference: the quadruple sum over [1, U]**4 written out from letter_pmf.

    Each factor table is brought to integers over its own common denominator,
    so the 65536 terms at U = 16 add as ints; that is exact, and much faster
    than adding Fractions.
    """
    a, b, c, d = idx
    pmf = [wp.letter_pmf(model, i) for i in range(1, wp.letter_cutoff(model) + 1)]
    M = 0
    if centered:  # its own mean gap: the same truncated sum with l and r summed out
        M = sum(pi * pj * abs(j - i) for i, pi in enumerate(pmf) for j, pj in enumerate(pmf))
        M *= sum(pmf) ** 2

    def integers(values):
        den = math.lcm(*(Fraction(x).denominator for x in values))
        return [int(x * den) for x in values], den

    P, dp = integers(pmf)
    (gb, db), (gc, dc), (gd, dd) = (integers([(y - M) ** e for y in range(len(P))]) for e in (b, c, d))
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


def test_oracle_equals_literal_quadruple_sum():
    for k in (1, 2, 3, 5):
        m = wp.Model.uniform(k)
        for idx in ALL_INDICES:
            assert wp.cross_moment_oracle(m, idx) == _literal_oracle(m, idx), (k, idx)
            if idx[0] == 0:
                assert wp.cross_moment_oracle(m, idx, centered=True) == _literal_oracle(
                    m, idx, centered=True
                ), (k, idx)
    # both sides are the same sum truncated at U = 16, so they agree exactly
    g = wp.Model.geometric(Fraction(9, 10))
    assert wp.letter_cutoff(g) == 16
    for idx in ((0, 1, 1, 1), (0, 1, 2, 0), (1, 1, 0, 0), (2, 0, 0, 2)):
        assert wp.cross_moment_oracle(g, idx) == _literal_oracle(g, idx), idx
    for idx in ((0, 1, 1, 1), (0, 2, 1, 0)):
        assert wp.cross_moment_oracle(g, idx, centered=True) == _literal_oracle(
            g, idx, centered=True
        ), idx


def test_closed_near_oracle_geometric():
    for idx in xm.supported_closed_indices(G_HALF):
        closed = wp.cross_moment_closed(G_HALF, idx)
        oracle = wp.cross_moment_oracle(G_HALF, idx)
        rel = abs(float(oracle - closed)) / max(1.0, abs(float(closed)))
        assert rel < 1e-10, idx


def test_truncation_bound_dominates_actual_error():
    for idx in ((0, 3, 0, 0), (0, 1, 1, 1), (1, 1, 0, 0)):
        actual = abs(
            float(wp.cross_moment_oracle(G_HALF, idx) - wp.cross_moment_closed(G_HALF, idx))
        )
        bound = wp.oracle_truncation_bound(G_HALF, idx)
        assert actual <= bound
        assert bound < 1e-8
    assert wp.oracle_truncation_bound(U6, (0, 3, 0, 0)) == 0.0


def test_centered_with_leading_letter_rejected():
    with pytest.raises(ValueError, match="alpha"):
        wp.cross_moment_oracle(U6, (1, 1, 0, 0), centered=True)
    with pytest.raises(ValueError):
        xm.cross_moment(U6, (1, 1, 0, 0), centered=True, method="brute_force")


def test_no_closed_form_directs_to_oracle():
    with pytest.raises(wp.NoClosedFormError, match="oracle"):
        wp.cross_moment_closed(U6, (0, 1, 0, 1))
    with pytest.raises(wp.NoClosedFormError):
        wp.cross_moment_closed(G_HALF, (0, 2, 0, 0), centered=True)
    # the oracle covers what the table does not
    assert wp.cross_moment_oracle(U6, (0, 1, 0, 1)) == wp.mean_gap(U6) ** 2


def test_reversibility():
    assert wp.reversibility_check(U6)
    assert wp.reversibility_check(wp.Model.uniform(1))
    assert wp.reversibility_check(wp.Model.geometric(Fraction(1, 3)))


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
    dev = abs(float(wp.cross_moment_oracle(G_HALF, (0, 1, 0, 1)) - M * M))
    assert dev < 1e-10


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


def test_cross_moment_wrapper():
    res = xm.cross_moment(U6, (0, 1, 1, 0), method="closed_form")
    assert res.value == Fraction(427, 108)
    assert res.method == "closed_form"
    res = xm.cross_moment(U6, (0, 1, 1, 0), method="brute_force")
    assert res.value == Fraction(427, 108)
    with pytest.raises(ValueError):
        xm.cross_moment(U6, (0, 1, 1, 0), method="guess")
