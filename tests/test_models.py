import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim.models import TAIL_EPS


def _assert_weights_match_pmf(m):
    W, D = wp.letter_weights(m)
    assert len(W) == wp.letter_cutoff(m) + 1 and W[0] == 0
    assert all(Fraction(W[i], D) == wp.letter_pmf(m, i) for i in range(1, len(W)))


def test_uniform_letter_pmf():
    m = wp.Model.uniform(6)
    assert wp.letter_pmf(m, 3) == Fraction(1, 6)
    assert wp.letter_pmf(m, 6) == Fraction(1, 6)
    assert wp.letter_pmf(m, 7) == 0
    for k in (1, 6):
        _assert_weights_match_pmf(wp.Model.uniform(k))


def test_geometric_letter_pmf():
    m = wp.Model.geometric(Fraction(1, 2))
    assert wp.letter_pmf(m, 1) == Fraction(1, 2)
    assert wp.letter_pmf(m, 3) == Fraction(1, 8)
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        _assert_weights_match_pmf(wp.Model.geometric(p))


def test_letter_pmf_rejects_nonpositive():
    with pytest.raises(ValueError):
        wp.letter_pmf(wp.Model.uniform(3), 0)


def test_model_validation():
    with pytest.raises(ValueError):
        wp.Model.uniform(0)
    with pytest.raises(ValueError):
        wp.Model.geometric(0)
    with pytest.raises(ValueError):
        wp.Model.geometric(1)
    with pytest.raises(ValueError):
        wp.Model.geometric(Fraction(3, 2))
    with pytest.raises(ValueError):
        wp.Model("triangular", k=3)


def test_q_complements_p():
    m = wp.Model.geometric(Fraction(1, 3))
    assert m.q == Fraction(2, 3)


def test_model_dict_round_trip():
    for m in (wp.Model.uniform(4), wp.Model.geometric(Fraction(2, 7))):
        assert wp.Model.from_dict(m.as_dict()) == m


def test_gap_pmf_values():
    u6 = wp.Model.uniform(6)
    assert wp.gap_pmf(u6, 0) == Fraction(1, 6)
    assert wp.gap_pmf(u6, 2) == Fraction(2, 9)
    assert wp.gap_pmf(u6, 6) == 0
    assert wp.gap_pmf(wp.Model.uniform(1), 0) == 1
    g = wp.Model.geometric(Fraction(1, 2))
    assert wp.gap_pmf(g, 0) == Fraction(1, 3)
    assert wp.gap_pmf(g, 1) == Fraction(1, 3)


def test_gap_pmf_matches_convolution_uniform():
    for k in range(1, 13):
        m = wp.Model.uniform(k)
        for u in range(0, k + 1):
            assert wp.gap_pmf(m, u) == wp.gap_pmf_by_convolution(m, u)


def test_gap_pmf_matches_convolution_geometric():
    for p in (Fraction(1, 2), Fraction(1, 4), Fraction(9, 10)):
        m = wp.Model.geometric(p)
        for u in range(0, 15):
            dev = abs(float(wp.gap_pmf(m, u) - wp.gap_pmf_by_convolution(m, u)))
            assert dev < 1e-12


def test_gap_pmf_sums_to_one():
    for k in (1, 2, 5, 9):
        m = wp.Model.uniform(k)
        assert sum(wp.gap_pmf(m, u) for u in range(k)) == 1
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        m = wp.Model.geometric(p)
        total = sum(wp.gap_pmf(m, u) for u in range(wp.letter_cutoff(m) + 1))
        assert abs(float(1 - total)) < 1e-12


def test_gap_pmf_nonincreasing_beyond_zero():
    for m in (wp.Model.uniform(7), wp.Model.geometric(Fraction(2, 5))):
        cut = wp.letter_cutoff(m)
        values = [wp.gap_pmf(m, u) for u in range(1, min(cut, 25))]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_letter_cutoff_is_tight():
    assert wp.letter_cutoff(wp.Model.uniform(11)) == 11
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        m = wp.Model.geometric(p)
        u = wp.letter_cutoff(m)
        assert m.q**u < TAIL_EPS <= m.q ** (u - 1)


@given(k=st.integers(1, 30), u=st.integers(0, 40))
def test_gap_pmf_is_a_probability(k, u):
    f = wp.gap_pmf(wp.Model.uniform(k), u)
    assert 0 <= f <= 1


def test_sampler_support():
    rng = wp.trajectory_rng(123, 0)
    x = wp.sample_letters(wp.Model.uniform(6), rng, 10000)
    assert x.min() >= 1 and x.max() <= 6
    rng = wp.trajectory_rng(123, 1)
    assert wp.sample_letter(wp.Model.uniform(1), rng) == 1
    rng = wp.trajectory_rng(123, 2)
    g = wp.sample_letters(wp.Model.geometric(Fraction(1, 2)), rng, 10000)
    assert g.min() >= 1


def test_sampler_stream_is_reproducible():
    m = wp.Model.geometric(Fraction(1, 3))
    a = wp.sample_letters(m, wp.trajectory_rng(7, 42), 1000)
    b = wp.sample_letters(m, wp.trajectory_rng(7, 42), 1000)
    assert np.array_equal(a, b)
    c = wp.sample_letters(m, wp.trajectory_rng(7, 43), 1000)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "model,letters",
    [
        (wp.Model.uniform(6), range(1, 7)),
        (wp.Model.geometric(Fraction(1, 2)), range(1, 16)),
    ],
)
def test_sampler_frequencies_match_pmf(model, letters):
    # 1e6 draws; each letter frequency within 4 binomial standard errors
    n = 10**6
    rng = wp.trajectory_rng(2024, 0)
    x = wp.sample_letters(model, rng, n)
    counts = np.bincount(x, minlength=max(letters) + 1)
    for i in letters:
        p = float(wp.letter_pmf(model, i))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) <= 4 * se, f"letter {i}"


@settings(max_examples=25)
@given(p=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)))
def test_geometric_inversion_matches_cdf(p):
    # a letter every uniform draw u maps to satisfies CDF(x-1) < u-ish <= CDF(x)
    m = wp.Model.geometric(p)
    rng = wp.trajectory_rng(5, 11)
    x = wp.sample_letters(m, rng, 200)
    q = float(m.q)
    assert x.min() >= 1
    # tail containment: P(x > 200) is tiny for these p, so values stay modest
    assert x.max() <= max(10, int(math.log(1e-12) / math.log(q)) + 2)
