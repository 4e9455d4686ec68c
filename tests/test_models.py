import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import models


def test_uniform_letter_pmf():
    m = wp.Model.uniform(6)
    assert wp.letter_pmf(m, 3) == Fraction(1, 6)
    assert wp.letter_pmf(m, 6) == Fraction(1, 6)
    assert wp.letter_pmf(m, 7) == 0


def test_geometric_letter_pmf():
    m = wp.Model.geometric(Fraction(1, 2))
    assert wp.letter_pmf(m, 1) == Fraction(1, 2)
    assert wp.letter_pmf(m, 3) == Fraction(1, 8)


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
    # exact: the convolution sums the unbounded support, however long it is
    for p in (Fraction(1, 10**6), Fraction(1, 2), Fraction(1, 4), Fraction(9, 10)):
        m = wp.Model.geometric(p)
        for u in range(0, 15):
            assert wp.gap_pmf(m, u) == wp.gap_pmf_by_convolution(m, u)


def test_gap_pmf_sums_to_one():
    for k in (1, 2, 5, 9):
        m = wp.Model.uniform(k)
        assert sum(wp.gap_pmf(m, u) for u in range(k)) == 1
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        m = wp.Model.geometric(p)
        # the tail beyond u = 40 is the geometric series f(41) / p
        total = sum(wp.gap_pmf(m, u) for u in range(41)) + wp.gap_pmf(m, 41) / p
        assert total == 1


def test_gap_pmf_nonincreasing_beyond_zero():
    for m in (wp.Model.uniform(7), wp.Model.geometric(Fraction(2, 5))):
        values = [wp.gap_pmf(m, u) for u in range(1, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=40)
@given(
    z=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50)) | st.just(Fraction(1)),
    n=st.integers(0, 7),
    U=st.integers(0, 12),
)
def test_power_sum_equals_the_literal_sum(z, n, U):
    assert models.power_sum(z, n, U) == sum(z**w * w**n for w in range(1, U + 1))
    R = models.antidifference(z, n)
    poly = lambda v: sum(r * v**i for i, r in enumerate(R))  # noqa: E731
    assert all(z * poly(v + 1) - poly(v) == v**n for v in range(-2, 5))
    if z < 1:  # unbounded: S_0 = z/(1-z), and (1-z) S_n = sum_w z**w (w**n - (w-1)**n)
        S = [models.power_sum(z, j, None) for j in range(n + 1)]
        assert S[0] == z / (1 - z)
        lower = sum(math.comb(n, j) * (-1) ** (n - 1 - j) * S[j] for j in range(n))
        assert n == 0 or (1 - z) * S[n] == lower


@given(k=st.integers(1, 30), u=st.integers(0, 40))
def test_gap_pmf_is_a_probability(k, u):
    f = wp.gap_pmf(wp.Model.uniform(k), u)
    assert 0 <= f <= 1


def test_sampler_support():
    rng = wp.trajectory_rng(123, 0)
    x = wp.sample_letters(wp.Model.uniform(6), rng, 10000)
    assert x.min() >= 1 and x.max() <= 6
    rng = wp.trajectory_rng(123, 1)
    assert wp.sample_letters(wp.Model.uniform(1), rng, 1).tolist() == [1]
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


@pytest.mark.parametrize("p", [Fraction(1, 10**17), Fraction(1, 10**30)])
def test_geometric_sampler_rejects_p_below_float_resolution(p):
    # float(1 - p) == 1.0: the inversion would divide by log(1.0) = 0
    model = wp.Model.geometric(p)
    with pytest.raises(ValueError, match=f"geometric p = {p} is too small"):
        wp.sample_letters(model, wp.trajectory_rng(0, 0), 5)
    with pytest.raises(ValueError, match=f"geometric p = {p} is too small"):
        wp.simulate(wp.SimulationConfig(model=model, m=3, trajectories=2, seed=0))


def test_geometric_sampler_at_smallest_float_p():
    # p = 1e-15 still has float(1 - p) < 1: the letters are drawn, and large
    x = wp.sample_letters(wp.Model.geometric(Fraction(1, 10**15)), wp.trajectory_rng(0, 0), 50)
    assert x.min() >= 1 and np.median(x) > 10**13


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


INTEGER_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
SMALL_INDICES = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4) for d in range(4)
                 if a + b + c + d <= 4]


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(1, 100),
    n=st.integers(2, 100),
    idx=st.sampled_from(SMALL_INDICES),
    cast=st.sampled_from(INTEGER_TYPES),
)
def test_numpy_integer_inputs_become_plain_ints(k, n, idx, cast):
    m = wp.Model.uniform(cast(k))
    assert type(m.k) is int and m == wp.Model.uniform(k) and m.describe() == f"uniform[1,{k}]"
    exps = np.array(idx).astype(cast)
    assert wp.MomentIndex(*exps).validate() == idx
    assert all(type(e) is int for e in wp.MomentIndex(*exps).validate())
    assert wp.cross_moment_oracle(m, exps) == wp.cross_moment_oracle(wp.Model.uniform(k), idx)
    report = wp.moment_report(m, cast(n))
    assert type(report.n) is int and report == wp.moment_report(wp.Model.uniform(k), n)


@given(flag=st.sampled_from([True, False, np.True_, np.False_]))
def test_bool_is_no_integer_input(flag):
    with pytest.raises(ValueError, match="uniform model needs integer k"):
        wp.Model.uniform(flag)
    with pytest.raises(ValueError, match="exponents must be integers"):
        wp.MomentIndex(0, flag, 0, 0).validate()
    with pytest.raises(ValueError, match="word length n must be an integer"):
        wp.moment_report(wp.Model.uniform(3), flag)
