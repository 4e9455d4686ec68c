import math
import pickle
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

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
    for route in (wp.gap_pmf, wp.gap_pmf_by_convolution):
        with pytest.raises(ValueError, match="gap values are nonnegative, got -1"):
            route(wp.Model.uniform(3), -1)


@pytest.mark.parametrize("bad", [True, 2.5, "2", None, Fraction(2)])
@pytest.mark.parametrize("route, message", [
    (wp.letter_pmf, "letters are positive integers"),
    (wp.gap_pmf, "gap values are integers"),
    (wp.gap_pmf_by_convolution, "gap values are integers"),
], ids=["letter_pmf", "gap_pmf", "gap_pmf_by_convolution"])
def test_pmfs_take_integers_only(route, message, bad):
    for model in (wp.Model.uniform(3), wp.Model.geometric(Fraction(1, 2))):
        with pytest.raises(ValueError, match=f"{message}, got {re.escape(repr(bad))}$"):
            route(model, bad)
        assert route(model, np.uint8(2)) == route(model, 2)


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
)
def test_integer_antidifference_satisfies_its_recurrence(z, n):
    coefficients, den = models.integer_antidifference(z.numerator, z.denominator, n)
    poly = lambda v: sum(Fraction(r, den) * v**i for i, r in enumerate(coefficients))  # noqa: E731
    assert all(z * poly(v + 1) - poly(v) == v**n for v in range(-2, 5))


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


def test_geometric_sampler_rejects_p_whose_complement_rounds_to_zero():
    # float(1 - p) == 0.0: ln q would be log(0.0)
    p = Fraction(10**400 - 1, 10**400)
    with pytest.raises(ValueError, match=f"geometric p = {p} is too close to 1 to sample"):
        models.geometric_letters(wp.Model.geometric(p), np.array([0.5]))
    # p = 1 - 10**-300 keeps a float complement: every letter is 1
    near = wp.Model.geometric(1 - Fraction(1, 10**300))
    assert models.geometric_letters(near, np.array([0.0, 0.5, 1 - 2.0**-53])).tolist() == [1, 1, 1]


def test_geometric_sampler_at_smallest_float_p():
    # p = 1e-15 still has float(1 - p) < 1: the letters are drawn, and large
    x = wp.sample_letters(wp.Model.geometric(Fraction(1, 10**15)), wp.trajectory_rng(0, 0), 50)
    assert x.min() >= 1 and np.median(x) > 10**13


def exact_letter(p: Fraction, u: float) -> Decimal:
    """ln(1 - u) / ln(1 - p) in 40-digit decimal arithmetic; the letter is its ceiling."""
    with localcontext() as ctx:
        ctx.prec = 40
        return (1 - Decimal(u)).ln() / exact_ln_q(p)


@lru_cache(maxsize=None)
def exact_ln_q(p: Fraction) -> Decimal:
    """ln(1 - p) in 40-digit decimal arithmetic, computed once per p."""
    with localcontext() as ctx:
        ctx.prec = 40
        return (1 - Decimal(p.numerator) / p.denominator).ln()


def test_geometric_sampler_at_p_1e_12_is_the_exact_inversion():
    # ln q = log(float(1 - p)) was off by 2.2e-5 relative here, a shift of
    # 1.5e7 letters at u = 1/2
    p = Fraction(1, 10**12)
    u = np.array([2.0**-40, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1 - 2.0**-53])
    exact = [exact_letter(p, v) for v in u]
    # each ratio is far enough from an integer for float64 to round to its ceiling
    assert all(0.1 < r % 1 < 0.95 for r in exact)
    letters = models.geometric_letters(wp.Model.geometric(p), u)
    assert letters.tolist() == [math.ceil(r) for r in exact]


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10),
                               Fraction(1, 1000), Fraction(999, 1000)])
def test_geometric_sampler_from_p_2_26_on_is_the_exact_inversion(p):
    # from p = 2**-26 on, ln q is log(float(q)); the uniforms are the Philox draws
    # simulate reads, and a ratio within 1e-9 of an integer may round to either side
    u = wp.trajectory_rng(3, 0).random(4000)
    exact = [(v, r) for v in u if abs((r := exact_letter(p, v)) - round(r)) > Decimal("1e-9")]
    assert len(exact) > 3990
    letters = models.geometric_letters(wp.Model.geometric(p), np.array([v for v, _ in exact]))
    assert letters.tolist() == [max(1, math.ceil(r)) for _, r in exact]


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2**26 + 1, 10**15), u=st.floats(2.0**-30, 1 - 2.0**-30))
def test_geometric_sampler_near_p_zero_keeps_its_precision(d, u):
    # below p = 2**-26 the letter is the exact inversion up to float64 rounding
    p = Fraction(1, d)
    r = exact_letter(p, u)
    letter = int(models.geometric_letters(wp.Model.geometric(p), np.array([u]))[0])
    assert r <= letter + r * Decimal("1e-14") and letter < r + 1 + r * Decimal("1e-14")


@settings(max_examples=25)
@given(p=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)))
def test_geometric_inversion_matches_cdf(p):
    # the letter x of each uniform draw u satisfies CDF(x - 1) < u <= CDF(x), CDF(j) = 1 - q**j,
    # in exact Fractions; a draw whose ratio ln(1 - u) / ln q lies within 1e-9 of an integer
    # may round to either side, so it is skipped
    u = wp.trajectory_rng(5, 11).random(200)
    x = wp.sample_letters(wp.Model.geometric(p), wp.trajectory_rng(5, 11), 200)
    drawn = [(Fraction(v), int(letter)) for v, letter in zip(u, x)
             if abs((r := exact_letter(p, v)) - round(r)) > Decimal("1e-9")]
    assert len(drawn) > 190
    q = 1 - p
    assert all(1 - q ** (letter - 1) < v <= 1 - q**letter for v, letter in drawn)


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


def test_equal_models_hash_equal():
    assert wp.Model.uniform(np.int64(6)) == wp.Model.uniform(6)
    assert hash(wp.Model.uniform(np.int64(6))) == hash(wp.Model.uniform(6))
    assert wp.Model.geometric("2/4") == wp.Model.geometric(Fraction(1, 2))
    assert hash(wp.Model.geometric("2/4")) == hash(wp.Model.geometric(Fraction(1, 2)))
    assert len({wp.Model.uniform(2), wp.Model.geometric("1/2"), wp.Model.geometric("2/4")}) == 2


def test_model_hash_is_not_stored():
    # a stored hash would travel in a pickle and go stale under another PYTHONHASHSEED
    m = wp.Model.geometric(Fraction(1, 3))
    # no instance dict: a model holds its three fields and nothing else
    assert not hasattr(m, "__dict__") and tuple(m) == ("geometric", 0, Fraction(1, 3))
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and hash(copy) == hash(m)


def test_each_antidifference_is_derived_once(monkeypatch):
    assert models.integer_antidifference(4, 9, 0) == ((-9,), 5)
    # neither side of check_gap_pmf derives an R
    monkeypatch.setattr(models, "integer_antidifference", None)
    m = [wp.Model.uniform(6), wp.Model.geometric(Fraction(1, 3))]
    for route in (wp.gap_pmf, wp.gap_pmf_by_convolution):
        assert [route(model, u) for model in m for u in (0, 1)] == [
            Fraction(1, 6), Fraction(5, 18), Fraction(1, 5), Fraction(4, 15)]
