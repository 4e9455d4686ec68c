import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import moments as mo


def test_mean_known_values():
    assert wp.mean_perimeter(wp.Model.uniform(1), 10) == 22
    assert wp.mean_perimeter(wp.Model.uniform(3), 4) == Fraction(44, 3)
    assert wp.mean_perimeter(wp.Model.geometric(Fraction(1, 2)), 2) == Fraction(28, 3)


def test_variance_known_values():
    assert wp.variance_perimeter(wp.Model.uniform(1), 10) == 0
    assert wp.variance_perimeter(wp.Model.uniform(6), 500) == Fraction(1947505, 1620)


def test_variance_assembly_matches_closed_geometric():
    g = wp.Model.geometric(Fraction(1, 2))
    assert mo.variance_assembly(g)(10) == mo.variance_closed(g)(10)
    assert wp.variance_perimeter(g, 10) == mo.variance_closed(g)(10)


def test_mu3_known_values():
    assert wp.mu3_dominant(wp.Model.uniform(2), 100) == 0
    anchor = wp.mu3_dominant(wp.Model.uniform(6), 500)
    assert anchor == Fraction(1144000, 729)
    assert f"{float(anchor):.9f}".startswith("1569.272976680")


def test_mu3_vanishes_as_p_approaches_one():
    # mu3* carries a factor (1-p): the rate decays linearly to 0 as p -> 1
    rates = [
        mo.mu3_rate_closed(wp.Model.geometric(p))
        for p in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))
    ]
    assert rates[0] > rates[1] > rates[2] > 0
    assert rates[2] < Fraction(1, 100)
    assert rates[2] < 16 * Fraction(1, 1000)  # ~ 8 (1-p) near p = 1


def test_vstar_sigma_values():
    v, s = wp.vstar_sigma(wp.Model.uniform(6))
    assert v == Fraction(259, 108)
    assert abs(s - 1.54859554) < 1e-6
    assert wp.vstar_sigma(wp.Model.uniform(1)) == (0, 0.0)
    assert wp.vstar_sigma(wp.Model.geometric(Fraction(1, 2)))[0] == Fraction(232, 63)


def test_sigma_squares_back_to_vstar():
    for m in (wp.Model.uniform(6), wp.Model.geometric(Fraction(1, 4))):
        v, s = wp.vstar_sigma(m)
        assert abs(s * s - float(v)) <= 1e-12 * max(1.0, float(v))


def test_small_n_rejected():
    for fn in (wp.mean_perimeter, wp.variance_perimeter, wp.mu3_dominant):
        with pytest.raises(ValueError):
            fn(wp.Model.uniform(3), 1)
    with pytest.raises(ValueError):
        wp.moment_report(wp.Model.uniform(3), 0)


def test_assembly_equals_closed_small_sweep():
    # quick version of the acceptance sweep
    for k in range(1, 7):
        m = wp.Model.uniform(k)
        for n in range(2, 13):
            assert mo.mean_assembly(m)(n) == mo.mean_closed(m)(n)
            assert mo.variance_assembly(m)(n) == mo.variance_closed(m)(n)
    for p in (Fraction(1, 3), Fraction(4, 5)):
        g = wp.Model.geometric(p)
        for n in range(2, 13):
            assert mo.mean_assembly(g)(n) == mo.mean_closed(g)(n)
            assert mo.variance_assembly(g)(n) == mo.variance_closed(g)(n)


def test_mu3_three_routes_agree():
    for k in range(1, 9):
        m = wp.Model.uniform(k)
        closed = mo.mu3_rate_closed(m)
        assert mo.mu3_rate_assembly(m) == closed
        assert mo.mu3_rate_assembly(m, centered=True) == closed
    g = wp.Model.geometric(Fraction(2, 3))
    assert mo.mu3_rate_assembly(g) == mo.mu3_rate_closed(g)


def test_positivity():
    for k in range(3, 13):
        m = wp.Model.uniform(k)
        assert wp.variance_perimeter(m, 5) > 0
        assert mo.mu3_rate_closed(m) > 0
    assert mo.mu3_rate_closed(wp.Model.uniform(1)) == 0
    assert mo.mu3_rate_closed(wp.Model.uniform(2)) == 0


def test_moment_report_consistency():
    for model in (wp.Model.uniform(6), wp.Model.geometric(Fraction(1, 2))):
        rep = wp.moment_report(model, 20)
        assert rep.m == 19
        assert rep.mean_P == rep.mean_R + 2 * rep.n
        assert rep.mean_R == rep.mean_Q + 2 * xm.cross_moment_closed(model, (1, 0, 0, 0))
        assert rep.var_P >= 0
        assert abs(rep.sigma**2 - float(rep.vstar)) < 1e-12 * max(1.0, float(rep.vstar))
        d = rep.as_dict()
        assert d["var_P"]["exact"] == str(rep.var_P)
        assert math.isclose(d["var_P"]["decimal"], float(rep.var_P))


@pytest.mark.parametrize("table, idx, guarded, message", [
    ("UNIFORM_CLOSED", (1, 0, 0, 0), lambda m: wp.mean_perimeter(m, 12), "mean routes"),
    ("UNIFORM_CLOSED", (0, 1, 1, 1), lambda m: wp.mu3_dominant(m, 12), "mu3 routes"),
    # the uncentered guard passes; only the centered assembly sees this entry
    ("UNIFORM_CLOSED_CENTERED", (0, 1, 1, 1), lambda m: wp.mu3_dominant(m, 12),
     "mu3 centered routes"),
    ("UNIFORM_CLOSED", (0, 2, 0, 0), wp.vstar_sigma, r"V\* routes"),
], ids=["mean", "mu3", "mu3-centered", "vstar"])
def test_each_route_guard_detects_a_corrupted_closed_form(monkeypatch, table, idx, guarded,
                                                          message):
    broken = dict(getattr(xm, table))
    broken[xm.MomentIndex(*idx)] = lambda m: Fraction(1, 7)
    monkeypatch.setattr(xm, table, broken)
    with pytest.raises(mo.RouteDisagreement, match=message):
        guarded(wp.Model.uniform(5))


def test_a_route_disagreement_past_the_int_to_str_limit_is_named_by_its_digits():
    with pytest.raises(mo.RouteDisagreement) as exc:
        mo._agreed("mean", "m", Fraction(10**5000), Fraction(1))
    assert str(exc.value) == "mean routes disagree at m: <5001 digits> vs 1"


def test_form_arithmetic_and_evaluation():
    n = mo.Form((0, 1))
    m = n - 1
    assert m.coefficients == (-1, 1)
    cancelled = 3 * (m - 1) - m * 3 + mo.Form((0, 0, 0))  # the n terms cancel, and stay as a zero
    assert cancelled.coefficients == (-3, 0, 0)
    assert (Fraction(1, 2) * m + 3).coefficients == (Fraction(5, 2), Fraction(1, 2))
    assert (m * Fraction(1, 2)).coefficients == (Fraction(-1, 2), Fraction(1, 2))
    assert (3 + m).coefficients == (2, 1)
    assert (m + m).coefficients == (-2, 2) and (2 * m).coefficients == (-2, 2)  # not tuple ops
    assert cancelled(7) == -3 and isinstance(cancelled(7), Fraction)
    with pytest.raises(TypeError):  # a form multiplies by numbers only
        m * m


def test_moments_are_forms_of_degree_one_in_n():
    for model in (wp.Model.uniform(6), wp.Model.geometric(Fraction(1, 2))):
        mean, var = mo.mean_closed(model), mo.variance_closed(model)
        assert len(mean.coefficients) == len(var.coefficients) == 2
        assert var.coefficients[1] == wp.vstar_sigma(model)[0]
        for n in (2, 3, 500):
            assert mean(n) == wp.mean_perimeter(model, n)
            assert var(n) == wp.variance_perimeter(model, n)
    assert mo.variance_closed(wp.Model.uniform(6)).coefficients[1] == Fraction(259, 108)


def test_model_form_and_report_are_tuples_of_their_fields():
    model = wp.Model.geometric(Fraction(1, 3))
    form = mo.mean_closed(wp.Model.uniform(6))
    report = wp.moment_report(wp.Model.uniform(6), 7)
    assert repr(model) == "Model(kind='geometric', k=0, p=Fraction(1, 3))"
    assert repr(form) == "Form(coefficients=(Fraction(91, 18), Fraction(71, 18)))"
    assert repr(report) == (
        "MomentReport(model=Model(kind='uniform', k=6, p=Fraction(0, 1)), n=7, m=6, "
        "mean_P=Fraction(98, 3), mean_R=Fraction(56, 3), mean_Q=Fraction(35, 3), "
        "var_P=Fraction(1610, 81), mu3_dominant=Fraction(16016, 729), vstar=Fraction(259, 108), "
        "sigma=1.548595540529595)")
    for record in (model, form, report):
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields and hash(record) == hash(fields)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):  # no instance dict to take a new name
            record.extra = None
    # _replace stands in for dataclasses.replace, and a model's validates as its constructor does
    assert report._replace(n=8).n == 8 and form._replace(coefficients=(1,))(5) == 1
    assert model._replace(p=Fraction(1, 2)) == wp.Model.geometric(Fraction(1, 2))
    assert type(wp.Model.uniform(6)._replace(k=np.int64(7)).k) is int
    with pytest.raises(ValueError, match="geometric model needs rational 0 < p < 1, got 2"):
        model._replace(p=Fraction(2))
    with pytest.raises(ValueError, match="uniform model needs integer k >= 1, got 0"):
        wp.Model.uniform(6)._replace(k=0)


# ---------------------------------------------------------------------------
# cumulants of the gap sum against an integer count
# ---------------------------------------------------------------------------

def gap_sum_cumulants_by_count(k: int, m_max: int) -> dict:
    """{m: (kappa_2, kappa_3)} of Q_m under uniform[1,k], from integer word counts.

    counts[(l, q)] is the number of words of m + 1 letters whose last letter
    is l and whose gap sum is q; each step appends one letter.
    """
    counts = {(l, 0): 1 for l in range(1, k + 1)}
    out = {}
    for m in range(1, m_max + 1):
        step = {}
        for (l, q), c in counts.items():
            for nxt in range(1, k + 1):
                key = (nxt, q + abs(nxt - l))
                step[key] = step.get(key, 0) + c
        counts = step
        words = k ** (m + 1)
        mu = [Fraction(sum(c * q**j for (_, q), c in counts.items()), words) for j in (1, 2, 3)]
        out[m] = (mu[1] - mu[0] ** 2, mu[2] - 3 * mu[1] * mu[0] + 2 * mu[0] ** 3)
    return out


SOURCES = {
    "closed": (xm.cross_moment_closed, False),
    "oracle": (xm.cross_moment_oracle, False),
    "centered-oracle": (xm.cross_moment_oracle, True),
}


@pytest.mark.parametrize("source", SOURCES)
def test_gap_sum_cumulant_equals_an_integer_count(source):
    fn, centered = SOURCES[source]
    for k in range(1, 9):
        model = wp.Model.uniform(k)
        counted = gap_sum_cumulants_by_count(k, 10)
        for r in (2, 3):
            form = mo.gap_sum_cumulant(model, r, fn, centered)
            for m in range(r - 1, 11):
                assert form(m + 1) == counted[m][r - 2], (k, r, m)


def test_gap_sum_cumulant_constants_at_k6():
    model = wp.Model.uniform(6)
    kappa2, kappa3 = (mo.gap_sum_cumulant(model, r) for r in (2, 3))
    # kappa_r(Q_m) = c_r + m kappa_r*; m = 0 is n = 1
    assert (kappa2(1), kappa2.coefficients[1]) == (Fraction(-28, 81), Fraction(259, 108))
    assert (kappa3(1), kappa3.coefficients[1]) == (Fraction(-368, 243), Fraction(2288, 729))
    assert kappa2.coefficients[1] == mo.variance_closed(model).coefficients[1]
    assert kappa3.coefficients[1] == mo.mu3_rate_closed(model)
    # below m = r - 1 the line need not hold, and the count sees it
    assert gap_sum_cumulants_by_count(6, 1)[1][1] == Fraction(938, 729)
    assert kappa3(2) == Fraction(1184, 729)


def test_gap_sum_cumulant_orders_and_centering():
    model = wp.Model.geometric(Fraction(1, 2))
    M = xm.cross_moment_closed(model, (0, 1, 0, 0))
    assert mo.gap_sum_cumulant(model, 1).coefficients == (-M, M)  # E(Q_m) = m M
    assert mo.gap_sum_cumulant(model, 1, xm.cross_moment_oracle, centered=True)(9) == 0
    assert mo.gap_sum_cumulant(model, np.int64(2)) == mo.gap_sum_cumulant(model, 2)
    for r in (0, 4, True, 2.0):
        with pytest.raises(ValueError, match="cumulant order"):
            mo.gap_sum_cumulant(model, r)


def test_each_cumulant_is_derived_once(monkeypatch):
    mo._cumulant_terms.cache_clear()
    for model in (wp.Model.uniform(5), wp.Model.geometric(Fraction(1, 3))):
        for r in (1, 2, 3):
            mo.gap_sum_cumulant(model, r)
            mo.gap_sum_cumulant(model, r, xm.cross_moment_oracle, centered=True)
    info = mo._cumulant_terms.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (6, 6, 6)
