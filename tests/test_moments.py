import math
from fractions import Fraction

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
    assert mo.variance_assembly(g, 10) == mo.variance_closed(g, 10)
    assert wp.variance_perimeter(g, 10) == mo.variance_closed(g, 10)


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
            assert mo.mean_assembly(m, n) == mo.mean_closed(m, n)
            assert mo.variance_assembly(m, n) == mo.variance_closed(m, n)
    for p in (Fraction(1, 3), Fraction(4, 5)):
        g = wp.Model.geometric(p)
        for n in range(2, 13):
            assert mo.mean_assembly(g, n) == mo.mean_closed(g, n)
            assert mo.variance_assembly(g, n) == mo.variance_closed(g, n)


def test_mu3_three_routes_agree():
    for k in range(1, 9):
        m = wp.Model.uniform(k)
        closed = mo.mu3_rate_closed(m)
        assert mo.mu3_rate_assembly(m) == closed
        assert mo.mu3_rate_centered_assembly(m) == closed
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


def test_route_disagreement_detected(monkeypatch):
    # corrupt one closed form; the dual-route moment must refuse to return
    idx = xm.MomentIndex(0, 1, 1, 0)
    broken = dict(xm.UNIFORM_CLOSED)
    broken[idx] = lambda m: Fraction(1, 7)
    monkeypatch.setattr(xm, "UNIFORM_CLOSED", broken)
    with pytest.raises(mo.RouteDisagreement):
        wp.variance_perimeter(wp.Model.uniform(5), 12)


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
