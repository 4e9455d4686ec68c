import re
from fractions import Fraction

import numpy as np

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import verification as ver


def test_small_sweep_passes():
    checks = wp.run_verification(k_max=4, p_list=[Fraction(1, 2)], n_max=8, random_words=300)
    assert all(c.passed for c in checks)
    report = wp.format_report(checks)
    assert "FAIL" not in report
    assert f"{len(checks)}/{len(checks)} identities pass" in report


def test_instance_counts_are_reported():
    checks = wp.run_verification(k_max=2, p_list=[Fraction(1, 2)], n_max=5, random_words=50)
    assert all(c.instances > 0 for c in checks)
    by_name = {c.name: c for c in checks}
    random_chk = by_name["perimeter identity, randomized larger words"]
    assert random_chk.instances == 50


def test_mu3_zero_at_k_two():
    # the sweep covers k=2 where every mu3 route is exactly 0
    checks = wp.run_verification(k_max=2, p_list=[], n_max=5, random_words=10)
    by_name = {c.name: c for c in checks}
    assert by_name[
        "mu3* routes: uncentered combination, centered combination, closed"
    ].passed


def test_corrupted_closed_form_is_caught(monkeypatch):
    broken = dict(xm.UNIFORM_CLOSED)
    broken[xm.MomentIndex(0, 2, 0, 0)] = lambda m: Fraction(1, 9)
    monkeypatch.setattr(xm, "UNIFORM_CLOSED", broken)
    check = ver.check_cross_moments_uniform(k_max=4)
    assert not check.passed
    assert any("T(0, 2, 0, 0)" in f for f in check.failures)
    report = wp.format_report([check])
    assert "FAIL" in report and "cross-moment closed forms vs oracle (uniform)" in report


def test_geometric_models_run_every_route_exactly():
    p_list = [Fraction(1, 10**6), Fraction(1, 2)]
    checks = {c.name: c for c in wp.run_verification(k_max=3, p_list=p_list, n_max=6, random_words=0)}
    assert all(c.passed and c.max_deviation == 0 for c in checks.values())
    # two routes per model each: the centered ones run for geometric letters too
    assert checks["mu3* routes: uncentered combination, centered combination, closed"].instances == 10
    assert checks["V* routes: (T02 - M**2) + 2(T011 - M**2) vs closed form"].instances == 10
    # 21 masses and the sum over the support per geometric model
    assert checks["gap pmf closed form vs letter-pair convolution"].instances == 9 + 3 + 2 * 22


def test_corrupted_geometric_closed_form_is_caught(monkeypatch):
    broken = dict(xm.GEOMETRIC_CLOSED)
    real = broken[xm.MomentIndex(0, 1, 1, 0)]
    broken[xm.MomentIndex(0, 1, 1, 0)] = lambda m: real(m) * (1 + Fraction(1, 10**30))
    monkeypatch.setattr(xm, "GEOMETRIC_CLOSED", broken)
    check = ver.check_cross_moments_geometric([Fraction(1, 3)])
    assert not check.passed and 0 < check.max_deviation < 1e-25
    assert any("T(0, 1, 1, 0)" in f for f in check.failures)


def test_perimeter_mismatches_name_unpadded_words(monkeypatch):
    real = ver.perimeter_edge_count_batch

    def off_by_one_on_short_words(words):
        edges = real(words)
        return edges + (np.count_nonzero(words, axis=1) < 5)

    monkeypatch.setattr(ver, "perimeter_edge_count_batch", off_by_one_on_short_words)
    for check in (ver.check_perimeter_exhaustive(), ver.check_perimeter_random(2000, seed=3)):
        assert not check.passed
        assert 1 <= len(check.failures) <= 5
        for failure in check.failures:
            word = re.fullmatch(r"word \(([\d, ]+)\): P=(\d+) edges=(\d+)", failure)
            assert word, failure
            letters = [int(x) for x in word[1].split(",")]
            # the named word is the row without its padding zeros
            assert min(letters) >= 1 and 2 <= len(letters) < 5
            assert int(word[2]) == wp.perimeter_decomposed(letters).P
            assert int(word[3]) == wp.perimeter_edge_count(letters) + 1
        assert "FAIL" in wp.format_report([check])


def test_run_verification_times_each_check():
    checks = wp.run_verification(k_max=2, p_list=[Fraction(1, 2)], n_max=5, random_words=10)
    assert all(c.seconds > 0 for c in checks)
