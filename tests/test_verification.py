import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import moments as mo
from wordperim import polyomino as po
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
    check = ver.check_cross_moments_uniform([wp.Model.uniform(k) for k in range(1, 5)])
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
    check = ver.check_cross_moments_geometric([wp.Model.geometric(Fraction(1, 3))])
    assert not check.passed and 0 < check.max_deviation < 1e-25
    assert any("T(0, 1, 1, 0)" in f for f in check.failures)


def test_perimeter_mismatches_name_unpadded_words(monkeypatch):
    real = ver._edge_count

    def off_by_one_on_short_words(words):
        edges = real(words)
        return edges + (np.count_nonzero(words, axis=1) < 5)

    monkeypatch.setattr(ver, "_edge_count", off_by_one_on_short_words)
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


def test_a_broken_decomposition_fails_both_perimeter_checks(monkeypatch):
    # the decomposition side of the identity: P one too large on short words
    real = ver._decomposed

    def off_by_one_on_short_words(letters, n):
        b = real(letters, n)
        return b._replace(P=b.P + (n < 5))

    monkeypatch.setattr(ver, "_decomposed", off_by_one_on_short_words)
    for check in (ver.check_perimeter_exhaustive(), ver.check_perimeter_random(2000, seed=3)):
        assert not check.passed
        assert len(check.failures) == 5
        for failure in check.failures:
            word = re.fullmatch(r"word \(([\d, ]+)\): P=(\d+) edges=(\d+)", failure)
            assert word, failure
            letters = [int(x) for x in word[1].split(",")]
            assert 2 <= len(letters) < 5
            assert int(word[2]) == wp.perimeter_decomposed(letters).P + 1
            assert int(word[3]) == wp.perimeter_edge_count(letters)
        assert "FAIL" in wp.format_report([check])


def test_run_verification_times_each_check():
    checks = wp.run_verification(k_max=2, p_list=[Fraction(1, 2)], n_max=5, random_words=10)
    assert all(c.seconds > 0 for c in checks)


# ---------------------------------------------------------------------------
# the random perimeter check against an ungrouped reference
# ---------------------------------------------------------------------------

def reference_random_blocks(count, seed):
    """The random check's words in draw order: blocks of _BLOCK_WORDS zero-padded rows."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 61, size=count)
    alphabets = rng.integers(2, 31, size=count)
    for start in range(0, count, ver._BLOCK_WORDS):
        n = lengths[start : start + ver._BLOCK_WORDS]
        k = alphabets[start : start + ver._BLOCK_WORDS]
        words = rng.integers(1, k[:, None] + 1, size=(n.size, int(n.max())))
        words[np.arange(words.shape[1]) >= n[:, None]] = 0
        yield words


def unpadded(row):
    return tuple(int(x) for x in row[row > 0])


def test_random_failures_are_the_first_in_draw_order(monkeypatch):
    real = ver._edge_count

    def off_by_one_on_short_words(words):
        return real(words) + (np.count_nonzero(words, axis=1) < 5)

    monkeypatch.setattr(ver, "_edge_count", off_by_one_on_short_words)
    expected = []
    for word in (unpadded(row) for block in reference_random_blocks(2000, seed=3) for row in block):
        p = wp.perimeter_decomposed(word).P
        edges = wp.perimeter_edge_count(word) + (len(word) < 5)
        if p != edges:
            expected.append(f"word {word}: P={p} edges={edges}")
        if len(expected) == 5:
            break
    check = ver.check_perimeter_random(2000, seed=3)
    assert len(expected) == 5
    assert check.failures == expected


@pytest.mark.parametrize("count", [0, 1, 3, ver._WINDOW_WORDS - 1, ver._WINDOW_WORDS,
                                   ver._WINDOW_WORDS + 1, 3 * ver._WINDOW_WORDS + 5])
def test_word_shapes_equal_one_shot_draws(count):
    chunked, one_shot = np.random.default_rng(9), np.random.default_rng(9)
    lengths, alphabets = ver._word_shapes(chunked, count)
    assert lengths.dtype == alphabets.dtype == np.uint8
    assert lengths.tolist() == one_shot.integers(2, 61, size=count).tolist()
    assert alphabets.tolist() == one_shot.integers(2, 31, size=count).tolist()
    # the letters drawn next are the same too
    assert chunked.integers(1, 31, size=50).tolist() == one_shot.integers(1, 31, size=50).tolist()


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097, 8193])
def test_grouped_random_check_equals_ungrouped_reference(monkeypatch, count):
    seen_p, seen_edges = Counter(), Counter()
    real_decomposed, real_edges = ver._decomposed, ver._edge_count

    def recording_decomposed(words, n):
        b = real_decomposed(words, n)
        seen_p.update(zip(map(unpadded, words), b.P.tolist()))
        return b

    def recording_edges(words):
        edges = real_edges(words)
        seen_edges.update(zip(map(unpadded, words), edges.tolist()))
        return edges

    monkeypatch.setattr(ver, "_decomposed", recording_decomposed)
    monkeypatch.setattr(ver, "_edge_count", recording_edges)
    check = ver.check_perimeter_random(count, seed=11)
    want_p, want_edges = Counter(), Counter()
    for block in reference_random_blocks(count, seed=11):
        words = [unpadded(row) for row in block]
        want_p.update(zip(words, wp.perimeter_decomposed_batch(block).P.tolist()))
        want_edges.update(zip(words, wp.perimeter_edge_count_batch(block).tolist()))
    assert check.passed and check.instances == count
    assert sum(want_p.values()) == count
    assert seen_p == want_p and seen_edges == want_edges


# ---------------------------------------------------------------------------
# models built once per run; moments compared as forms in n
# ---------------------------------------------------------------------------

def test_every_check_of_a_run_sees_the_same_models(monkeypatch):
    seen = {}  # check name -> the Model objects among its arguments
    for name in [n for n in vars(ver) if n.startswith("check_")]:
        real = getattr(ver, name)

        def recording(*args, _real=real, _name=name):
            models = [m for a in args if isinstance(a, list) for m in a]
            seen[_name] = models
            return _real(*args)

        monkeypatch.setattr(ver, name, recording)
    oracle_models = set()
    real_oracle = xm.cross_moment_oracle

    def recording_oracle(model, idx, centered=False):
        oracle_models.add(id(model))
        return real_oracle(model, idx, centered)

    monkeypatch.setattr(xm, "cross_moment_oracle", recording_oracle)
    checks = wp.run_verification(k_max=3, p_list=[Fraction(1, 2), "1/4"], n_max=6,
                                 random_words=10)
    assert all(c.passed for c in checks)
    everything = seen["check_gap_pmf"]
    assert everything == [wp.Model.uniform(1), wp.Model.uniform(2), wp.Model.uniform(3),
                          wp.Model.geometric(Fraction(1, 2)), wp.Model.geometric(Fraction(1, 4))]
    ids = {id(m) for m in everything}
    for name, models in seen.items():
        assert {id(m) for m in models} <= ids, name
    split = seen["check_cross_moments_uniform"] + seen["check_cross_moments_geometric"]
    assert {id(m) for m in split} == ids
    assert oracle_models == ids


def test_mean_decomposition_catches_an_off_by_one_gap_sum(monkeypatch):
    models = [wp.Model.uniform(3), wp.Model.geometric(Fraction(1, 2))]
    assert ver.check_mean_decomposition(models, 10).passed
    real = mo.mean_gap_sum
    monkeypatch.setattr(mo, "mean_gap_sum", lambda model, n: real(model, n + 1))
    check = ver.check_mean_decomposition(models, 10)
    assert not check.passed and check.instances == 6
    assert len(check.failures) == 5


def perturbed_variance_assembly(monkeypatch, extra):
    real = mo.variance_assembly
    monkeypatch.setattr(mo, "variance_assembly",
                        lambda model, source=xm.cross_moment_closed: real(model, source) + extra)


MODELS = [wp.Model.uniform(4), wp.Model.geometric(Fraction(1, 3))]


@pytest.mark.parametrize("extra, vstar_fails", [
    (mo.Form((0, 0, Fraction(1, 10**9))), False),  # a nonzero n**2 coefficient
    (mo.Form((0, Fraction(1, 10**9))), True),      # a wrong slope, V*
    (mo.Form((Fraction(1, 10**9),)), False),       # a wrong constant
], ids=["n-squared", "slope", "constant"])
def test_perturbed_variance_form_fails_its_checks(monkeypatch, extra, vstar_fails):
    assert ver.check_variance(MODELS, 8).passed and ver.check_vstar(MODELS).passed
    perturbed_variance_assembly(monkeypatch, extra)
    variance = ver.check_variance(MODELS, 8)
    assert not variance.passed and variance.instances == 2 * 5
    assert len(variance.failures) == 5  # the first five n, all failing
    assert [f.split(":")[0] for f in variance.failures] == [
        f"{MODELS[0].describe()} n={n}" for n in range(4, 9)]
    vstar = ver.check_vstar(MODELS)
    assert vstar.passed is not vstar_fails
    if vstar_fails:  # the assembly's slope is off; the centered combination still holds
        assert [f.split(":")[0] for f in vstar.failures] == [m.describe() for m in MODELS]


# ---------------------------------------------------------------------------
# forms compared by their coefficients; values at each n only name failures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lhs, rhs", [((1, 2, 0), (1, 2)), ((1, 2), (1, 2, 0, 0))],
                         ids=["assembly-longer", "closed-longer"])
def test_forms_differing_only_by_trailing_zeros_pass(lhs, rhs):
    check = ver._check_forms("forms", MODELS, range(4, 9),
                             lambda model, source: mo.Form(lhs), lambda model: mo.Form(rhs))
    assert check.passed and check.instances == 2 * 5 and check.max_deviation == 0


def test_equal_coefficients_need_no_evaluation(monkeypatch):
    def no_evaluation(form, n):
        raise AssertionError("equal forms were evaluated")

    monkeypatch.setattr(mo.Form, "__call__", no_evaluation)
    assert ver.check_mean(MODELS, 40).instances == 2 * 39
    assert ver.check_variance(MODELS, 40).instances == 2 * 37


@pytest.mark.parametrize("check, assembly, closed, first_n", [
    (ver.check_mean, "mean_assembly", mo.mean_closed, 2),
    (ver.check_variance, "variance_assembly", mo.variance_closed, 4),
])
def test_a_form_off_by_a_multiple_of_n4_n5_fails_at_every_other_n(monkeypatch, check, assembly,
                                                                    closed, first_n):
    eps = Fraction(1, 10**9)
    real = getattr(mo, assembly)
    monkeypatch.setattr(mo, assembly, lambda model, source=xm.cross_moment_closed: real(
        model, source) + mo.Form((20 * eps, -9 * eps, eps)))  # eps (n - 4)(n - 5)
    got = check(MODELS, 9)
    # the reference evaluates both forms at each n, as the check did before
    # it compared coefficients
    ref = ver.IdentityCheck(got.name)
    for m in MODELS:
        lhs, rhs = getattr(mo, assembly)(m, source=xm.cross_moment_oracle), closed(m)
        for n in range(first_n, 10):
            ref.exact(lhs(n), rhs(n), f"{m.describe()} n={n}")
    assert (got.instances, got.failures, got.max_deviation) == (
        ref.instances, ref.failures, ref.max_deviation)
    assert got.max_deviation == float(eps * 20)  # at n = 9, (9 - 4)(9 - 5) = 20
    failing_n = [n for n in range(first_n, 10) if n not in (4, 5)]
    names = [f"{m.describe()} n={n}" for m in MODELS for n in failing_n]
    assert [f.split(":")[0] for f in got.failures] == names[:5]


def test_each_perimeter_block_is_validated_once(monkeypatch):
    seen = {"verification": 0, "polyomino": 0}
    for module, name in ((ver, "verification"), (po, "polyomino")):
        real = module._check_batch

        def counting(words, _real=real, _name=name):
            seen[_name] += 1
            return _real(words)

        monkeypatch.setattr(module, "_check_batch", counting)
    check = ver.check_perimeter_exhaustive()
    blocks = sum(-(-k**n // ver._KERNEL_WORDS) for k, n in ver.EXHAUSTIVE_PERIMETER)
    assert check.passed
    assert seen == {"verification": blocks, "polyomino": 0}
