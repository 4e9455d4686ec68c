import functools
import hashlib
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import moments as mo
from wordperim import verification as ver


def test_small_sweep_passes():
    checks = wp.run_verification(k_max=4, p_list=[Fraction(1, 2)], random_words=300)
    assert all(c.passed for c in checks)
    report = wp.format_report(checks)
    assert "FAIL" not in report
    assert f"{len(checks)}/{len(checks)} identities pass" in report


def test_instance_counts_are_reported():
    checks = wp.run_verification(k_max=2, p_list=[Fraction(1, 2)], random_words=50)
    assert all(c.instances > 0 for c in checks)
    assert dict(zip(ver.CHECKS, checks))["random"].instances == 50


def test_each_check_id_names_one_report_line_in_order():
    names = [c.name for c in wp.run_verification(k_max=1, p_list=[], random_words=0)]
    assert list(zip(ver.CHECKS, names, strict=True)) == [
        ("pmf", "gap pmf closed form vs letter-pair convolution"),
        ("uniform", "cross-moment closed forms vs oracle (uniform)"),
        ("geometric", "cross-moment closed forms vs oracle (geometric)"),
        ("reversibility", "gap-pair reversibility T[0,1,2] == T[0,2,1] (oracle)"),
        ("centering", "centering identities T~ == T - M**2 (oracle, uniform)"),
        ("independence", "independent gaps E(y1 y3) == M**2 (oracle, middle marginalized)"),
        ("mean", "mean assembly (oracle cross-moments) vs closed form"),
        ("variance", "variance tuple-count assembly (oracle) vs closed form"),
        ("mu3", "mu3* routes: uncentered combination, centered combination, closed"),
        ("vstar", "V* routes: (T02 - M**2) + 2(T011 - M**2) vs closed form"),
        ("decomposition", "mean decomposition mean_P - mean_R == 2n"),
        ("exhaustive", "perimeter identity, exhaustive small words"),
        ("random", "perimeter identity, randomized larger words"),
    ]


def test_a_check_without_instances_reads_skip():
    checks = [ver.IdentityCheck("compared", instances=3), ver.IdentityCheck("empty"),
              ver.IdentityCheck("broken", failures=["x: 1 != 2"])]
    assert [c.passed for c in checks] == [True, True, False]
    assert wp.format_report(checks).splitlines() == [
        "PASS  compared  instances=3      max_dev=0.000e+00",
        "SKIP  empty     instances=0      max_dev=0.000e+00",
        "FAIL  broken    instances=0      max_dev=0.000e+00",
        "      offending: x: 1 != 2",
        "1/3 identities pass over 3 instances; SKIPPED: empty; FAILED: broken",
    ]


def test_a_failure_beyond_float_range_reads_inf():
    chk = ver.IdentityCheck("huge")
    chk.exact(Fraction(10**400), Fraction(0), "huge")
    assert (chk.passed, chk.instances, chk.max_deviation) == (False, 1, math.inf)
    assert wp.format_report([chk]).splitlines() == [
        "FAIL  huge  instances=1      max_dev=inf",
        f"      offending: huge: {10**400} != 0",
        "0/1 identities pass over 1 instances; FAILED: huge",
    ]


def test_a_failure_past_the_int_to_str_limit_is_named_by_its_digits():
    # str() of an int of more than 4300 digits raises ValueError
    chk = ver.IdentityCheck("huge")
    chk.exact(Fraction(10**5000), Fraction(-7, 3 * 10**4400), "huge")
    assert (chk.passed, chk.instances, chk.max_deviation) == (False, 1, math.inf)
    assert chk.failures == ["huge: <5001 digits> != -7/<4401 digits>"]


def test_an_empty_p_list_skips_the_geometric_cross_moments():
    checks = wp.run_verification(k_max=2, p_list=[], random_words=0)
    assert all(c.passed for c in checks)
    skipped = ["cross-moment closed forms vs oracle (geometric)",
               "perimeter identity, randomized larger words"]
    assert [c.name for c in checks if c.instances == 0] == skipped
    lines = wp.format_report(checks).splitlines()
    assert [line.split("  ")[1] for line in lines if line.startswith("SKIP")] == skipped
    assert lines[-1].startswith("11/13 identities pass over ")
    assert lines[-1].endswith(f"; SKIPPED: {', '.join(skipped)}")


def test_mu3_zero_at_k_two():
    # the sweep covers k=2 where every mu3 route is exactly 0
    checks = wp.run_verification(k_max=2, p_list=[], random_words=10)
    assert dict(zip(ver.CHECKS, checks))["mu3"].passed


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
    checks = dict(zip(ver.CHECKS, wp.run_verification(k_max=3, p_list=p_list, random_words=0)))
    assert all(c.passed and c.max_deviation == 0 for c in checks.values())
    # two routes per model each: the centered ones run for geometric letters too
    assert checks["mu3"].instances == 10
    assert checks["vstar"].instances == 10
    # 21 masses and the sum over the support per geometric model
    assert checks["pmf"].instances == 9 + 3 + 2 * 22


def test_perimeter_mismatches_name_unpadded_words(monkeypatch):
    real = ver.perimeters_from_edges

    def off_by_one_on_short_words(words):
        return [edges + (len(word) < 5) for word, edges in zip(words, real(words))]

    monkeypatch.setattr(ver, "perimeters_from_edges", off_by_one_on_short_words)
    for check in (ver.check_perimeter_exhaustive(), ver.check_perimeter_random(2000, seed=3)):
        assert not check.passed
        assert 1 <= len(check.failures) <= 5
        for failure in check.failures:
            word = re.fullmatch(r"word \(([\d, ]+)\): P=(\d+) edges=(\d+)", failure)
            assert word, failure
            letters = [int(x) for x in word[1].split(",")]
            # the named word is the word's letters, nothing more
            assert min(letters) >= 1 and 2 <= len(letters) < 5
            assert int(word[2]) == wp.perimeter_decomposed(letters).P
            assert int(word[3]) == wp.perimeter_edge_count(letters) + 1
        assert "FAIL" in wp.format_report([check])


def test_run_verification_times_each_check():
    checks = wp.run_verification(k_max=2, p_list=[Fraction(1, 2)], random_words=10)
    assert all(c.seconds > 0 for c in checks)


# ---------------------------------------------------------------------------
# the random perimeter check against a reference that reads one word at a time
# ---------------------------------------------------------------------------

def reference_random_words(count, seed):
    """The random check's words in word order, read one at a time from the documented layout.

    Word i is row i % 2048 of window i // 2048: 64 bytes of the SHAKE-128
    digest keyed by the ASCII text "seed,window".  Its first two little-endian
    uint16 values u0 and u1 give n = 2 + (u0*59 >> 16) and k = 2 + (u1*29 >> 16),
    and the n bytes b after them the letters 1 + (b*k >> 8).  A whole window's
    digest is read even when ``count`` ends inside it.
    """
    for i in range(count):
        window, row = divmod(i, 2048)
        if row == 0:
            digest = hashlib.shake_128(f"{seed},{window}".encode()).digest(2048 * 64)
        u0, u1 = struct.unpack_from("<2H", digest, 64 * row)
        n, k = 2 + (u0 * 59 >> 16), 2 + (u1 * 29 >> 16)
        yield tuple(1 + (b * k >> 8) for b in digest[64 * row + 4 : 64 * row + 4 + n]), k


def record_route_words(monkeypatch):
    """Lists of (word, P) and (word, edge count), in call order, of the words the routes get."""
    seen_p, seen_edges = [], []
    real_gaps, real_edges = ver.perimeters_from_gaps, ver.perimeters_from_edges

    def recording_gaps(words):
        breakdowns = real_gaps(words)
        seen_p.extend((tuple(word), p) for word, (_, _, p) in zip(words, breakdowns))
        return breakdowns

    def recording_edges(words):
        edges = real_edges(words)
        seen_edges.extend(zip(map(tuple, words), edges))
        return edges

    monkeypatch.setattr(ver, "perimeters_from_gaps", recording_gaps)
    monkeypatch.setattr(ver, "perimeters_from_edges", recording_edges)
    return seen_p, seen_edges


def test_random_failures_are_the_first_in_draw_order(monkeypatch):
    real = ver.perimeters_from_edges

    def off_by_one_on_short_words(words):
        return [edges + (len(word) < 5) for word, edges in zip(words, real(words))]

    monkeypatch.setattr(ver, "perimeters_from_edges", off_by_one_on_short_words)
    expected = []
    for word, _ in reference_random_words(2000, seed=3):
        p = wp.perimeter_decomposed(word).P
        edges = wp.perimeter_edge_count(word) + (len(word) < 5)
        if p != edges:
            expected.append(f"word {word}: P={p} edges={edges}")
        if len(expected) == 5:
            break
    check = ver.check_perimeter_random(2000, seed=3)
    assert len(expected) == 5
    assert check.failures == expected


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097, 8193])
def test_grouped_random_check_equals_ungrouped_reference(monkeypatch, count):
    # the check reads each window's letters with one translate a word and gives
    # the routes whole windows; the reference reads one word at a time, one
    # letter at a time.  Both routes get every word, in order.
    seen_p, seen_edges = record_route_words(monkeypatch)
    check = ver.check_perimeter_random(count, seed=11)
    words = [word for word, _ in reference_random_words(count, seed=11)]
    assert check.passed and check.instances == count == len(words)
    assert seen_p == [(word, wp.perimeter_decomposed(word).P) for word in words]
    assert seen_edges == [(word, wp.perimeter_edge_count(word)) for word in words]


def checked_words(count, seed):
    """The words ``check_perimeter_random(count, seed)`` gives the routes, in order."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen_p, _ = record_route_words(monkeypatch)
        check = ver.check_perimeter_random(count, seed)
    assert check.passed and check.instances == count
    return [word for word, _ in seen_p]


@functools.lru_cache(maxsize=1)
def ten_thousand_words(seed):
    return [word for word, _ in reference_random_words(10000, seed)]


@pytest.mark.parametrize("count", [0, 1, 3, 2047, 2048, 2049, 5000, 6149, 10000])
def test_random_words_are_a_prefix_of_a_longer_run(count):
    # a word's place in the stream does not depend on the count: the words of
    # count=5000 are the first 5000 of count=10000
    assert checked_words(count, seed=5) == ten_thousand_words(5)[:count]


def test_random_words_cover_every_shape_and_both_letter_ends():
    # three windows: every n in 2..60 and k in 2..30 occurs, and each k draws
    # its letters from [1, k] with both 1 and k drawn
    lengths, letters = set(), {}
    for word, k in reference_random_words(3 * 2048, seed=0):
        lengths.add(len(word))
        letters.setdefault(k, set()).update(word)
    assert lengths == set(range(2, 61))
    assert sorted(letters) == list(range(2, 31))
    for k, drawn in letters.items():
        assert min(drawn) == 1 and max(drawn) == k


@pytest.mark.parametrize("k", range(2, 31))
def test_each_letter_table_is_near_uniform_on_one_to_k(k):
    table = ver._LETTER_TABLES[k]
    assert table == bytes(1 + (b * k >> 8) for b in range(256))
    counts = [table.count(letter) for letter in range(256)]
    assert [letter for letter in range(256) if counts[letter]] == list(range(1, k + 1))
    assert {counts[letter] for letter in range(1, k + 1)} <= {256 // k, 256 // k + 1}


@pytest.mark.parametrize("bad", [-1, -(2**70), True, False, 1.0, 2.5, "3", None, Fraction(3)])
def test_random_check_rejects_a_bad_count_or_seed(bad):
    with pytest.raises(ValueError, match="count must be a non-negative integer"):
        ver.check_perimeter_random(bad, seed=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ver.check_perimeter_random(10, seed=bad)
    with pytest.raises(ValueError, match="random_words must be a non-negative integer"):
        wp.run_verification(k_max=1, p_list=[], random_words=bad)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        wp.run_verification(k_max=1, p_list=[], seed=bad)


@pytest.mark.parametrize("bad", [0, -1, True, 1.0, "3", None])
def test_run_verification_rejects_a_bad_k_max(bad):
    with pytest.raises(ValueError, match=r"k_max must be an integer >= 1, got "):
        wp.run_verification(k_max=bad, p_list=[])


def test_run_verification_validates_before_any_check(monkeypatch):
    monkeypatch.setattr(ver, "check_gap_pmf", lambda models: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="seed"):
        wp.run_verification(seed=-1)


@pytest.mark.parametrize("size", ["k_max"])
def test_run_verification_validates_sizes_before_any_check(monkeypatch, size):
    monkeypatch.setattr(ver, "check_gap_pmf", lambda models: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=size):
        wp.run_verification(**{size: 0})


def test_run_verification_takes_the_smallest_sizes_and_numpy_integers():
    checks = wp.run_verification(k_max=np.int64(1), p_list=[], random_words=np.uint8(0))
    assert all(c.passed for c in checks)
    assert dict(zip(ver.CHECKS, checks))["variance"].instances == 37  # n = 4..40 of the one model


@pytest.mark.parametrize("cast", [np.int8, np.uint16, np.int64, np.uint64])
def test_numpy_integer_count_and_seed_check_the_same_words(cast):
    assert checked_words(cast(120), seed=cast(7)) == checked_words(120, seed=7)


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
    checks = wp.run_verification(k_max=3, p_list=[Fraction(1, 2), "1/4"], random_words=10)
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


# ---------------------------------------------------------------------------
# forms compared by their coefficients; values at each n only name failures
# ---------------------------------------------------------------------------

MODELS = [wp.Model.uniform(4), wp.Model.geometric(Fraction(1, 3))]


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
    assert ver.check_mean(MODELS).instances == 2 * 39
    assert ver.check_variance(MODELS).instances == 2 * 37


