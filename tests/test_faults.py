"""Every check of ``verify`` shows it can fail: mutation testing by hand (DeMillo, Lipton &
Sayward 1978).  Each row of FAULTS patches one fault into the program and names the checks
that must then print FAIL on one small ``verify`` run; every other check must print PASS.
A row whose set is empty is a fault that no check of ``verify`` catches; its comment names
the tier-1 test that does.
"""

import re
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import models
from wordperim import moments as mo
from wordperim import polyomino as poly
from wordperim import verification as ver
from wordperim.cli import main

from test_verification import reference_random_words

VERIFY = "verify --k-max 4 --p-list 1/3,1/2 --random-words 2000 --seed 3".split()
RUN_MODELS = [wp.Model.uniform(k) for k in range(1, 5)] + [
    wp.Model.geometric(Fraction(1, 3)), wp.Model.geometric(Fraction(1, 2))]
CHECKS = tuple(ver.CHECKS)  # verify's checks in report order, by short id
# the checks that read the oracle
ORACLE_CHECKS = {"uniform", "geometric", "reversibility", "centering", "independence", "mean",
                 "variance", "mu3", "vstar"}
ORACLE = (xm._oracle_cached, xm._stages, models.integer_antidifference)
EPS, E9 = Fraction(1, 10**30), Fraction(1, 10**9)
N4N5 = mo.Form((20 * E9, -9 * E9, E9))  # 10**-9 (n - 4)(n - 5), zero at n = 4 and 5 only


class Fault(NamedTuple):
    id: str
    patch: Callable  # patch(monkeypatch) puts the fault in
    fails: set  # the ids of the checks that print FAIL
    pins: dict = {}  # {check id: {field: value}}: fields of the check in report(out)
    raises: tuple = ()  # (call, message): a moment that must raise RouteDisagreement
    caches: tuple = ()  # the caches the fault reaches, emptied before and after the run


def replace(owner, name, fault):
    """The patch that sets attribute ``name`` of ``owner`` to fault(its real value)."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, fault(getattr(owner, name)))


def after(change):
    """The fault that passes each result of a function through change(result, *args)."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs), *args)


def high_cell(position):
    """The fault that adds a cell at height 31 to the first column of the word at ``position``."""
    def change(columns, block):
        first = 0 if position == 0 else 4 * (sum(map(len, block)) - len(block[-1]))
        columns[first + 3] |= 0x40  # bit 30 of the column's 4-byte field
        return columns
    return after(change)


RANDOM_WORDS = [word for word, _ in reference_random_words(2000, seed=3)]
SHORT_RANDOM = [w for w in RANDOM_WORDS if len(w) < 5]
SHORT_EXHAUSTIVE = [w for k, n in ver.EXHAUSTIVE_PERIMETER if n < 5
                    for w in product(range(1, k + 1), repeat=n)]
BLOCK_ENDS = [(at, name, RANDOM_WORDS[at % poly.BLOCK_WORDS :: poly.BLOCK_WORDS])
              for at, name in [(0, "first-word"), (-1, "last-word")]]
skewed = after(lambda value, *args: value * (1 + EPS))  # a relative error of 10**-30


def offending(words, p=0, edges=0):
    """verify's lines for the first five ``words``, P off by ``p``, the edge count by ``edges``."""
    return [f"word {w}: P={wp.perimeter_decomposed(w).P + p} "
            f"edges={wp.perimeter_edge_count(w) + edges}"
            for w in words[:5]]


U5 = wp.Model.uniform(5)
# the dual-route moment that must refuse to return under a fault of one table entry
GUARDS = {
    ("UNIFORM_CLOSED", (1, 0, 0, 0)): (lambda: wp.mean_perimeter(U5, 12), "mean routes"),
    ("UNIFORM_CLOSED", (0, 1, 1, 0)): (lambda: wp.variance_perimeter(U5, 12), "variance routes"),
    ("UNIFORM_CLOSED", (0, 1, 1, 1)): (lambda: wp.mu3_dominant(U5, 12), "mu3 routes"),
    ("UNIFORM_CLOSED_CENTERED", (0, 1, 1, 1)): (lambda: wp.mu3_dominant(U5, 12),
                                                "mu3 centered routes"),
    ("UNIFORM_CLOSED", (0, 2, 0, 0)): (lambda: wp.vstar_sigma(U5), r"V\* routes"),
}


def closed_table_rows():
    """A relative error of 10**-30 in each entry of the three closed-form tables."""
    for table in ("UNIFORM_CLOSED", "UNIFORM_CLOSED_CENTERED", "GEOMETRIC_CLOSED"):
        kind, entries = table.split("_")[0].lower(), getattr(xm, table)
        centered = "centered " if table.endswith("CENTERED") else ""
        for idx, fn in entries.items():
            values = {m.describe(): fn(m.k if kind == "uniform" else m.p)
                      for m in RUN_MODELS if m.kind == kind}
            pins = {kind: {
                "labels": [f"{name} {centered}T{tuple(idx)}" for name, v in values.items() if v],
                "max_dev": f"{max(abs(float(v * EPS)) for v in values.values()):.3e}"}}
            # E(P)'s assembly route reads T[1,0,0,0] and M from the table
            fails = {kind, "decomposition"} if idx in ((1, 0, 0, 0), (0, 1, 0, 0)) else {kind}
            yield Fault(f"{table}[{''.join(map(str, idx))}]",
                        lambda mp, e=entries, i=idx: mp.setitem(e, i, skewed(e[i])),
                        fails, pins, GUARDS.get((table, idx), ()))


# the checks that read each part (0 the constant, 1 the slope) of kappa_r of the
# gap sum, by (r, centered, part).  No output reads the constants of the
# centered kappa_2 and of kappa_3: test_gap_sum_cumulant_equals_an_integer_count
# (tests/test_moments.py) catches a fault in any of them.
CUMULANT_READERS = {
    (1, False, 0): {"mean", "decomposition"}, (1, False, 1): {"mean", "decomposition"},
    (2, False, 0): {"variance"}, (2, False, 1): {"variance", "vstar"},
    (2, True, 0): set(), (2, True, 1): {"vstar"},
    (3, False, 0): set(), (3, False, 1): {"mu3"},
    (3, True, 0): set(), (3, True, 1): {"mu3"},
}


def cumulant_rows():
    """One unit added to each monomial of each part of ``_cumulant_terms``."""
    for (r, centered, part), fails in CUMULANT_READERS.items():
        for mono in mo._cumulant_terms(r, centered)[part]:
            def change(parts, *order, at=(r, centered), part=part, mono=mono):
                return parts if order != at else tuple(
                    {**p, mono: p[mono] + 1} if i == part else p for i, p in enumerate(parts))
            name = "*".join("T" + "".join(map(str, i)) for i in mono)
            yield Fault(f"kappa{r}{'~' if centered else ''}-{('constant', 'slope')[part]}-{name}",
                        replace(mo, "_cumulant_terms", after(change)), fails,
                        caches=(mo._cumulant_terms,))


def labels(models, ns):
    """The labels of the first five failures of ``models`` at each of ``ns``."""
    return [f"{m.describe()} n={n}" for m in models for n in ns][:5]


FAULTS = [
    *closed_table_rows(),
    *cumulant_rows(),
    # the oracle's gap stage of one exponent, or its sums, with a denominator one too large
    *(Fault(f"_gap_stage-e{e}", replace(xm, "_gap_stage", after(
        lambda out, *args, e=e: (out[0] + 1, out[1]) if args[3] == e else out)), fails,
            caches=ORACLE)
      for e, fails in [(1, ORACLE_CHECKS), (2, ORACLE_CHECKS - {"independence", "mean"}),
                       (3, {"uniform", "geometric", "mu3"})]),
    Fault("_sums", replace(xm, "_sums", after(lambda out, *args: (out[0] + 1, *out[1:]))),
          ORACLE_CHECKS, caches=ORACLE),
    Fault("mean_closed", replace(mo, "mean_closed", skewed), {"mean", "decomposition"}),
    Fault("variance_closed", replace(mo, "variance_closed", skewed), {"variance", "vstar"}),
    Fault("mu3_rate_closed", replace(mo, "mu3_rate_closed", skewed), {"mu3"}),
    Fault("gap_pmf", replace(ver, "gap_pmf", skewed), {"pmf"}),
    # E(P)'s assembly route, off by 2/7 - 2 E(x), raises inside the mean decomposition check
    Fault("UNIFORM_CLOSED[1000]=1/7", lambda mp: mp.setitem(
        xm.UNIFORM_CLOSED, (1, 0, 0, 0), lambda m: Fraction(1, 7)), {"uniform", "decomposition"},
        {"decomposition": {"instances": 18, "offending": [
            f"mean routes disagree at {m.describe()}, n={n}: {c} vs {c + Fraction(2, 7) - m.k - 1}"
            for m, n in product(RUN_MODELS[:2], ver.DECOMPOSITION_NS)
            for c in [mo.mean_closed(m)(n)]][:5]}}),
    Fault("mean_gap_sum-of-n+1", replace(mo, "mean_gap_sum", lambda real: lambda model, n: real(
        model, n + 1)), {"decomposition"},  # uniform[1,1] has M = 0
        {"decomposition": {"instances": 18,
                           "labels": labels(RUN_MODELS[1:], ver.DECOMPOSITION_NS)}}),
    # every n fails but 4 and 5; the deviation is largest at the last n
    *(Fault(f"{assembly}-n4n5", replace(mo, assembly, after(lambda form, *args: form + N4N5)),
            {check, other}, {check: {"instances": len(RUN_MODELS) * len(ns),
                                     "max_dev": f"{float(N4N5(ns[-1])):.3e}",
                                     "labels": labels(RUN_MODELS, [n for n in ns if N4N5(n)])}})
      for assembly, check, other, ns in [
          ("mean_assembly", "mean", "decomposition", ver.MEAN_NS),
          ("variance_assembly", "variance", "vstar", ver.VARIANCE_NS)]),
    *(Fault(f"variance_assembly-{name}", replace(mo, "variance_assembly", after(
        lambda form, *args, extra=mo.Form(extra): form + extra)), {"variance"} | vstar.keys(),
            {"variance": {"instances": len(RUN_MODELS) * len(ver.VARIANCE_NS),
                          "labels": labels(RUN_MODELS, ver.VARIANCE_NS)}, **vstar})
      for name, extra, vstar in [
          ("n-squared", (0, 0, E9), {}), ("constant", (E9,), {}),
          ("slope", (0, E9), {"vstar": {"labels": [m.describe() for m in RUN_MODELS[:5]]}})]),
    # both perimeter routes, on the words of n < 5 and on one word of each block
    *(Fault(f"{side}+1-on-short-words", replace(ver, route, after(lambda values, words, up=up: [
        up(v) if len(w) < 5 else v for v, w in zip(values, words)])), {"exhaustive", "random"},
        {"exhaustive": {"offending": offending(SHORT_EXHAUSTIVE, **off)},
         "random": {"offending": offending(SHORT_RANDOM, **off)}})
      for side, route, up, off in [
          ("edges", "perimeters_from_edges", lambda edges: edges + 1, {"edges": 1}),
          ("P", "perimeters_from_gaps", lambda qrp: (*qrp[:2], qrp[2] + 1), {"p": 1})]),
    # one word of each block.  The first five blocks of the random run are full
    # ones, and no first letter of their words is 30: the extra cell floats.
    *(Fault(f"_gap_sums-{name}", replace(poly, "_gap_sums", after(
        lambda sums, block, at=position: [q + (i == at % len(sums)) for i, q in enumerate(sums)])),
        {"exhaustive", "random"}, {"random": {"instances": 2000, "offending": offending(
            words, p=1)}})
      for position, name, words in BLOCK_ENDS),
    *(Fault(f"_short_columns-{name}", replace(poly, "_short_columns", high_cell(position)),
            {"exhaustive", "random"}, {"random": {"instances": 2000, "offending": offending(
                words, edges=4)}})
      for position, name, words in BLOCK_ENDS),
    # verify's letters stay below 32, so neither one-word fallback runs:
    # test_routes_equal_references_on_random_words and test_edge_kernel_at_word_boundaries
    # (tests/test_polyomino.py) catch both
    Fault("_gap_sum", replace(poly, "_gap_sum", after(lambda q, word: q + 1)), set()),
    Fault("_board", replace(poly, "_board", after(lambda out, word: (out[0] + 1, out[1]))), set()),
]


def report(out: str) -> dict:
    """{check id: {field: value}} of verify's stdout.

    The fields are status, instances, max_dev (as printed), offending (the
    lines) and labels (each offending line up to its first ": ").
    """
    checks = []
    for line in out.splitlines()[:-1]:  # the last line sums the checks up
        if line.startswith("      offending: "):
            checks[-1]["offending"].append(line.split(": ", 1)[1])
        else:
            status, instances, max_dev = re.fullmatch(
                r"(\w+)  .*  instances=(\d+) *max_dev=(\S+)", line).groups()
            checks.append({"status": status, "instances": int(instances), "max_dev": max_dev,
                           "offending": []})
    assert len(checks) == len(CHECKS)
    for check in checks:
        check["labels"] = [line.split(": ")[0] for line in check["offending"]]
    return dict(zip(CHECKS, checks))


@pytest.mark.parametrize("fault", FAULTS, ids=[f.id for f in FAULTS])
def test_verify_catches_the_fault(monkeypatch, capsys, fault):
    for cache in fault.caches:
        cache.cache_clear()
    try:
        fault.patch(monkeypatch)
        code = main(VERIFY)
        if fault.raises:
            call, message = fault.raises
            with pytest.raises(mo.RouteDisagreement, match=message):
                call()
    finally:  # monkeypatch undoes the patch after the test; nothing runs under it after this
        for cache in fault.caches:
            cache.cache_clear()
    checks = report(capsys.readouterr().out)
    failed = {key: check["status"] for key, check in checks.items() if check["status"] != "PASS"}
    assert failed == dict.fromkeys(fault.fails, "FAIL")
    assert code == (1 if fault.fails else 0)
    for key, pin in fault.pins.items():
        assert {field: checks[key][field] for field in pin} == pin, key
