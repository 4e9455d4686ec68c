"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line on success (run pytest with -s to see
them stream; they also appear in captured output).  The Monte Carlo criteria
run on the frozen seed from conftest (ACCEPTANCE_SEED).
"""

import json
import math
from fractions import Fraction
import numpy as np

import wordperim as wp
from wordperim import moments as mo
from wordperim import verification as ver
from wordperim.cli import main

from conftest import ACCEPTANCE_SEED

MU3_ANCHOR = 1569.272976680384  # 500 * mu3* at k=6, exact value 1144000/729


def ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_exact_formula_reproduction(capsys):
    # closed forms == cross-moment assembly, exactly, k in 1..12, n in 2..40
    for k in range(1, 13):
        model = wp.Model.uniform(k)
        for n in range(2, 41):
            assert mo.mean_assembly(model, n) == mo.mean_closed(model, n), (k, n)
            assert mo.variance_assembly(model, n) == mo.variance_closed(model, n), (k, n)
    # and the CLI emits those exact rationals
    assert main(["moments", "--model", "uniform", "--k", "6", "--n", "500"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_P"]["exact"] == str(mo.mean_closed(wp.Model.uniform(6), 500))
    assert Fraction(doc["var_P"]["exact"]) == Fraction(1947505, 1620)
    with capsys.disabled():
        ok("criterion 1: closed-form mean/variance == assembly exactly for k=1..12, n=2..40")


def test_criterion_2_mu3_anchor(capsys):
    anchor = wp.mu3_dominant(wp.Model.uniform(6), 500)
    assert anchor == Fraction(1144000, 729)
    assert abs(float(anchor) - MU3_ANCHOR) <= 1e-6 * MU3_ANCHOR
    assert f"{float(anchor):.9f}".startswith("1569.272976680")
    # the simulate command prints the anchor as its theoretical comparator
    out_csv = "/tmp/wordperim_anchor.csv"
    assert main([
        "simulate", "--model", "uniform", "--k", "6", "--m", "500",
        "--trajectories", "1", "--seed", "0", "--out", out_csv,
    ]) == 0
    printed = capsys.readouterr().out
    assert "1569.272976" in printed
    with capsys.disabled():
        ok("criterion 2: m*mu3* printed as 1569.272976... (>= 9 significant digits)")


def test_criterion_3_oracle_sweep(capsys):
    checks = [
        ver.check_cross_moments_uniform(12),
        ver.check_cross_moments_geometric(ver.DEFAULT_P_LIST),
    ]
    for c in checks:
        assert c.passed, wp.format_report([c])
    # every comparison is exact: the oracle sums the whole geometric support
    assert checks[0].max_deviation == 0.0 and checks[1].max_deviation == 0.0
    with capsys.disabled():
        ok("criterion 3: all tabulated closed forms equal the quadruple-sum oracle exactly "
           "(uniform and geometric)")


def test_criterion_4_perimeter_identity(capsys):
    assert wp.perimeter_edge_count([2, 3, 1, 3]) == 18
    exhaustive = ver.check_perimeter_exhaustive()
    assert exhaustive.passed and exhaustive.instances == sum(
        k**n for k, n in ver.EXHAUSTIVE_PERIMETER
    )
    rand = ver.check_perimeter_random(100000, seed=ACCEPTANCE_SEED)
    assert rand.passed and rand.instances == 100000
    with capsys.disabled():
        ok(
            f"criterion 4: perimeter identity on {exhaustive.instances} exhaustive "
            "+ 100000 random words, zero mismatches; (2,3,1,3) -> 18"
        )


def test_criterion_5_monte_carlo_limits(k6_endpoints, capsys):
    stats = wp.empirical_moments(k6_endpoints)
    assert abs(stats.mean_z - 0.0) <= 0.02
    assert abs(stats.meansq_z - 1.0) <= 0.03
    assert abs(stats.sum_z3_raw - MU3_ANCHOR) <= 0.40 * MU3_ANCHOR
    with capsys.disabled():
        ok(
            f"criterion 5: N=100000, m=500, seed={ACCEPTANCE_SEED}: "
            f"mean(z)={stats.mean_z:+.4f} (<=0.02), mean(z^2)={stats.meansq_z:.4f} "
            f"(within 0.03), third={stats.sum_z3_raw:.1f} (within 40% of {MU3_ANCHOR:.2f})"
        )


def test_criterion_6_gaussian_fit(k6_endpoints, capsys):
    report = wp.goodness_of_fit(k6_endpoints.z, Fraction(1, 2))
    assert report.max_cell_abs_error <= 0.01
    assert report.ks_statistic <= 0.01
    with capsys.disabled():
        ok(
            f"criterion 6: delta=1/2 histogram max cell error "
            f"{report.max_cell_abs_error:.5f} <= 0.01, KS {report.ks_statistic:.5f} <= 0.01"
        )


def test_criterion_7_brownian_marginals(k6_paths, capsys):
    m = k6_paths.config.m
    N = k6_paths.config.trajectories
    assert N >= 20000 and m == 500
    devs = []
    for t in (0.25, 0.5, 0.75):
        j = int(m * t)
        w = (k6_paths.paths[:, j] - float(k6_paths.mean_gap) * m * t) / (
            k6_paths.sigma * math.sqrt(m)
        )
        # standard error of the sample variance of a N(0, t) sample
        se = t * math.sqrt(2.0 / N)
        dev = abs(float(np.var(w)) - t)
        devs.append((t, dev, 5 * se))
        assert dev <= 5 * se, (t, dev, 5 * se)
    with capsys.disabled():
        detail = ", ".join(f"t={t}: |var-t|={d:.4f}<= {b:.4f}" for t, d, b in devs)
        ok(f"criterion 7: Brownian marginal variances ({detail})")


def test_criterion_8_determinism(tmp_path, capsys):
    # the exact same command lines, run twice into the same paths
    ens = tmp_path / "ens.csv"
    hist = tmp_path / "hist.csv"

    def one_round():
        assert main([
            "simulate", "--model", "uniform", "--k", "6", "--m", "500",
            "--trajectories", "2000", "--seed", str(ACCEPTANCE_SEED),
            "--out", str(ens),
        ]) == 0
        assert main([
            "histogram", "--input", str(ens), "--delta", "1/2",
            "--out", str(hist), "--gof", str(tmp_path / "gof.json"),
        ]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    first = one_round()
    second = one_round()
    capsys.readouterr()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    m1 = json.loads(first["ens.csv.manifest.json"])
    m2 = json.loads(second["ens.csv.manifest.json"])
    assert m1["outputs"] == m2["outputs"]
    with capsys.disabled():
        ok(
            "criterion 8: identical simulate/histogram reruns produce byte-identical "
            f"outputs ({', '.join(sorted(first))})"
        )
