import json
from fractions import Fraction

import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_uniform_json(capsys):
    code, out, _ = run(capsys, "moments", "--model", "uniform", "--k", "6", "--n", "500")
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["var_P"]["exact"]) == Fraction(1947505, 1620)
    assert Fraction(doc["mean_P"]["exact"]) == Fraction(35591, 18)
    assert doc["vstar"]["exact"] == "259/108"


def test_moments_trivial_uniform(capsys):
    code, out, _ = run(capsys, "moments", "--model", "uniform", "--k", "1", "--n", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_P"]["exact"] == "22"
    assert doc["var_P"]["exact"] == "0"


def test_moments_geometric_csv(capsys):
    code, out, _ = run(
        capsys, "moments", "--model", "geometric", "--p", "1/2", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,exact,decimal"
    cells = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert cells["mean_P"] == "28/3"


def test_moments_validation_failures(capsys):
    code, _, err = run(capsys, "moments", "--model", "uniform", "--k", "6", "--n", "1")
    assert code == 1 and "n" in err
    code, _, err = run(capsys, "moments", "--model", "uniform", "--k", "0", "--n", "5")
    assert code == 1
    code, _, err = run(capsys, "moments", "--model", "uniform", "--n", "5")
    assert code == 1 and "--k" in err
    code, _, err = run(capsys, "moments", "--model", "geometric", "--p", "7/2", "--n", "5")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--model", "cauchy", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--model", "geometric", "--p", "zebra", "--n", "5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# xmoment
# ---------------------------------------------------------------------------

def test_xmoment_both_methods(capsys):
    code, out, _ = run(
        capsys, "xmoment", "--model", "uniform", "--k", "6", "--index", "0,1,1,0"
    )
    assert code == 0
    doc = json.loads(out)
    values = {r["method"]: r["exact"] for r in doc["results"]}
    assert values == {"closed_form": "427/108", "brute_force": "427/108"}


def test_xmoment_geometric_reports_truncation(capsys):
    code, out, _ = run(
        capsys, "xmoment", "--model", "geometric", "--p", "1/2", "--index", "0,2,0,0",
        "--method", "oracle",
    )
    assert code == 0
    doc = json.loads(out)
    (res,) = doc["results"]
    assert res["truncation_bound"] < 1e-8


def test_xmoment_no_closed_form(capsys):
    code, _, err = run(
        capsys, "xmoment", "--model", "uniform", "--k", "6", "--index", "0,1,0,1",
        "--method", "closed",
    )
    assert code == 1 and "oracle" in err


def test_xmoment_rejects_centered_letter(capsys):
    code, _, err = run(
        capsys, "xmoment", "--model", "uniform", "--k", "6", "--index", "1,1,0,0",
        "--centered", "--method", "oracle",
    )
    assert code == 1


def test_xmoment_bad_index(capsys):
    code, _, err = run(
        capsys, "xmoment", "--model", "uniform", "--k", "6", "--index", "0,9,0,0"
    )
    assert code == 1 and "index" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--k-max", "3", "--p-list", "1/2", "--n-max", "6",
        "--random-words", "100",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_names_corrupted_identity(capsys, monkeypatch):
    broken = dict(xm.UNIFORM_CLOSED)
    broken[xm.MomentIndex(0, 3, 0, 0)] = lambda m: 0 * m.k
    monkeypatch.setattr(xm, "UNIFORM_CLOSED", broken)
    code, out, _ = run(
        capsys, "verify", "--k-max", "3", "--p-list", "1/2", "--n-max", "6",
        "--random-words", "50",
    )
    assert code == 1
    assert "FAIL" in out
    assert "cross-moment closed forms vs oracle (uniform)" in out


# ---------------------------------------------------------------------------
# simulate / histogram / plot / render
# ---------------------------------------------------------------------------

def simulate_args(out, n="300", paths=False, seed="3"):
    argv = [
        "simulate", "--model", "uniform", "--k", "6", "--m", "50",
        "--trajectories", n, "--seed", seed, "--out", str(out),
    ]
    if paths:
        argv.append("--paths")
    return argv


def test_simulate_writes_files_and_stats(capsys, tmp_path):
    out = tmp_path / "ens.csv"
    code, stdout, _ = run(capsys, *simulate_args(out))
    assert code == 0
    assert out.exists()
    assert (tmp_path / "ens.json").exists()
    manifest = json.loads((tmp_path / "ens.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"ens.csv", "ens.json"}
    assert "mean(z)" in stdout and "theory m*mu3*" in stdout
    header = out.read_text().splitlines()[0]
    assert header == "trajectory,endpoint,z"


def test_simulate_anchor_printed(capsys, tmp_path):
    out = tmp_path / "tiny.csv"
    code, stdout, _ = run(
        capsys, "simulate", "--model", "uniform", "--k", "6", "--m", "500",
        "--trajectories", "1", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    assert "1569.272976" in stdout


def test_simulate_rerun_identical_bytes(capsys, tmp_path):
    out1, out2 = tmp_path / "a" / "e.csv", tmp_path / "b" / "e.csv"
    assert run(capsys, *simulate_args(out1))[0] == 0
    assert run(capsys, *simulate_args(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a" / "e.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "e.csv.manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_simulate_validation(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--model", "uniform", "--k", "6", "--m", "0",
        "--trajectories", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1


def full_pipeline(capsys, tmp_path):
    ens = tmp_path / "ens.csv"
    hist = tmp_path / "hist.csv"
    gof = tmp_path / "gof.json"
    assert run(capsys, *simulate_args(ens, n="2000"))[0] == 0
    code, out, _ = run(
        capsys, "histogram", "--input", str(ens), "--delta", "1/2",
        "--out", str(hist), "--gof", str(gof),
    )
    return ens, hist, gof, code, out


def test_histogram_pipeline(capsys, tmp_path):
    ens, hist, gof, code, out = full_pipeline(capsys, tmp_path)
    assert code == 0
    assert hist.read_text().splitlines()[0] == "i,left,right,center,count,freq,gauss_mass"
    doc = json.loads(gof.read_text())
    assert set(doc) == {"ks_statistic", "max_cell_abs_error"}
    assert "ks_statistic" in out
    manifest = json.loads((tmp_path / "hist.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"hist.csv", "gof.json"}


def test_histogram_rejects_wrong_schema(capsys, tmp_path):
    paths_csv = tmp_path / "paths.csv"
    assert run(capsys, *simulate_args(paths_csv, n="20", paths=True))[0] == 0
    code, _, err = run(
        capsys, "histogram", "--input", str(paths_csv), "--out", str(tmp_path / "h.csv")
    )
    assert code == 1 and "endpoint" in err


def test_histogram_rejects_bad_delta(capsys, tmp_path):
    ens = tmp_path / "ens.csv"
    assert run(capsys, *simulate_args(ens, n="50"))[0] == 0
    code, _, err = run(
        capsys, "histogram", "--input", str(ens), "--delta", "5/7",
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 1 and "6/delta" in err


def test_plot_kinds(capsys, tmp_path):
    ens, hist, gof, code, _ = full_pipeline(capsys, tmp_path)
    assert code == 0
    paths_csv = tmp_path / "paths.csv"
    assert run(capsys, *simulate_args(paths_csv, n="20", paths=True))[0] == 0

    for kind, source in [
        ("trajectory", paths_csv),
        ("normalized", paths_csv),
        ("histogram", hist),
        ("cumulative", hist),
    ]:
        out = tmp_path / f"{kind}.svg"
        code, _, _ = run(capsys, "plot", "--kind", kind, "--input", str(source), "--out", str(out))
        assert code == 0, kind
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    out = tmp_path / "pmf.svg"
    code, _, _ = run(
        capsys, "plot", "--kind", "pmf", "--model", "geometric", "--p", "1/2", "--out", str(out)
    )
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_plot_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        code, _, _ = run(
            capsys, "plot", "--kind", "pmf", "--model", "uniform", "--k", "6", "--out", str(out)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_input_validation(capsys, tmp_path):
    code, _, err = run(
        capsys, "plot", "--kind", "trajectory", "--out", str(tmp_path / "x.svg")
    )
    assert code == 1 and "--input" in err
    ens = tmp_path / "ens.csv"
    assert run(capsys, *simulate_args(ens, n="20"))[0] == 0
    code, _, err = run(
        capsys, "plot", "--kind", "trajectory", "--input", str(ens),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 1  # endpoint CSV is not a path CSV
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--kind", "pmf", "--out", str(tmp_path / "p.svg")])
    assert exc.value.code == 2


def test_malformed_csv_inputs_exit_one(capsys, tmp_path):
    paths_csv = tmp_path / "paths.csv"
    assert run(capsys, *simulate_args(paths_csv, n="5", paths=True))[0] == 0
    lines = paths_csv.read_text().splitlines(keepends=True)
    paths_csv.write_text("".join(lines[:3] + lines[4:]))  # drop row j = 2 of path 0
    code, _, err = run(
        capsys, "plot", "--kind", "normalized", "--input", str(paths_csv),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 1 and err.startswith("error: path CSV") and "Traceback" not in err
    assert "line 4" in err

    ens = tmp_path / "ens.csv"
    ens.write_text("trajectory,endpoint,z\n0,3,0.5\n1,2\n")
    code, _, err = run(
        capsys, "histogram", "--input", str(ens), "--out", str(tmp_path / "h.csv")
    )
    assert code == 1 and err.startswith("error: endpoint CSV") and "Traceback" not in err


def test_plot_trajectory_out_of_range(capsys, tmp_path):
    paths_csv = tmp_path / "paths.csv"
    assert run(capsys, *simulate_args(paths_csv, n="5", paths=True))[0] == 0
    code, _, err = run(
        capsys, "plot", "--kind", "trajectory", "--input", str(paths_csv),
        "--trajectory", "99", "--out", str(tmp_path / "x.svg"),
    )
    assert code == 1 and "out of range" in err


def test_render(capsys, tmp_path):
    out = tmp_path / "poly.svg"
    code, stdout, _ = run(capsys, "render", "--word", "2,3,1,3", "--out", str(out))
    assert code == 0
    assert "P=18" in stdout
    svg = out.read_text()
    assert svg.count(" L ") == 18
    assert (tmp_path / "poly.svg.manifest.json").exists()


def test_render_rejects_bad_word(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--word", "2,zebra", "--out", str(tmp_path / "x.svg"))
    assert code == 1
    code, _, err = run(capsys, "render", "--word", "0,3", "--out", str(tmp_path / "x.svg"))
    assert code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert wp.__version__ in capsys.readouterr().out
