import hashlib
import json
from fractions import Fraction
from pathlib import Path

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


def test_xmoment_geometric_oracle_is_exact(capsys):
    code, out, _ = run(
        capsys, "xmoment", "--model", "geometric", "--p", "1/2", "--index", "0,2,0,0",
    )
    assert code == 0
    closed, oracle = json.loads(out)["results"]
    assert (closed["method"], oracle["method"]) == ("closed_form", "brute_force")
    assert oracle["exact"] == closed["exact"] == "4"
    assert set(oracle) == {"method", "exact", "decimal"}  # no truncation_bound: nothing is cut


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


def test_verify_tiny_p_is_exact(capsys):
    # the letter support of p = 1e-6 is unbounded and long; the oracle sums all of it
    code, out, _ = run(
        capsys, "verify", "--k-max", "2", "--p-list", "1/1000000", "--n-max", "5",
        "--random-words", "0",
    )
    assert code == 0 and "FAIL" not in out
    geometric = next(line for line in out.splitlines() if "(geometric)" in line)
    assert geometric.endswith("max_dev=0.000e+00")


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


def test_verify_times_go_to_stderr_only(capsys):
    argv = ["verify", "--k-max", "2", "--p-list", "1/2", "--n-max", "5", "--random-words", "20"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == wp.format_report(wp.run_verification(
        k_max=2, p_list=[Fraction(1, 2)], n_max=5, random_words=20)) + "\n"
    assert " s  " not in out and "time" not in out
    names = [line.split(" s  ", 1)[1] for line in err.splitlines()]
    assert len(names) == 13 and all(name in out for name in names)
    # a second run prints the same stdout bytes whatever its timings
    assert run(capsys, *argv)[1] == out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p-list", "1/0"], "--p-list"),
        (["--p-list", "2"], "--p-list"),
        (["--p-list", "abc"], "--p-list"),
        (["--p-list", "1/2,"], "--p-list"),
        (["--n-max", "1"], "--n-max"),
        (["--k-max", "0"], "--k-max"),
        (["--random-words", "-3"], "--random-words"),
        (["--seed", "-1"], "--seed"),
        (["--n-max", "3"], "--n-max must be >= 4, got 3"),  # the variance check starts at 4
    ],
)
def test_verify_bad_arguments_exit_one(capsys, flags, message):
    code, out, err = run(capsys, "verify", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_verify_zero_random_words(capsys):
    code, out, _ = run(
        capsys, "verify", "--k-max", "2", "--p-list", "1/2", "--n-max", "5", "--random-words", "0",
    )
    assert code == 0
    assert "randomized larger words" in out and "FAIL" not in out


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


def test_simulate_geometric_p_below_float_resolution(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "simulate", "--model", "geometric", "--p", "1/100000000000000000", "--m", "5",
        "--trajectories", "3", "--seed", "1", "--out", str(out),
    )
    assert code == 1
    assert stdout == "" and not out.exists()
    assert err.startswith("error: geometric p = 1/100000000000000000 is too small")


@pytest.mark.parametrize("flags, message", [
    (["--m", "5", "--trajectories", "3", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
    (["--m", "5", "--trajectories", "3", "--seed", str(2**64)], "seed must be"),
    # endpoint mode: 1.6e15 bytes are refused before anything is allocated
    (["--m", "1", "--trajectories", str(10**14), "--seed", "1"], "budget is 2147483648"),
], ids=["negative-seed", "seed-2**64", "huge-N"])
def test_simulate_bad_inputs_exit_one(capsys, tmp_path, flags, message):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "simulate", "--model", "uniform", "--k", "6", *flags,
                            "--out", str(out))
    assert code == 1
    assert stdout == "" and not out.exists()
    assert err.startswith("error: ") and message in err


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

    for p in ("1/2", "1/100000"):  # the plot range is found in a bounded scan, whatever p
        out = tmp_path / "pmf.svg"
        code, _, _ = run(
            capsys, "plot", "--kind", "pmf", "--model", "geometric", "--p", p, "--out", str(out)
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

    # histogram CSVs: a short row, and a header without rows
    _, hist, _, code, _ = full_pipeline(capsys, tmp_path)
    assert code == 0
    header, *rows = hist.read_text().splitlines(keepends=True)
    short = rows[2].rsplit(",", 1)[0] + "\n"
    for text, where in ((header + rows[0] + rows[1] + short + "".join(rows[3:]), "line 4"),
                        (header, "no data rows")):
        hist.write_text(text)
        for kind in ("histogram", "cumulative"):
            code, out, err = run(
                capsys, "plot", "--kind", kind, "--input", str(hist),
                "--out", str(tmp_path / "x.svg"),
            )
            assert code == 1 and out == "" and "Traceback" not in err
            assert err.startswith("error: histogram CSV") and where in err


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


# ---------------------------------------------------------------------------
# golden bytes
# ---------------------------------------------------------------------------

# sha256 of what the commands write and print.  Manifests record the flags, so
# every run uses relative paths inside tmp_path.
HISTOGRAM_GOLDEN = {
    "1/2": {
        "hist.csv": "7a22252ce1774ef86d36fea24a2cc442a54b6f648ee70a23a6b20b50d37bf07b",
        "gof.json": "157b4fa4e81c20cfe2ae2267bdf59d38d585ffc8504168cbe2c744fdefa3295f",
        "hist.csv.manifest.json": "7b595fbd439305aae1198a4cfc6298abcd3e4e239cf45accc2326782cf8faba6",
        "histogram.svg": "5c17ff1a535fc41ee8ed837e0d88551c21ac11273c69d96e11c59e7bfb05a550",
        "cumulative.svg": "30a4e1dc4b7116a9f9e0e4beb5e042fc8d286151624735faa055dcee67f7307d",
        "stdout": "0a25e6389af86d8fbeec447ea716a9b987cff1d8d2179f299796c4d7e48f7711",
    },
    "1/3": {
        "hist.csv": "8ce3a97906157cb9275949e09d0c779057f2c955eb32c2fdb95789d11d64c798",
        "gof.json": "138e58024eb8b8c5ee2238c8b00c92d77406110d0dab812c4a28c8b937da66e4",
        "hist.csv.manifest.json": "6134f4806d9cbd501e5e9a97295bd3f3db0220deff52e458883f1dfab135e170",
        "histogram.svg": "1cc8cc7b9cba3f492e42d2bca96de1c27f9946fc204f13eafe7266289aea76c5",
        "cumulative.svg": "b6394918bfc5e9ddd629ec65adb5c35a1c1494114edfe1e2df6646375bdd04ce",
        "stdout": "375fd0fc40646f15bba0899e3189802802d3443ef290e3f03b93b38e27db1f55",
    },
}
SIMULATE_GOLDEN = {
    "uniform": {
        "ens.json": "2a4af69d8c9c68a3ce836e586165c312ac2ba49214bb30851089baa7d23a0153",
        "ens.csv.manifest.json": "cdeb2dabb0288b39e7704dfbee688396b1543c96d4fa006d0bccfeda1ea2ae05",
        "stdout": "85a1b5802790c7644ed1e8436ad47227930c44f64d6909012bc340fc5987e29e",
    },
    "geometric": {
        "ens.json": "96667f9271c8567ce1617bef37482d3d3c016df2bd463effa6a09f7a5a90e7b6",
        "ens.csv.manifest.json": "94854dfbdc7b80fbb5833e2113666e5030e9bb05ad9a83bfa400f62d4aef5277",
        "stdout": "287942e16bfe357b116b35753f48bfb921df7f4cd68a436e879b1d268bbe3c05",
    },
}
RENDER_GOLDEN = {
    "poly.svg": "74ff2ba93c64babfc28d574c69b3ba7992a8929780249393ad42629431745ef8",
    "poly.svg.manifest.json": "c84caa4e2663f440e03d0e3adca0cb169b5ccea4015f747835ba8618b8dde84d",
    "stdout": "8f905e9d2adf44d2449466f7108662ea32c51b4381f588923414025177b99c94",
}
XMOMENT_GOLDEN = {
    "uniform-both": "866b4776d91685cc57134437fe720786f5904f60452ccf2eb81a384a1ac34351",
    "uniform-centered-both": "cff21af9c92759e434bd6b66a07c9ce1016d7afcf15159c2438e50351332ac04",
    "geometric-both": "131608a751ff00628175a0cb7d202a2282b01f135405c1644ec85e42fcbc970b",
    "geometric-centered-oracle": "f38f1a20dd2e1922532c6efbbc2116c6076e96b08c412d511aab4e99c0d1b7bc",
}


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: str, *names: str) -> dict:
    """sha256 of each named file in the working directory, and of ``out`` as "stdout"."""
    found = {name: sha256_hex(Path(name).read_bytes()) for name in names}
    found["stdout"] = sha256_hex(out.encode("utf-8"))
    return found


@pytest.mark.parametrize("delta", ["1/2", "1/3"])
def test_histogram_outputs_golden(capsys, tmp_path, monkeypatch, delta):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *simulate_args("ens.csv", n="2000"))[0] == 0
    code, out, _ = run(capsys, "histogram", "--input", "ens.csv", "--delta", delta,
                       "--out", "hist.csv", "--gof", "gof.json")
    assert code == 0
    for kind in ("histogram", "cumulative"):
        assert run(capsys, "plot", "--kind", kind, "--input", "hist.csv",
                   "--out", f"{kind}.svg")[0] == 0
    assert digests(out, "hist.csv", "gof.json", "hist.csv.manifest.json",
                   "histogram.svg", "cumulative.svg") == HISTOGRAM_GOLDEN[delta]


@pytest.mark.parametrize("model", [["uniform", "--k", "6"], ["geometric", "--p", "1/2"]],
                         ids=lambda model: model[0])
def test_simulate_sidecar_golden(capsys, tmp_path, monkeypatch, model):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "simulate", "--model", *model, "--m", "50",
                       "--trajectories", "200", "--seed", "3", "--out", "ens.csv")
    assert code == 0
    assert digests(out, "ens.json", "ens.csv.manifest.json") == SIMULATE_GOLDEN[model[0]]


def test_render_svg_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "render", "--word", "2,3,1,3,5,1", "--out", "poly.svg")
    assert code == 0
    assert digests(out, "poly.svg", "poly.svg.manifest.json") == RENDER_GOLDEN


@pytest.mark.parametrize("case, argv", [
    ("uniform-both", ["uniform", "--k", "6", "--index", "0,1,1,0", "--method", "both"]),
    ("uniform-centered-both",
     ["uniform", "--k", "6", "--index", "0,1,1,0", "--centered", "--method", "both"]),
    ("geometric-both", ["geometric", "--p", "1/3", "--index", "0,1,2,0", "--method", "both"]),
    # no centered geometric closed form is tabulated, so only the oracle answers
    ("geometric-centered-oracle",
     ["geometric", "--p", "1/3", "--index", "0,2,1,0", "--centered", "--method", "oracle"]),
])
def test_xmoment_stdout_golden(capsys, case, argv):
    code, out, _ = run(capsys, "xmoment", "--model", *argv)
    assert code == 0
    assert sha256_hex(out.encode("utf-8")) == XMOMENT_GOLDEN[case]
