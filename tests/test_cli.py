import hashlib
import json
import shutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import wordperim as wp
from wordperim import cross_moments as xm
from wordperim import simulation
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
    # the CLI's route to the oracle is --method oracle; the default "both" asks for the closed form
    for argv, quantity in [
        (["--k", "6", "--index", "0,1,0,1", "--method", "closed"],
         "T(0, 1, 0, 1) under uniform[1,6]"),
        (["--k", "6", "--index", "0,1,0,1", "--method", "closed", "--centered"],
         "centered T(0, 1, 0, 1) under uniform[1,6]"),
        (["--k", "3", "--index", "1,1,1,1"], "T(1, 1, 1, 1) under uniform[1,3]"),
    ]:
        code, out, err = run(capsys, "xmoment", "--model", "uniform", *argv)
        assert code == 1 and out == ""
        assert err == f"error: no closed form tabulated for {quantity}; use --method oracle\n"


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


@pytest.mark.parametrize("index", ["1,1,1", "1,1,1,1,1"])
def test_xmoment_wrong_number_of_exponents(capsys, index):
    code, out, err = run(capsys, "xmoment", "--model", "uniform", "--k", "3", "--index", index)
    assert code == 1 and out == ""
    assert err == (f"error: bad --index {index!r}: need four comma-separated integer exponents "
                   f"alpha,beta,gamma,delta, got {index.count(',') + 1}\n")


@pytest.mark.parametrize("argv, message", [
    (["moments", "--model", "geometric", "--p", f"1/{10**120}", "--n", "10"],
     f"error: a moment of geometric(1/{10**120}) at n=10 is too large: "),
    (["xmoment", "--model", "geometric", "--index", "0,2,0,0", "--p", f"1/{10**160}"],
     f"error: T(0, 2, 0, 0) of geometric(1/{10**160}) is too large: "),
    # an exact value here has more digits than Python converts to text
    (["moments", "--model", "geometric", "--p", f"{10**400 - 1}/{10**400}", "--n", "10"],
     "error: Exceeds the limit"),
], ids=["moments-float-overflow", "xmoment-float-overflow", "moments-too-many-digits"])
def test_extreme_p_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


# p = 1/10**100: every decimal is still a finite float
@pytest.mark.parametrize("fmt, digest", [
    ("json", "ca07d20ce96f14cd37e62e485225c4637194f49c5ed245e4e5eb1027ab0cadf5"),
    ("csv", "4961883a88b2ca26b76a0accaa637873d408e83db8a4ba1da829f8d4ebf344ff"),
])
def test_moments_at_small_p_keeps_its_bytes(capsys, fmt, digest):
    code, out, _ = run(capsys, "moments", "--model", "geometric", "--p", f"1/{10**100}",
                       "--n", "10", "--format", fmt)
    assert code == 0
    assert sha256_hex(out.encode("utf-8")) == digest


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


def test_verify_reports_a_mean_route_disagreement(capsys, monkeypatch):
    # T[1,0,0,0] feeds mean_perimeter's assembly route, which then raises
    # RouteDisagreement inside the mean decomposition check
    broken = dict(xm.UNIFORM_CLOSED)
    broken[xm.MomentIndex(1, 0, 0, 0)] = lambda m: Fraction(1, 7)
    monkeypatch.setattr(xm, "UNIFORM_CLOSED", broken)
    code, out, _ = run(
        capsys, "verify", "--k-max", "3", "--p-list", "1/2", "--n-max", "6",
        "--random-words", "50",
    )
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 2
    assert "cross-moment closed forms vs oracle (uniform)" in failed[0]
    assert "mean decomposition mean_P - mean_R == 2n" in failed[1]
    assert "instances=12 " in failed[1]  # 3 uniform and 1 geometric model, 3 n each
    assert "offending: mean routes disagree at uniform[1,1], n=2: 6 vs 30/7" in out


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
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("SKIP")] == [
        "SKIP  perimeter identity, randomized larger words                        "
        "instances=0      max_dev=0.000e+00"]
    assert lines[-1] == ("12/13 identities pass over 3077 instances; "
                         "SKIPPED: perimeter identity, randomized larger words")


@pytest.mark.parametrize("flags, random_words", [
    (["--seed", "0"], 10000),
    (["--seed", "18446744073709551615"], 10000),  # 2**64 - 1
    (["--seed", "1180591620717411303424"], 10000),  # 2**70
    (["--random-words", "1"], 1),
    (["--random-words", "2048"], 2048),  # one whole window of words
    (["--random-words", "2049"], 2049),  # and one word of the next
], ids=["seed-0", "seed-2**64-1", "seed-2**70", "one-word", "one-window", "one-window-and-a-word"])
def test_verify_edge_seeds_and_word_counts(capsys, flags, random_words):
    code, out, err = run(capsys, "verify", "--k-max", "2", "--p-list", "1/2", "--n-max", "5", *flags)
    assert code == 0 and err.count("\n") == 13
    lines = out.splitlines()
    assert [line[:6] for line in lines[:-1]] == ["PASS  "] * 13
    assert f"instances={random_words:<6d} " in lines[12]
    assert lines[-1] == f"13/13 identities pass over {3077 + random_words} instances"


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


# p = 1 - 10**-400: float(1 - p) is 0.0, and ln q would be log(0.0)
P_NEAR_ONE = f"{10**400 - 1}/{10**400}"


def test_simulate_geometric_p_too_close_to_one(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "simulate", "--model", "geometric", "--p", P_NEAR_ONE, "--m", "5",
        "--trajectories", "3", "--seed", "1", "--out", str(out),
    )
    assert code == 1
    assert stdout == "" and not out.exists()
    assert err == (f"error: geometric p = {P_NEAR_ONE} is too close to 1 to sample: "
                   "1 - p rounds to 0.0 in float64\n")


# p = 1 - 10**-300 still has float(1 - p) > 0: every draw is the letter 1
SIMULATE_NEAR_ONE_GOLDEN = {
    "ens.csv": "12ac5371aeacc180a91cdda236ad65ac36f8d1a6e96593a149b4f915182bc840",
    "ens.json": "7c44b0f0eed1ce79cd91898e1327e30fee4e07539d0a87ee9f8a6fa521e329b9",
    "ens.csv.manifest.json": "55a244db4ff7758db789cdb1de4b6e00cfcba5cf7f772c5b9da64097dd483fa6",
    "stdout": "2cdd3ec404bc0e41b3023f270f03f667898175e337ab9906b38fbf8b25ae65c8",
}


def test_simulate_geometric_p_just_below_one_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "simulate", "--model", "geometric", "--p",
                       f"{10**300 - 1}/{10**300}", "--m", "5", "--trajectories", "3",
                       "--seed", "1", "--out", "ens.csv")
    assert code == 0
    assert digests(out, "ens.csv", "ens.json", "ens.csv.manifest.json") == \
        SIMULATE_NEAR_ONE_GOLDEN


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


@pytest.mark.parametrize("flags, message", [
    (["--model", "uniform", "--k", str(2**63), "--m", "1", "--trajectories", "3"],
     f"uniform k={2**63} with m=1 would overflow int64: "
     "need k <= 2**63 - 1 and m*(k - 1) <= 2**63 - 1"),
    (["--model", "uniform", "--k", "6", "--m", str(2 * 10**9), "--trajectories", "64"],
     "recording the endpoints and z of 64 trajectories and sampling 64 at a time needs "
     "4096000003072 bytes, budget is 2147483648"),
    (["--model", "geometric", "--p", "1/10000000000000000", "--m", "2000", "--trajectories", "5"],
     "geometric p=1/10000000000000000 with m=2000 would overflow int64: "
     "need m*(L - 1) <= 2**63 - 1 for the largest letter L = 367368005696771008"),
], ids=["k-2**63", "sampler-buffers", "geometric-p-1e-16"])
def test_simulate_refusal_is_one_error_line(capsys, tmp_path, monkeypatch, flags, message):
    monkeypatch.setattr(simulation, "_gap_blocks", lambda *args: pytest.fail("sampled"))
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "simulate", *flags, "--seed", "1", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_simulate_out_naming_its_sidecar_exits_one(capsys, tmp_path):
    # the sidecar of runs/ens.json is runs/ens.json itself: it would overwrite the ensemble
    out = tmp_path / "runs" / "ens.json"
    code, stdout, err = run(capsys, *simulate_args(out))
    assert code == 1 and stdout == ""
    assert err == f"error: --out and the config sidecar both name {out}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("gof, first", [("h.csv", "--out"), ("sub/../h.csv.manifest.json", "the manifest")])
def test_histogram_outputs_naming_one_file_exit_one(capsys, tmp_path, monkeypatch, gof, first):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *simulate_args("ens.csv"))[0] == 0
    code, stdout, err = run(capsys, "histogram", "--input", "ens.csv", "--out", "h.csv",
                            "--gof", gof)
    assert code == 1 and stdout == ""
    assert err == f"error: {first} and --gof both name {gof}\n"
    assert not Path("h.csv").exists() and not Path("h.csv.manifest.json").exists()


def test_histogram_gof_creates_its_directory(capsys, tmp_path):
    ens = tmp_path / "ens.csv"
    gof = tmp_path / "nodir" / "deeper" / "gof.json"
    assert run(capsys, *simulate_args(ens))[0] == 0
    code, _, _ = run(capsys, "histogram", "--input", str(ens), "--out", str(tmp_path / "h.csv"),
                     "--gof", str(gof))
    assert code == 0
    assert set(json.loads(gof.read_text())) == {"ks_statistic", "max_cell_abs_error"}


@pytest.mark.parametrize("command", ["simulate", "histogram", "plot", "render"])
def test_out_naming_a_directory_exits_one(capsys, tmp_path, command):
    ens = tmp_path / "ens.csv"
    assert run(capsys, *simulate_args(ens))[0] == 0
    target = tmp_path / "taken"
    target.mkdir()
    argv = {
        "simulate": simulate_args(target),
        "histogram": ["histogram", "--input", str(ens), "--out", str(target)],
        "plot": ["plot", "--kind", "pmf", "--model", "uniform", "--k", "6", "--out", str(target)],
        "render": ["render", "--word", "2,3,1", "--out", str(target)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: cannot write output: ") and str(target) in err
    assert "Traceback" not in err and list(target.iterdir()) == []


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


def test_histogram_refuses_a_nan_z(capsys, tmp_path):
    ens = tmp_path / "ens.csv"
    ens.write_text("trajectory,endpoint,z\n0,3,0.5\n1,4,nan\n2,5,inf\n")
    hist, gof = tmp_path / "h.csv", tmp_path / "gof.json"
    code, out, err = run(capsys, "histogram", "--input", str(ens), "--out", str(hist),
                         "--gof", str(gof))
    assert (code, out) == (1, "")
    assert err == "error: sample contains NaN\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.csv"]


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


# plot reads one path of a path CSV that simulate's manifest proves, and the
# whole file otherwise; the two routes must give the same bytes and errors

@pytest.fixture
def proven_dir(capsys, tmp_path):
    """A directory holding simulate's paths.csv (N = 7, m = 50), sidecar and manifest."""
    assert run(capsys, *simulate_args(tmp_path / "proven" / "paths.csv", n="7", paths=True))[0] == 0
    return tmp_path / "proven"


def spy_csv_reads(monkeypatch) -> list:
    """The paths ``simulation._read_csv`` is called with from now on."""
    calls, read = [], simulation._read_csv

    def spy(path, *rest):
        calls.append(path)
        return read(path, *rest)

    monkeypatch.setattr(simulation, "_read_csv", spy)
    return calls


def plot_in(capsys, monkeypatch, directory, kind, trajectory, csv="paths.csv"):
    """Run ``plot`` in ``directory`` on ``csv``: its exit code, stdout, stderr and the
    bytes of the SVG and its manifest (None where not written)."""
    monkeypatch.chdir(directory)
    result = run(capsys, "plot", "--kind", kind, "--input", csv,
                 "--trajectory", str(trajectory), "--out", "x.svg")
    files = tuple(Path(name).read_bytes() if Path(name).exists() else None
                  for name in ("x.svg", "x.svg.manifest.json"))
    return result + files


def plain_copy(directory, tmp_path, csv="paths.csv"):
    """A directory with a copy of ``csv`` and its sidecar, and no manifest."""
    plain = tmp_path / "plain"
    plain.mkdir(exist_ok=True)
    for name in (csv, Path(csv).with_suffix(".json").name):
        shutil.copy(directory / name, plain / name)
    return plain


@pytest.mark.parametrize("trajectory", [0, 3, 6])
@pytest.mark.parametrize("kind", ["trajectory", "normalized"])
def test_plot_of_a_proven_csv_reads_one_path(capsys, monkeypatch, tmp_path, proven_dir, kind,
                                             trajectory):
    plain = plain_copy(proven_dir, tmp_path)
    reads = spy_csv_reads(monkeypatch)
    got = plot_in(capsys, monkeypatch, proven_dir, kind, trajectory)
    assert reads == []
    want = plot_in(capsys, monkeypatch, plain, kind, trajectory)
    assert reads == ["paths.csv"]
    assert got[0] == 0 and got == want


@pytest.mark.parametrize("trajectory", [7, 99, -1])
def test_plot_out_of_range_is_the_same_on_both_routes(capsys, monkeypatch, tmp_path, proven_dir,
                                                      trajectory):
    plain = plain_copy(proven_dir, tmp_path)
    reads = spy_csv_reads(monkeypatch)
    got = plot_in(capsys, monkeypatch, proven_dir, "normalized", trajectory)
    assert reads == []
    assert got == plot_in(capsys, monkeypatch, plain, "normalized", trajectory)
    assert got == (1, "", f"error: --trajectory {trajectory} out of range 0..6\n", None, None)


def edit_q(d):  # one Q of the plotted path 0, one higher: still a well-formed grid
    text = (d / "paths.csv").read_text()
    head, row, tail = text.partition("\n0,7,")
    q, rest = tail.split("\n", 1)
    (d / "paths.csv").write_text(f"{head}{row}{int(q) + 1}\n{rest}")
    return "paths.csv"


def edit_manifest(**fields):
    def edit(d):
        path = d / "paths.csv.manifest.json"
        doc = json.loads(path.read_text())
        for key, value in fields.items():
            (doc["flags"] if key in doc["flags"] else doc)[key] = value
        path.write_text(json.dumps(doc))
        return "paths.csv"
    return edit


def rename(d):  # the manifest renamed with it lists paths.csv, not renamed.csv
    for old, new in [("paths.csv", "renamed.csv"), ("paths.json", "renamed.json"),
                     ("paths.csv.manifest.json", "renamed.csv.manifest.json")]:
        (d / old).rename(d / new)
    return "renamed.csv"


def delete_manifest(d):
    (d / "paths.csv.manifest.json").unlink()
    return "paths.csv"


FALLBACKS = {
    "edited-q": edit_q,
    "other-version": edit_manifest(version="0.0.1"),
    "other-command": edit_manifest(command="histogram"),
    "without-paths": edit_manifest(paths="False"),
    "wrong-m": edit_manifest(m="49"),  # proven, but path 0 does not read back with m = 49
    "renamed": rename,
    "no-manifest": delete_manifest,
}


@pytest.mark.parametrize("edit", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_plot_reads_every_other_csv_whole(capsys, monkeypatch, tmp_path, proven_dir, edit):
    unedited = plot_in(capsys, monkeypatch, proven_dir, "trajectory", 0)
    csv = edit(proven_dir)
    plain = plain_copy(proven_dir, tmp_path, csv)
    reads = spy_csv_reads(monkeypatch)
    got = plot_in(capsys, monkeypatch, proven_dir, "trajectory", 0, csv)
    assert reads == [csv]
    assert got[0] == 0 and got == plot_in(capsys, monkeypatch, plain, "trajectory", 0, csv)
    # the edited Q is drawn; the other edits leave the file, so the SVG, as it was
    assert (got[3] != unedited[3]) == (edit is edit_q)


def test_plot_of_a_csv_missing_a_row_of_its_last_path_fails(capsys, monkeypatch, proven_dir):
    lines = (proven_dir / "paths.csv").read_text().splitlines(keepends=True)
    assert lines[317].startswith("6,10,")  # file line 318: j = 10 of the last path
    (proven_dir / "paths.csv").write_text("".join(lines[:317] + lines[318:]))
    reads = spy_csv_reads(monkeypatch)
    got = plot_in(capsys, monkeypatch, proven_dir, "normalized", 0)
    assert reads == ["paths.csv"]  # path 0 is whole, but the file is not simulate's
    assert got == (1, "", "error: path CSV paths.csv line 318: trajectory 6, j 11; "
                          "expected trajectory 6, j 10 (m = 50)\n", None, None)


def test_plot_of_a_proven_csv_holds_one_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "simulate", "--model", "geometric", "--p", "1/2", "--m", "500",
               "--trajectories", "2000", "--seed", "9", "--paths", "--out", "paths.csv")[0] == 0
    tracemalloc.start()
    try:
        code = main(["plot", "--kind", "normalized", "--input", "paths.csv",
                     "--trajectory", "1999", "--out", "normalized.svg"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20  # the CSV writer's bound; the whole file takes about 28 MiB


@pytest.mark.parametrize("sidecar, problem", [
    ("{not json", "is not valid JSON"),
    ('{"sigma": 2.0}', "has no field 'mean_gap'"),
    ('{"mean_gap": "7/3"}', "has no field 'sigma'"),
])
@pytest.mark.parametrize("kind", ["trajectory", "normalized"])
def test_plot_malformed_sidecar_exits_one(capsys, tmp_path, kind, sidecar, problem):
    paths_csv = tmp_path / "paths.csv"
    assert run(capsys, *simulate_args(paths_csv, n="5", paths=True))[0] == 0
    (tmp_path / "paths.json").write_text(sidecar)
    code, out, err = run(capsys, "plot", "--kind", kind, "--input", str(paths_csv),
                         "--out", str(tmp_path / "plots" / "x.svg"))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: config sidecar {tmp_path / 'paths.json'} {problem}")
    assert not (tmp_path / "plots").exists()  # no SVG, not even its directory


def test_render(capsys, tmp_path):
    out = tmp_path / "poly.svg"
    code, stdout, _ = run(capsys, "render", "--word", "2,3,1,3", "--out", str(out))
    assert code == 0
    assert "P=18" in stdout
    svg = out.read_text()
    assert svg.count(" L ") == 18
    assert (tmp_path / "poly.svg.manifest.json").exists()


def test_render_rejects_bad_word(capsys, tmp_path):
    for word in ("2,zebra", "3,,2"):
        code, _, err = run(capsys, "render", "--word", word, "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert err.startswith(f"error: bad --word {word!r}: ")
    code, _, err = run(capsys, "render", "--word", "0,3", "--out", str(tmp_path / "x.svg"))
    assert code == 1


def test_render_at_max_cells_and_one_cell_above(capsys, tmp_path):
    word = ",".join(["10000"] * 10)  # 10**5 cells, RENDER_MAX_CELLS
    code, out, _ = run(capsys, "render", "--word", word, "--out", str(tmp_path / "max.svg"))
    assert code == 0 and out.endswith(f"\nword={word} Q=0 R=20000 P=20020\n")
    code, out, err = run(capsys, "render", "--word", f"{word},1", "--out", str(tmp_path / "over.svg"))
    assert code == 1 and out == ""
    assert err == (f"error: bad --word '{word},1': "
                   "render refuses a word of 100001 cells, above 100000\n")
    assert not (tmp_path / "over.svg").exists()


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
# m = 100: at 3 of the t = j/m of the normalized plot the float m*t is just below j
PLOT_PATH_GOLDEN = {
    "trajectory": {
        "trajectory.svg": "8095b8bb6495a08db2ccd18ff3a98c411606b00ff00a9915106dca5c59ce1fc8",
        "trajectory.svg.manifest.json":
            "aa4dcc59518ebfaab0790d10744763c0f172f756194a1a3f343719ae61b73df5",
        "stdout": "94e177cb479110763e51b6bdb21469cc234dfbc285f8e7fed1e722781d07d807",
    },
    "normalized": {
        "normalized.svg": "31d4fb7aa067ad34db5e65183303db4db412b61d1cd58f715489b06f2acc8727",
        "normalized.svg.manifest.json":
            "be4862189e4142c125a513ddc53232000ebbff69bc5f96131f4531d228fbba9e",
        "stdout": "8a72ed86242c4ddd6e928beb85b8bd2a8f0d7e6f72900947e2e69bc0a6f32bff",
    },
}
# the SVG and stdout digests were taken before the pmf manifest named the model
PLOT_PMF_GOLDEN = {
    "uniform": {
        "pmf.svg": "4e302c202e1f56483425d2f732544b9e11e292dc2d271e8eb4ca2b668f806d22",
        "pmf.svg.manifest.json": "215824924eaa0b00d003140871d4b3f5070aa267a3c03050220b4a1806712810",
        "stdout": "19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
    },
    "geometric": {
        "pmf.svg": "becf09f92f6e75a4445c71a2f892d9436df1d27087b139abac231faee46523ff",
        "pmf.svg.manifest.json": "84113143d064b9001172eba0a2dacffef5dcca5897de43d445a2ac63d39aa60b",
        "stdout": "19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
    },
}
MOMENTS_GOLDEN = {
    "uniform-json": "2554cd91623f2a78decf9fb183c83cfb021fa18f134aa1f2c0c738b6e0429608",
    "uniform-csv": "e5b5042806b5423bef49b652d388a251b28d9ca06b6cd97f28f3eb4d1ef91186",
    "geometric-json": "a15635528fd13473ff93708e38f80372a5e2b1cc8abfff452094c53581c2928b",
    "geometric-csv": "b043ad0a944d257817db7b1048e92994528df3f7cbe37958ef386574d6bf6dad",
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


@pytest.mark.parametrize("kind", ["trajectory", "normalized"])
def test_plot_path_svg_golden(capsys, tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "simulate", "--model", "uniform", "--k", "6", "--m", "100",
               "--trajectories", "4", "--seed", "3", "--paths", "--out", "paths.csv")[0] == 0
    code, out, _ = run(capsys, "plot", "--kind", kind, "--input", "paths.csv",
                       "--trajectory", "2", "--out", f"{kind}.svg")
    assert code == 0
    assert digests(out, f"{kind}.svg", f"{kind}.svg.manifest.json") == PLOT_PATH_GOLDEN[kind]


@pytest.mark.parametrize("model", [["uniform", "--k", "6"], ["geometric", "--p", "1/2"]],
                         ids=lambda model: model[0])
def test_plot_pmf_svg_golden(capsys, tmp_path, monkeypatch, model):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "plot", "--kind", "pmf", "--model", *model, "--out", "pmf.svg")
    assert code == 0
    assert digests(out, "pmf.svg", "pmf.svg.manifest.json") == PLOT_PMF_GOLDEN[model[0]]
    flags = json.loads(Path("pmf.svg.manifest.json").read_text())["flags"]
    assert flags["model"] == {"uniform": "uniform[1,6]", "geometric": "geometric(1/2)"}[model[0]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("model, n", [(["uniform", "--k", "6"], "500"),
                                      (["geometric", "--p", "1/2"], "40")],
                         ids=["uniform", "geometric"])
def test_moments_stdout_golden(capsys, model, n, fmt):
    code, out, _ = run(capsys, "moments", "--model", *model, "--n", n, "--format", fmt)
    assert code == 0
    assert sha256_hex(out.encode("utf-8")) == MOMENTS_GOLDEN[f"{model[0]}-{fmt}"]


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


# a default `wordperim verify` (seed 0; seed 9 prints the same report)
VERIFY_GOLDEN = "94df8dfc69fd91b6330e4c3dc1084aad03bd1a5c317e9a19df059d8181ae5c67"


def test_verify_default_stdout_golden(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert sha256_hex(out.encode("utf-8")) == VERIFY_GOLDEN
