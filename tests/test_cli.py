import argparse
import hashlib
import json
import math
import shlex
import shutil
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wordperim as wp
from wordperim import simulation
from wordperim.cli import (MODEL_PARAMETER, PLOT_DEFAULTS, PLOT_READS, _sha256, build_parser,
                           cmd_plot, main)


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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--k-max", "3", "--p-list", "1/2", "--random-words", "100",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_tiny_p_is_exact(capsys):
    # the letter support of p = 1e-6 is unbounded and long; the oracle sums all of it
    code, out, _ = run(
        capsys, "verify", "--k-max", "2", "--p-list", "1/1000000", "--random-words", "0",
    )
    assert code == 0 and "FAIL" not in out
    geometric = next(line for line in out.splitlines() if "(geometric)" in line)
    assert geometric.endswith("max_dev=0.000e+00")


def test_verify_times_go_to_stderr_only(capsys):
    argv = ["verify", "--k-max", "2", "--p-list", "1/2", "--random-words", "20"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == wp.format_report(wp.run_verification(
        k_max=2, p_list=[Fraction(1, 2)], random_words=20)) + "\n"
    assert " s  " not in out and "time" not in out
    names = [line.split(" s  ", 1)[1] for line in err.splitlines()]
    assert len(names) == 13 and all(name in out for name in names)
    # a second run prints the same stdout bytes whatever its timings
    assert run(capsys, *argv)[1] == out


def test_verify_zero_random_words(capsys):
    code, out, _ = run(
        capsys, "verify", "--k-max", "2", "--p-list", "1/2", "--random-words", "0",
    )
    assert code == 0
    assert "randomized larger words" in out and "FAIL" not in out
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("SKIP")] == [
        "SKIP  perimeter identity, randomized larger words                        "
        "instances=0      max_dev=0.000e+00"]
    assert lines[-1] == ("12/13 identities pass over 3287 instances; "
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
    code, out, err = run(capsys, "verify", "--k-max", "2", "--p-list", "1/2", *flags)
    assert code == 0 and err.count("\n") == 13
    lines = out.splitlines()
    assert [line[:6] for line in lines[:-1]] == ["PASS  "] * 13
    assert f"instances={random_words:<6d} " in lines[12]
    assert lines[-1] == f"13/13 identities pass over {3287 + random_words} instances"


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


def test_histogram_gof_creates_its_directory(capsys, tmp_path):
    ens = tmp_path / "ens.csv"
    gof = tmp_path / "nodir" / "deeper" / "gof.json"
    assert run(capsys, *simulate_args(ens))[0] == 0
    code, _, _ = run(capsys, "histogram", "--input", str(ens), "--out", str(tmp_path / "h.csv"),
                     "--gof", str(gof))
    assert code == 0
    assert set(json.loads(gof.read_text())) == {"ks_statistic", "max_cell_abs_error"}


def test_histogram_holds_z_and_its_sorted_copy(tmp_path, monkeypatch, peak_memory):
    # 10**6 normalized binomial endpoints: about 250 distinct z values
    monkeypatch.chdir(tmp_path)
    e = np.random.default_rng(17).binomial(2000, 0.5, size=10**6)
    z = (e - 1000.0) / math.sqrt(500.0)
    simulation.write_endpoint_csv(SimpleNamespace(endpoints=e, z=z), "ens.csv")
    with peak_memory() as traced:
        code = main(["histogram", "--input", "ens.csv", "--out", "h.csv", "--gof", "gof.json"])
    assert code == 0
    assert json.loads(Path("gof.json").read_text())["ks_statistic"] == wp.ks_statistic(z)
    # z, 8 bytes a trajectory; ks_statistic's sorted copy and masks (its own test's bound);
    # and 1 MiB for a chunk's records and the writers.  The 24-byte records of every row
    # took 34 MB
    assert traced.peak <= z.nbytes + 1.3 * z.nbytes + 2**20


def test_sha256_reads_through_one_small_buffer(tmp_path, peak_memory):
    path = tmp_path / "six-mib"
    path.write_bytes(bytes(range(256)) * (6 * 2**12))
    with peak_memory() as traced:
        digest = _sha256(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert traced.peak < 128 * 2**10  # two 1 MiB reads alive at once took 2.1 MB


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


def test_plot_of_a_proven_csv_holds_one_path(capsys, tmp_path, monkeypatch, peak_memory):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "simulate", "--model", "geometric", "--p", "1/2", "--m", "500",
               "--trajectories", "2000", "--seed", "9", "--paths", "--out", "paths.csv")[0] == 0
    with peak_memory() as traced:
        code = main(["plot", "--kind", "normalized", "--input", "paths.csv",
                     "--trajectory", "1999", "--out", "normalized.svg"])
    assert code == 0
    assert traced.peak < 4 * 2**20  # the CSV writer's bound; the whole file takes about 28 MiB


def test_render(capsys, tmp_path):
    out = tmp_path / "poly.svg"
    code, stdout, _ = run(capsys, "render", "--word", "2,3,1,3", "--out", str(out))
    assert code == 0
    assert "P=18" in stdout
    svg = out.read_text()
    assert svg.count(" L ") == 18
    assert (tmp_path / "poly.svg.manifest.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert wp.__version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify's default report; its stderr carries timings, so it is not a CLI_CASES row
# ---------------------------------------------------------------------------

def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# a default `wordperim verify` (seed 0; seed 9 prints the same report)
VERIFY_GOLDEN = "94df8dfc69fd91b6330e4c3dc1084aad03bd1a5c317e9a19df059d8181ae5c67"


def test_verify_default_stdout_golden(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert sha256_hex(out.encode("utf-8")) == VERIFY_GOLDEN


# ---------------------------------------------------------------------------
# what the CLI prints and writes: ordinary runs, refusals and edge inputs, one row each
# ---------------------------------------------------------------------------

U6 = "simulate --model uniform --k 6"  # the model of most simulate rows
PATH_RUN = f"{U6} --m 5 --trajectories 5 --seed 3 --paths --out paths.csv"
# every path of k = 1 is flat: Q(j) = 0, M = 0 and sigma = 0
K1_PATH_RUN = ("simulate --model uniform --k 1 --m 5 --trajectories 2 --seed 1 --paths "
               "--out paths.csv")
# the ensemble of the histogram rows, and the histogram of the plots of it
ENSEMBLE_2000 = f"{U6} --m 50 --trajectories 2000 --seed 3 --out ens.csv"
HISTOGRAM_RUN = "histogram --input ens.csv --delta {} --out hist.csv --gof gof.json"
ENSEMBLE = {"ens.csv": "trajectory,endpoint,z\n0,3,0.5\n1,4,-0.5\n2,2,0.25\n"}
HISTOGRAM_HEAD = "i,left,right,center,count,freq,gauss_mass\n"
# three histogram rows; the last, file line 4, has no gauss_mass
SHORT_ROW = "0,-1.0,0.0,-0.5,1,0.5,0.25\n1,0.0,1.0,0.5,1,0.5,0.25\n2,1.0,2.0,1.5,0,0.0\n"
VALID_HISTOGRAM = HISTOGRAM_HEAD + "".join(SHORT_ROW.splitlines(True)[:2])  # its two whole rows
# p = 1 - 10**-400: float(1 - p) is 0.0, and ln q would be log(0.0)
P_NEAR_ONE = f"{10**400 - 1}/{10**400}"
CELLS = ",".join(["10000"] * 10)  # 10**5 cells, RENDER_MAX_CELLS
TOO_MANY_DIGITS = "has more than 4300 digits, the most Python prints; give --p fewer digits"

# (id, steps, exit code, expectation).  Each step but the last sets up the
# working directory: a {name: text} dict of files to write (None makes a
# directory) or an argv that must exit 0.  The last step is the argv under test.
# An argv is split as a shell splits it, so '' is an empty argument.
# Exit 1 expects its one stderr line after "error: ", an empty stdout, no new
# file and nothing sampled; exit 2 expects argparse's last stderr line; exit 0
# expects an empty stderr and the sha256 of stdout and of the manifest (None
# for a command that writes no file), and the manifest must list the sha256
# of every output, each written next to it.
CLI_CASES = [
    ("moments-n-1", ["moments --model uniform --k 6 --n 1"], 1,
     "word length n must be an integer >= 2, got 1"),
    ("moments-k-0", ["moments --model uniform --k 0 --n 5"], 1,
     "uniform model needs integer k >= 1, got 0"),
    ("moments-without-k", ["moments --model uniform --n 5"], 1, "--model uniform requires --k"),
    ("moments-without-p", ["moments --model geometric --n 5"], 1, "--model geometric requires --p"),
    ("moments-uniform-with-p", ["moments --model uniform --p 1/2 --n 5"], 1,
     "--model uniform requires --k"),
    ("moments-p-7/2", ["moments --model geometric --p 7/2 --n 5"], 1,
     "geometric model needs rational 0 < p < 1, got 7/2"),
    ("moments-p-1e-120", [f"moments --model geometric --p 1/{10**120} --n 10"], 1,
     f"a moment of geometric(1/{10**120}) at n=10 is too large: "
     "integer division result too large for a float"),
    ("moments-p-1-1e-300", [f"moments --model geometric --p {10**300 - 1}/{10**300} --n 10"], 0,
     ("dfe435effc234696169fc784105e67e88b5d73b13a04e6bb5b33558d9b8c04d7", None)),
    # an exact value here has more digits than Python converts to text
    ("moments-p-1-1e-400", [f"moments --model geometric --p {P_NEAR_ONE} --n 10"], 1,
     f"a moment of geometric({P_NEAR_ONE}) at n=10 {TOO_MANY_DIGITS}"),
    ("moments-model-cauchy", ["moments --model cauchy --n 5"], 2,
     "wordperim moments: error: argument --model: invalid choice: 'cauchy' "
     "(choose from 'uniform', 'geometric')"),
    ("frobnicate", ["frobnicate"], 2,
     "wordperim: error: argument command: invalid choice: 'frobnicate' (choose from 'moments', "
     "'xmoment', 'verify', 'simulate', 'histogram', 'plot', 'render')"),
    *[(f"moments-p-{p}", [f"moments --model geometric --p {p} --n 5"], 2,
       f"wordperim moments: error: argument --p: not a rational number: '{p}'")
      for p in ("zebra", "1/2/3", "nan", "1/0")],
    *[(f"moments-{model.split()[0]}-{fmt}", [f"moments --model {model} --format {fmt}"], 0,
       (digest, None)) for model, fmt, digest in [
          ("uniform --k 6 --n 500", "json",
           "2554cd91623f2a78decf9fb183c83cfb021fa18f134aa1f2c0c738b6e0429608"),
          ("uniform --k 6 --n 500", "csv",
           "e5b5042806b5423bef49b652d388a251b28d9ca06b6cd97f28f3eb4d1ef91186"),
          ("geometric --p 1/2 --n 40", "json",
           "a15635528fd13473ff93708e38f80372a5e2b1cc8abfff452094c53581c2928b"),
          ("geometric --p 1/2 --n 40", "csv",
           "b043ad0a944d257817db7b1048e92994528df3f7cbe37958ef386574d6bf6dad")]],
    # p = 1/10**100: every decimal is still a finite float
    *[(f"moments-p-1e-100-{fmt}",
       [f"moments --model geometric --p 1/{10**100} --n 10 --format {fmt}"], 0, (digest, None))
      for fmt, digest in [
          ("json", "ca07d20ce96f14cd37e62e485225c4637194f49c5ed245e4e5eb1027ab0cadf5"),
          ("csv", "4961883a88b2ca26b76a0accaa637873d408e83db8a4ba1da829f8d4ebf344ff")]],

    # the closed form where the table has one, then the oracle
    ("xmoment-uniform", ["xmoment --model uniform --k 6 --index 0,1,1,0"], 0,
     ("866b4776d91685cc57134437fe720786f5904f60452ccf2eb81a384a1ac34351", None)),
    ("xmoment-uniform-centered", ["xmoment --model uniform --k 6 --index 0,1,1,0 --centered"], 0,
     ("cff21af9c92759e434bd6b66a07c9ce1016d7afcf15159c2438e50351332ac04", None)),
    ("xmoment-geometric", ["xmoment --model geometric --p 1/3 --index 0,1,2,0"], 0,
     ("131608a751ff00628175a0cb7d202a2282b01f135405c1644ec85e42fcbc970b", None)),
    # no centered geometric closed form is tabulated, nor these uniform ones: the oracle alone
    ("xmoment-geometric-centered", ["xmoment --model geometric --p 1/3 --index 0,2,1,0 --centered"],
     0, ("f38f1a20dd2e1922532c6efbbc2116c6076e96b08c412d511aab4e99c0d1b7bc", None)),
    ("xmoment-0,1,0,1", ["xmoment --model uniform --k 6 --index 0,1,0,1"], 0,
     ("6b15db46684bdbf19c23cf099d193f4a7aed5133b4df018f3c6049693868282d", None)),
    ("xmoment-0,1,0,1-centered", ["xmoment --model uniform --k 6 --index 0,1,0,1 --centered"], 0,
     ("350e1fcf1ce63918560fdffcb2fc27332da2e64a73b2de23e5e400dfc64db4f7", None)),
    ("xmoment-1,1,1,1", ["xmoment --model uniform --k 3 --index 1,1,1,1"], 0,
     ("edb7403308ed6be88c70e89da186ce29f4c587c8286374ef51b04f5916af5145", None)),
    ("xmoment-closed", ["xmoment --model uniform --k 6 --index 0,1,0,1 --method closed"], 2,
     "wordperim: error: unrecognized arguments: --method closed"),
    ("xmoment-geometric-with-k", ["xmoment --model geometric --k 6 --index 0,1,1,0"], 1,
     "--model geometric requires --p"),
    ("xmoment-centered-letter", ["xmoment --model uniform --k 6 --index 1,1,0,0 --centered"], 1,
     "centered cross-moments are defined for gap variables only (alpha must be 0)"),
    ("xmoment-index-0,9,0,0", ["xmoment --model uniform --k 6 --index 0,9,0,0"], 1,
     "bad --index '0,9,0,0': exponents must be integers in [0, 3], got (0, 9, 0, 0)"),
    *[(f"xmoment-index-{index}", [f"xmoment --model uniform --k 3 --index {index}"], 1,
       f"bad --index '{index}': need four comma-separated integer exponents "
       f"alpha,beta,gamma,delta, got {index.count(',') + 1}") for index in ("1,1,1", "1,1,1,1,1")],
    ("xmoment-p-1e-160", [f"xmoment --model geometric --index 0,2,0,0 --p 1/{10**160}"], 1,
     f"T(0, 2, 0, 0) of geometric(1/{10**160}) is too large: "
     "integer division result too large for a float"),
    ("xmoment-p-1e-1500",
     [f"xmoment --model geometric --p 1/{10**1500} --index 0,1,1,1"], 1,
     f"T(0, 1, 1, 1) of geometric(1/{10**1500}) {TOO_MANY_DIGITS}"),

    *[(f"verify-p-list-{entry}", [f"verify --p-list {entry}"], 1,
       f"bad --p-list entry '{token}': need a rational 0 < p < 1")
      for entry, token in [("1/0", "1/0"), ("2", "2"), ("abc", "abc"), ("1/2,", "")]],
    # run_verification's own refusals, made before any check runs
    *[(f"verify{flag}-{value}", [f"verify {flag} {value}"], 1, line) for flag, value, line in [
        ("--k-max", 0, "k_max must be an integer >= 1, got 0"),
        ("--random-words", -3, "random_words must be a non-negative integer, got -3"),
        ("--seed", -1, "seed must be a non-negative integer, got -1")]],
    # the range of n is no input: the forms in n are compared by their coefficients
    ("verify-n-max-8", ["verify --n-max 8"], 2,
     "wordperim: error: unrecognized arguments: --n-max 8"),

    ("simulate-uniform", [f"{U6} --m 50 --trajectories 200 --seed 3 --out ens.csv"], 0,
     ("85a1b5802790c7644ed1e8436ad47227930c44f64d6909012bc340fc5987e29e",
      "cdeb2dabb0288b39e7704dfbee688396b1543c96d4fa006d0bccfeda1ea2ae05")),
    ("simulate-geometric", ["simulate --model geometric --p 1/2 --m 50 --trajectories 200 --seed 3 "
                            "--out ens.csv"], 0,
     ("287942e16bfe357b116b35753f48bfb921df7f4cd68a436e879b1d268bbe3c05",
      "94854dfbdc7b80fbb5833e2113666e5030e9bb05ad9a83bfa400f62d4aef5277")),
    ("simulate-k-and-p", [f"{U6} --p 1/2 --m 5 --trajectories 3 --seed 1 --out x.csv"], 2,
     "wordperim simulate: error: argument --p: not allowed with argument --k"),
    ("simulate-m-0", [f"{U6} --m 0 --trajectories 5 --seed 1 --out x.csv"], 1,
     "need at least one gap, got m=0"),
    ("simulate-N-0", [f"{U6} --m 5 --trajectories 0 --seed 1 --out x.csv"], 1,
     "need at least one trajectory, got 0"),
    ("simulate-k-1-m-1-N-1", ["simulate --model uniform --k 1 --m 1 --trajectories 1 --seed 1 "
                              "--out x.csv"], 0,
     ("76a0adfcd80ccab4b0f3816c4cb5c441a806c58de24dba6fbaff7292e47ff751",
      "6211f54be63701994c86b6e925c400ba483c77ba6f72a5104c39039f9b920c86")),
    ("simulate-seed-0", [f"{U6} --m 5 --trajectories 3 --seed 0 --out x.csv"], 0,
     ("228412d4a280504488e7e694e550480a8abaf71171f906434be7ed12b19fbc0d",
      "63c4b4906dbf7781b15f6a01c27b733c1a11aa130f3513119d17cc3ba362af07")),
    ("simulate-seed-2**64-1", [f"{U6} --m 5 --trajectories 3 --seed {2**64 - 1} --out x.csv"], 0,
     ("5ec90b542f34fa749b1df90e212ff1b83b0e5a8dfa54ef675d0d0c0415744199",
      "d7e3f1b3dd41e6efddddb601d8a86f94bfe2934fb4cde04546a3d068044021d1")),
    *[(f"simulate-seed-{seed}", [f"{U6} --m 5 --trajectories 3 --seed {value} --out x.csv"], 1,
       f"seed must be an integer in [0, 2**64), got {value}")
      for seed, value in [("-1", -1), ("2**64", 2**64)]],
    ("simulate-k-2**63-1", [f"simulate --model uniform --k {2**63 - 1} --m 1 --trajectories 3 "
                            "--seed 1 --out x.csv"], 0,
     ("26f1d3ef1731594f5aa10d68e2df838a21c043ca30adc907966456235dd6b3a8",
      "d9eb8cc4f278b0cdd36ff5c0eda2e1f901455979656e0d0bd5a299bc3b21c57e")),
    ("simulate-k-2**63", [f"simulate --model uniform --k {2**63} --m 1 --trajectories 3 --seed 1 "
                          "--out x.csv"], 1,
     f"uniform k={2**63} with m=1 would overflow int64: "
     "need k <= 2**63 - 1 and m*(k - 1) <= 2**63 - 1"),
    # endpoint mode: 1.6e15 bytes are refused before anything is allocated
    ("simulate-N-10**14", [f"{U6} --m 1 --trajectories {10**14} --seed 1 --out x.csv"], 1,
     f"recording the endpoints and z of {10**14} trajectories needs 1600000000000000 bytes, "
     "budget is 2147483648"),
    ("simulate-m-2*10**9", [f"{U6} --m {2 * 10**9} --trajectories 64 --seed 1 --out x.csv"], 1,
     "recording the endpoints and z of 64 trajectories and sampling 64 at a time needs "
     "4096000003072 bytes, budget is 2147483648"),
    # the sampler takes ln q as log1p(-p) below p = 2**-26 and as log(1 - p) from it on
    ("simulate-p-2**-26", [f"simulate --model geometric --p 1/{2**26} --m 5 --trajectories 3 "
                           "--seed 1 --out x.csv"], 0,
     ("82b0e0cf027546dacd71a9285112e8ddcd14fc4c431f9761fb0b4deca3144ab2",
      "7fe391d1cc716115934554e984d1eb36fba67510efa48dc6513d279904a08d8f")),
    ("simulate-p-1/(2**26+1)", [f"simulate --model geometric --p 1/{2**26 + 1} --m 5 "
                                "--trajectories 3 --seed 1 --out x.csv"], 0,
     ("3252efd7cb0a4ba88085cd6abec4145c8073fc73d6a09a79f123cbdb931cc0f4",
      "b61c864ba3ede041b0d2754c7f459fea6378b702b1aeb5775f5aa6f375fe1e7b")),
    # p = 1 - 10**-300 still has float(1 - p) > 0: every draw is the letter 1
    ("simulate-p-1-1e-300", [f"simulate --model geometric --p {10**300 - 1}/{10**300} --m 5 "
                             "--trajectories 3 --seed 1 --out ens.csv"], 0,
     ("2cdd3ec404bc0e41b3023f270f03f667898175e337ab9906b38fbf8b25ae65c8",
      "55a244db4ff7758db789cdb1de4b6e00cfcba5cf7f772c5b9da64097dd483fa6")),
    ("simulate-p-1e-16", ["simulate --model geometric --p 1/10000000000000000 --m 2000 "
                          "--trajectories 5 --seed 1 --out x.csv"], 1,
     "geometric p=1/10000000000000000 with m=2000 would overflow int64: "
     "need m*(L - 1) <= 2**63 - 1 for the largest letter L = 367368005696771008"),
    ("simulate-p-1e-17", ["simulate --model geometric --p 1/100000000000000000 --m 5 "
                          "--trajectories 3 --seed 1 --out x.csv"], 1,
     "geometric p = 1/100000000000000000 is too small to sample: 1 - p rounds to 1.0 in float64"),
    ("simulate-p-1-1e-400", [f"simulate --model geometric --p {P_NEAR_ONE} --m 5 "
                             "--trajectories 3 --seed 1 --out x.csv"], 1,
     f"geometric p = {P_NEAR_ONE} is too close to 1 to sample: 1 - p rounds to 0.0 in float64"),
    # the sidecar of runs/ens.json is runs/ens.json itself: it would overwrite the ensemble
    ("simulate-out-is-its-sidecar", [f"{U6} --m 5 --trajectories 3 --seed 1 --out runs/ens.json"],
     1, "--out and the config sidecar both name runs/ens.json"),

    *[(f"histogram-delta-{delta}", [ENSEMBLE_2000, HISTOGRAM_RUN.format(delta)], 0, digests)
      for delta, digests in [
          ("1/2", ("0a25e6389af86d8fbeec447ea716a9b987cff1d8d2179f299796c4d7e48f7711",
                   "7b595fbd439305aae1198a4cfc6298abcd3e4e239cf45accc2326782cf8faba6")),
          ("1/3", ("375fd0fc40646f15bba0899e3189802802d3443ef290e3f03b93b38e27db1f55",
                   "6134f4806d9cbd501e5e9a97295bd3f3db0220deff52e458883f1dfab135e170"))]],
    ("histogram-gof-is-out", [ENSEMBLE, "histogram --input ens.csv --out h.csv --gof h.csv"], 1,
     "--out and --gof both name h.csv"),
    ("histogram-gof-is-manifest",
     [ENSEMBLE, "histogram --input ens.csv --out h.csv --gof sub/../h.csv.manifest.json"], 1,
     "the manifest and --gof both name sub/../h.csv.manifest.json"),
    # an output that names the input would overwrite it before it is read
    *[(f"histogram-{flag[2:]}-is-input", [ENSEMBLE, f"histogram --input ens.csv {tail}"], 1,
       f"--input and {flag} both name {name}")
      for tail, flag, name in [("--out ens.csv", "--out", "ens.csv"),
                               ("--out h.csv --gof sub/../ens.csv", "--gof", "sub/../ens.csv")]],
    ("histogram-manifest-is-input", [{"h.csv.manifest.json": ENSEMBLE["ens.csv"]},
                                     "histogram --input h.csv.manifest.json --out h.csv"], 1,
     "--input and the manifest both name h.csv.manifest.json"),
    ("histogram-input-missing", ["histogram --input ens.csv --out h.csv"], 1,
     "cannot read --input: [Errno 2] No such file or directory: 'ens.csv'"),
    ("histogram-of-a-path-csv", [PATH_RUN, "histogram --input paths.csv --out h.csv"], 1,
     "expected the endpoint CSV header 'trajectory,endpoint,z', got 'trajectory,j,Q'"),
    ("histogram-short-row", [{"ens.csv": "trajectory,endpoint,z\n0,3,0.5\n1,2\n"},
                             "histogram --input ens.csv --out h.csv"], 1,
     "endpoint CSV ens.csv line 3: the dtype passed requires 3 columns but 2 were found"),
    ("histogram-nan", [{"ens.csv": "trajectory,endpoint,z\n0,3,0.5\n1,4,nan\n2,5,inf\n"},
                       "histogram --input ens.csv --out h.csv --gof gof.json"], 1,
     "endpoint CSV ens.csv line 3: z is NaN"),
    # lines are numbered in the file, the header and empty lines counted
    ("histogram-nan-after-an-empty-line",
     [{"ens.csv": "trajectory,endpoint,z\n0,3,0.5\n\n1,4,-nan\n"},
      "histogram --input ens.csv --out h.csv"], 1, "endpoint CSV ens.csv line 4: z is NaN"),
    ("histogram-delta-5/7", [ENSEMBLE, "histogram --input ens.csv --delta 5/7 --out h.csv"], 1,
     "6/delta must be an integer, got delta=5/7"),
    # argparse takes a value that starts with "-" for a flag, unless "=" joins the two
    ("histogram-delta=-1/2", [ENSEMBLE, "histogram --input ens.csv --delta=-1/2 --out h.csv"], 1,
     "delta must be positive, got -1/2"),
    ("histogram-delta--1/2", [ENSEMBLE, "histogram --input ens.csv --delta -1/2 --out h.csv"], 2,
     "wordperim histogram: error: argument --delta: expected one argument"),

    *[(f"{argv.split()[0]}-out-is-a-directory", [*setup, {"taken": None}, f"{argv} --out taken"],
       1, "cannot write output: [Errno 21] Is a directory: 'taken'")
      for setup, argv in [([], f"{U6} --m 5 --trajectories 3 --seed 1"),
                          ([ENSEMBLE], "histogram --input ens.csv"),
                          ([], "plot --kind pmf --model uniform --k 6"),
                          ([], "render --word 2,3,1")]],
    # the sidecar, --gof and the manifest are checked as --out is
    *[(f"{argv.split()[0]}-{what}-is-a-directory", [*setup, {name: None}, argv], 1,
       f"cannot write output: [Errno 21] Is a directory: '{name}'")
      for setup, what, name, argv in [
          ([], "sidecar", "x.json", f"{U6} --m 5 --trajectories 3 --seed 1 --out x.csv"),
          ([ENSEMBLE], "gof", "g.json", "histogram --input ens.csv --out h.csv --gof g.json"),
          ([], "manifest", "p.svg.manifest.json",
           "plot --kind pmf --model uniform --k 6 --out p.svg"),
          ([], "manifest", "w.svg.manifest.json", "render --word 2,3,1 --out w.svg")]],
    # an output under a plain file: the error of the mkdir of its directory
    *[(f"{argv.split()[0]}-out-under-a-file{sub.replace('/', '-')}",
       [*setup, {"afile": ""}, f"{argv} --out afile{sub}/x"], 1, f"cannot write output: {error}")
      for setup, argv in [([], f"{U6} --m 5 --trajectories 3 --seed 1"),
                          ([ENSEMBLE], "histogram --input ens.csv"),
                          ([], "plot --kind pmf --model uniform --k 6"),
                          ([], "render --word 2,3,1")]
      for sub, error in [("", "[Errno 17] File exists: 'afile'"),
                         ("/sub", "[Errno 20] Not a directory: 'afile/sub'")]],

    # a file flag whose path has no last part to name a file by: "", "." or "/"
    *[(f"{argv.split()[0]}-{flag[2:]}-{what}", [*setup, f"{argv} {flag} {value}"], 2,
       f"wordperim {argv.split()[0]}: error: argument {flag}: not a file path: {value}")
      for setup, argv, flag, what, value in [
          ([], f"{U6} --m 5 --trajectories 3 --seed 1", "--out", "empty", "''"),
          ([], f"{U6} --m 5 --trajectories 3 --seed 1", "--out", "dot", "'.'"),
          ([ENSEMBLE], "histogram --input ens.csv", "--out", "empty", "''"),
          ([ENSEMBLE], "histogram --input ens.csv --out h.csv", "--gof", "empty", "''"),
          ([], "histogram --out h.csv", "--input", "empty", "''"),
          ([], "plot --kind pmf --model uniform --k 6", "--out", "empty", "''"),
          ([], "plot --kind trajectory --out x.svg", "--input", "empty", "''"),
          ([], "render --word 2,3,1", "--out", "empty", "''"),
          ([], "render --word 2,3,1", "--out", "root", "'/'")]],

    ("plot-pmf-uniform", ["plot --kind pmf --model uniform --k 6 --out pmf.svg"], 0,
     ("19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
      "215824924eaa0b00d003140871d4b3f5070aa267a3c03050220b4a1806712810")),
    ("plot-pmf-geometric", ["plot --kind pmf --model geometric --p 1/2 --out pmf.svg"], 0,
     ("19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
      "84113143d064b9001172eba0a2dacffef5dcca5897de43d445a2ac63d39aa60b")),
    # one gap value: the x axis is flat and widened
    ("plot-pmf-k-1", ["plot --kind pmf --model uniform --k 1 --out pmf.svg"], 0,
     ("19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
      "a7bfe4d16088d1a0bd80bcf68298d4e0d89b05ef73be374f0242ec7ff9b42174")),
    # a flat path: the y axis of the trajectory is widened, and W is 0 where sigma is 0
    *[(f"plot-{kind}-k-1", [K1_PATH_RUN, f"plot --kind {kind} --input paths.csv --out {kind}.svg"],
       0, digests) for kind, digests in [
          ("trajectory", ("94e177cb479110763e51b6bdb21469cc234dfbc285f8e7fed1e722781d07d807",
                          "0f8ddafa0f29da79b8af7cb09a1dfb61a26d316a10a8912239f637a5e69a3791")),
          ("normalized", ("8a72ed86242c4ddd6e928beb85b8bd2a8f0d7e6f72900947e2e69bc0a6f32bff",
                          "61a692d2acbfcc37700a4ca0c16f95355d503c1bc1bee88cdf7e4d00018ec093"))]],
    # m = 100: at 3 of the t = j/m of the normalized plot the float m*t is just below j
    *[(f"plot-{kind}-m-100",
       [f"{U6} --m 100 --trajectories 4 --seed 3 --paths --out paths.csv",
        f"plot --kind {kind} --input paths.csv --trajectory 2 --out {kind}.svg"], 0, digests)
      for kind, digests in [
          ("trajectory", ("94e177cb479110763e51b6bdb21469cc234dfbc285f8e7fed1e722781d07d807",
                          "aa4dcc59518ebfaab0790d10744763c0f172f756194a1a3f343719ae61b73df5")),
          ("normalized", ("8a72ed86242c4ddd6e928beb85b8bd2a8f0d7e6f72900947e2e69bc0a6f32bff",
                          "be4862189e4142c125a513ddc53232000ebbff69bc5f96131f4531d228fbba9e"))]],
    *[(f"plot-{kind}-delta-{delta}", [ENSEMBLE_2000, HISTOGRAM_RUN.format(delta),
                                      f"plot --kind {kind} --input hist.csv --out {kind}.svg"],
       0, (stdout, manifest)) for kind, stdout, manifests in [
          ("histogram", "ef374d7818c0e3996f43abaa907e71e1eab00201af1f0c00c43f0e911567cd9a",
           {"1/2": "0d361de7edcf8f5b23c3916f1f0785fe243aae5e32d2b16b8c1731c0df70380c",
            "1/3": "e25ad0be4bf39d750501b2a482c5be417c2da7ce2d93234e947ef81815dfb040"}),
          ("cumulative", "473ba6f4c118869dc1b5ebbd0d5520d167459354e2d3108553a46c9f00a4be87",
           {"1/2": "de93682ac726be6eaa0071e43493119380ea4a2160e37f54172b51103278a696",
            "1/3": "d9bf168fd40a437443edb522b32fd8cf7b830474dd18b5160757b3fc27864b65"})]
      for delta, manifest in manifests.items()],
    ("plot-pmf-without-model", ["plot --kind pmf --out p.svg"], 1,
     "plot --kind pmf requires --model"),
    ("plot-pmf-k-10**4", [f"plot --kind pmf --model uniform --k {10**4} --out pmf.svg"], 0,
     ("19e091421c7fafb4307c48adfdcb3671e1278d6e4575d6d74d16d78c2cb28cf8",
      "c7e5c3f049cab3f1366f112236662d37e36db5d0a77b97b19851c39f908aacc5")),
    ("plot-pmf-k-10**4+1", [f"plot --kind pmf --model uniform --k {10**4 + 1} --out plots/pmf.svg"],
     1, "gap pmf plot refuses uniform[1,10001]: 10001 points, above 10000"),
    ("plot-trajectory-without-input", ["plot --kind trajectory --out x.svg"], 1,
     "plot --kind trajectory requires --input"),
    ("plot-histogram-without-input", ["plot --kind histogram --out x.svg"], 1,
     "plot --kind histogram requires --input"),
    ("plot-histogram-input-missing", ["plot --kind histogram --input h.csv --out x.svg"], 1,
     "cannot read --input: [Errno 2] No such file or directory: 'h.csv'"),
    ("plot-trajectory-of-an-endpoint-csv",
     [ENSEMBLE, "plot --kind trajectory --input ens.csv --out x.svg"], 1,
     "expected the path CSV header 'trajectory,j,Q', got 'trajectory,endpoint,z'"),
    ("plot-trajectory-99", [PATH_RUN, "plot --kind trajectory --input paths.csv --trajectory 99 "
                                      "--out x.svg"], 1, "--trajectory 99 out of range 0..4"),
    # row j = 2 of path 0 is missing
    ("plot-normalized-missing-row",
     [{"paths.csv": "trajectory,j,Q\n0,0,0\n0,1,2\n0,3,5\n1,0,0\n1,1,1\n1,2,2\n1,3,4\n"},
      "plot --kind normalized --input paths.csv --out x.svg"], 1,
     "path CSV paths.csv line 4: trajectory 0, j 3; expected trajectory 0, j 2 (m = 3)"),
    # lines are numbered in the file: the row out of order follows an empty line
    ("plot-normalized-row-after-an-empty-line",
     [{"paths.csv": "trajectory,j,Q\n0,0,0\n\n0,2,3\n0,1,1\n"},
      "plot --kind normalized --input paths.csv --out n.svg"], 1,
     "path CSV paths.csv line 4: trajectory 0, j 2; expected trajectory 0, j 1 (m = 1)"),
    *[(f"plot-{kind}-{what}", [{"h.csv": HISTOGRAM_HEAD + rows},
                               f"plot --kind {kind} --input h.csv --out x.svg"], 1, message)
      for kind in ("histogram", "cumulative")
      for what, rows, message in [
          ("short-row", SHORT_ROW,
           "histogram CSV h.csv line 4: the dtype passed requires 7 columns but 6 were found"),
          ("no-rows", "", "histogram CSV h.csv has no data rows after its header")]],
    *[(f"plot-{kind}-sidecar-{what}",
       [PATH_RUN, {"paths.json": sidecar},
        f"plot --kind {kind} --input paths.csv --out plots/x.svg"], 1,
       f"config sidecar paths.json {problem}")
      for kind in ("trajectory", "normalized")
      for what, sidecar, problem in [
          ("not-json", "{not json", "is not valid JSON: "
           "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
          ("without-mean-gap", '{"sigma": 2.0}', "has no field 'mean_gap'"),
          ("without-sigma", '{"mean_gap": "7/3"}', "has no field 'sigma'")]],
    # a sigma or mean gap that is not a finite number >= 0 would draw W(t) as nan, flipped or
    # flat, or overflow; sigma = 0, of k = 1, draws W = 0 (plot-normalized-k-1)
    *[(f"plot-normalized-sidecar-{what}",
       [PATH_RUN, {"paths.json": f'{{"mean_gap": {mean_gap}, "sigma": {sigma}}}'},
        "plot --kind normalized --input paths.csv --out x.svg"], 1,
       f"config sidecar paths.json: {field} must be a finite number >= 0, got {got}")
      for what, mean_gap, sigma, field, got in [
          ("sigma-NaN", '"7/3"', "NaN", "sigma", "nan"),
          ("sigma--1.0", '"7/3"', "-1.0", "sigma", "-1.0"),
          ("sigma-Infinity", '"7/3"', "Infinity", "sigma", "inf"),
          ("sigma-true", '"7/3"', "true", "sigma", "True"),
          ("mean-gap-1e400", '"1e400"', "2.0", "mean_gap", "'1e400'")]],
    ("plot-trajectory-sidecar-mean-gap-x",
     [PATH_RUN, {"paths.json": '{"mean_gap": "x", "sigma": 1}'},
      "plot --kind trajectory --input paths.csv --out x.svg"], 1,
     "config sidecar paths.json: Invalid literal for Fraction: 'x'"),
    # a path plot reads the path CSV, its config sidecar and its manifest; a histogram plot
    # reads its CSV
    *[(f"plot-{kind}-out-is-{what}",
       [PATH_RUN, f"plot --kind {kind} --input paths.csv --out {out}"], 1,
       f"{first} and --out both name {out}")
      for kind in ("trajectory", "normalized")
      for what, first, out in [("input", "--input", "paths.csv"),
                               ("sidecar", "the config sidecar", "sub/../paths.json"),
                               ("input-manifest", "the manifest of --input",
                                "paths.csv.manifest.json")]],
    ("plot-histogram-manifest-is-input",
     [{"h.svg.manifest.json": VALID_HISTOGRAM},
      "plot --kind histogram --input h.svg.manifest.json --out h.svg"], 1,
     "--input and the manifest both name h.svg.manifest.json"),
    # a flag that a kind ignores is refused, so it never reaches the manifest
    ("plot-pmf-out-is-input",
     ["plot --kind pmf --model uniform --k 6 --input pmf.svg --out pmf.svg"], 1,
     "plot --kind pmf reads no --input"),
    *[(f"plot-{kind}-{flag[2:].replace(' ', '-')}",
       [{"h.csv": VALID_HISTOGRAM}, f"plot --kind {kind} {source} {flag} --out x.svg"], 1,
       f"plot --kind {kind} reads no {flag.split()[0]}")
      for kind, source, flag in [("histogram", "--input h.csv", "--trajectory 3"),
                                 ("cumulative", "--input h.csv", "--trajectory 3"),
                                 ("pmf", "--model uniform --k 6", "--trajectory 3"),
                                 ("histogram", "--input h.csv", "--model uniform")]],
    # the model's parameter is --k or --p, by --model: argparse refuses both
    ("plot-pmf-k-and-p", ["plot --kind pmf --model uniform --k 6 --p 1/3 --out pmf.svg"], 2,
     "wordperim plot: error: argument --p: not allowed with argument --k"),
    ("plot-trajectory-without-sidecar", [{"paths.csv": "trajectory,j,Q\n0,0,0\n0,1,2\n"},
                                         "plot --kind trajectory --input paths.csv --out x.svg"],
     1, "config sidecar paths.json not found next to paths.csv"),

    ("render-2,3,1,3,5,1", ["render --word 2,3,1,3,5,1 --out poly.svg"], 0,
     ("8f905e9d2adf44d2449466f7108662ea32c51b4381f588923414025177b99c94",
      "c84caa4e2663f440e03d0e3adca0cb169b5ccea4015f747835ba8618b8dde84d")),
    ("render-word-2,zebra", ["render --word 2,zebra --out x.svg"], 1,
     "bad --word '2,zebra': invalid literal for int() with base 10: 'zebra'"),
    ("render-word-3,,2", ["render --word 3,,2 --out x.svg"], 1,
     "bad --word '3,,2': invalid literal for int() with base 10: ''"),
    ("render-word-0,3", ["render --word 0,3 --out x.svg"], 1,
     "bad --word '0,3': letters must be positive integers, got 0"),
    ("render-word-1,10001", ["render --word 1,10001 --out x.svg"], 1,
     "bad --word '1,10001': render refuses letters above 10000"),
    ("render-word=-1,2", ["render --word=-1,2 --out x.svg"], 1,
     "bad --word '-1,2': letters must be positive integers, got -1"),
    ("render-word--1,2", ["render --word -1,2 --out x.svg"], 2,
     "wordperim render: error: argument --word: expected one argument"),
    # stdout: word=10000,...,10000 Q=0 R=20000 P=20020
    ("render-10**5-cells", [f"render --word {CELLS} --out max.svg"], 0,
     ("8db273abcf0136d473f602f99f7f58df45beadbedc4b878be6d066e892d00ede",
      "f0377e8fd375346c8c59a65c34f4f46b66ae7778aaec631ca141c5ec13ef2dfe")),
    ("render-10**5+1-cells", [f"render --word {CELLS},1 --out over.svg"], 1,
     f"bad --word '{CELLS},1': render refuses a word of 100001 cells, above 100000"),
]


def prepare(capsys, setup):
    """Make the files of each dict step of a CLI_CASES row and run each argv step."""
    for step in setup:
        if isinstance(step, dict):
            for name, text in step.items():
                if text is None:
                    Path(name).mkdir()
                else:
                    Path(name).write_text(text)
        else:
            assert run(capsys, *shlex.split(step))[0] == 0


@pytest.mark.parametrize("steps, code, expect", [case[1:] for case in CLI_CASES],
                         ids=[case[0] for case in CLI_CASES])
def test_cli_case(capsys, tmp_path, monkeypatch, steps, code, expect):
    monkeypatch.chdir(tmp_path)
    *setup, argv = steps
    prepare(capsys, setup)
    argv = shlex.split(argv)
    before = sorted(Path().rglob("*"))
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err.splitlines()[-1]) == (2, "", expect)
    elif code == 1:  # every refusal comes before any work
        monkeypatch.setattr(simulation, "_gap_blocks", lambda *args: pytest.fail("sampled"))
        assert run(capsys, *argv) == (1, "", f"error: {expect}\n")
    else:
        got, out, err = run(capsys, *argv)
        manifest = (Path(f"{argv[argv.index('--out') + 1]}.manifest.json") if "--out" in argv
                    else None)
        assert (got, err, sha256_hex(out.encode("utf-8"))) == (0, "", expect[0])
        assert (manifest and sha256_hex(manifest.read_bytes())) == expect[1]
        if manifest:
            listed = json.loads(manifest.read_text())["outputs"]
            assert listed == {name: sha256_hex(manifest.with_name(name).read_bytes())
                              for name in listed}
    if code:
        assert sorted(Path().rglob("*")) == before


WRITING_CASES = [case for case in CLI_CASES if case[2] == 0 and case[3][1]]


@pytest.mark.parametrize("steps", [case[1] for case in WRITING_CASES],
                         ids=[case[0] for case in WRITING_CASES])
def test_manifest_flags_are_the_parsed_arguments(capsys, tmp_path, monkeypatch, steps):
    # every argparse destination of the subcommand is a flag, but the model's: --model, --k and
    # --p are one entry, the model built, and a command that builds no model lists none of them
    monkeypatch.chdir(tmp_path)
    *setup, argv = steps
    prepare(capsys, setup)
    assert run(capsys, *argv.split())[0] == 0
    args = build_parser().parse_args(argv.split())
    flags = json.loads(Path(f"{args.out}.manifest.json").read_text())["flags"]
    listed = set(vars(args)) - {"command", "fn", "model", "k", "p"}
    if args.command == "simulate" or getattr(args, "kind", None) == "pmf":  # a model is built
        model = getattr(wp.Model, args.model)(getattr(args, MODEL_PARAMETER[args.model]))
        assert flags.pop("model") == model.describe()
    assert set(flags) == listed


# ---------------------------------------------------------------------------
# plot reads the flags PLOT_READS states for its kind, and refuses every other
# ---------------------------------------------------------------------------

# each optional flag of plot off its default, and the required flag of each kind given
OFF_DEFAULT = {"input": "--input h.csv", "trajectory": "--trajectory 3", "model": "--model uniform",
               "k": "--k 6", "p": "--p 1/2"}
REQUIRED = {"input": "--input h.csv", "model": "--model uniform --k 6"}
UNREAD = [(kind, flag) for kind, reads in PLOT_READS.items() for flag in PLOT_DEFAULTS
          if flag not in reads]


def refused_before_any_work(capsys, monkeypatch, tmp_path, argv, line):
    monkeypatch.chdir(tmp_path)
    for name in ("_check_outputs", "_model_from_args", "_read_input", "_read_path"):
        monkeypatch.setattr(f"wordperim.cli.{name}", lambda *args: pytest.fail("worked"))
    assert run(capsys, *argv.split()) == (1, "", f"error: {line}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, flag", UNREAD, ids=[f"{kind}-{flag}" for kind, flag in UNREAD])
def test_plot_refuses_a_flag_its_kind_does_not_read(capsys, monkeypatch, tmp_path, kind, flag):
    argv = f"plot --kind {kind} {REQUIRED[PLOT_READS[kind][0]]} {OFF_DEFAULT[flag]} --out x.svg"
    refused_before_any_work(capsys, monkeypatch, tmp_path, argv,
                            f"plot --kind {kind} reads no --{flag}")


@pytest.mark.parametrize("kind", PLOT_READS)
def test_plot_refuses_a_kind_without_its_required_flag(capsys, monkeypatch, tmp_path, kind):
    refused_before_any_work(capsys, monkeypatch, tmp_path, f"plot --kind {kind} --out x.svg",
                            f"plot --kind {kind} requires --{PLOT_READS[kind][0]}")


PLOT_RUNS = [case for case in CLI_CASES if case[2] == 0 and case[1][-1].startswith("plot ")]


@pytest.mark.parametrize("steps", [case[1] for case in PLOT_RUNS],
                         ids=[case[0] for case in PLOT_RUNS])
def test_plot_reads_only_the_flags_of_its_kind(capsys, tmp_path, monkeypatch, steps):
    # the refusal and the manifest see every flag through vars(); the work reads attributes
    monkeypatch.chdir(tmp_path)
    *setup, argv = steps
    prepare(capsys, setup)
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv.split())
    assert cmd_plot(Recorder(**vars(args))) == 0
    required, *_ = reads = PLOT_READS[args.kind]
    assert required in read and read & set(PLOT_DEFAULTS) <= set(reads)
