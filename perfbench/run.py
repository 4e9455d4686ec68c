"""wordperim benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_uniform --seed 9 --seconds 35 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/child.py``), which
imports ``wordperim`` from ``src/`` and calls ``wordperim.cli.main(argv)`` for
each step of the workload.  A fresh interpreter is required: the exact oracle
keeps an unbounded ``lru_cache``, so a second run of ``verify`` in one process
would time cache hits.  Repetitions run one after another, single-threaded:
``--threads`` is never passed and ``WPL_THREADS`` is removed from the child's
environment.  Repetitions are repeated until ``--seconds`` have passed (at
least three), and each metric is the median over them.

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and the result holds the per-layer
metrics of the traced ones (see ``tracing.py``).  Outputs are checked after
each repetition; every check counts into ``attempted`` and ``failed``.  The
last line of stdout is the JSON result; a detailed record goes to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SELF_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_SPAWNS = 6          # set-up-only interpreters per run, after one warm-up
RUN_LIMIT_S = 170         # a run that is not done by then is killed and fails
T_START = time.monotonic()
# traced run: |wall - setup - sum of per-layer self times| must stay within this
TRACE_SUM_TOL_S = 0.05
TRACE_SUM_TOL_FRAC = 0.02

MC = {"k": 6, "m": 500, "trajectories": 100000, "recheck": 64}
PATHS = {"p": "1/2", "m": 500, "trajectories": 2000}
# The default p list minus 1/10: with p = 1/10 (cutoff U = 328) one repetition
# takes 9-12 s, too few fit in a run to give a steady median on a noisy host.
VERIFY_P_LIST = "1/4,1/2,3/4,9/10"


def steps_for(workload: str, seed: int) -> list[list[str]]:
    s = str(seed)
    if workload == "mc_uniform":
        return [
            ["simulate", "--model", "uniform", "--k", str(MC["k"]), "--m", str(MC["m"]),
             "--trajectories", str(MC["trajectories"]), "--seed", s, "--out", "ens.csv"],
            ["histogram", "--input", "ens.csv", "--delta", "1/2", "--out", "hist.csv",
             "--gof", "gof.json"],
            ["plot", "--kind", "histogram", "--input", "hist.csv", "--out", "hist.svg"],
            ["plot", "--kind", "cumulative", "--input", "hist.csv", "--out", "cum.svg"],
        ]
    if workload == "paths_geometric":
        return [
            ["simulate", "--model", "geometric", "--p", PATHS["p"], "--m", str(PATHS["m"]),
             "--trajectories", str(PATHS["trajectories"]), "--seed", s, "--paths",
             "--out", "paths.csv"],
            ["plot", "--kind", "normalized", "--input", "paths.csv", "--out", "normalized.svg"],
        ]
    if workload == "verify":
        return [["verify", "--p-list", VERIFY_P_LIST, "--seed", s]]
    raise ValueError(f"unknown workload {workload!r}")


class Checks:
    """Correctness checks of one run: each counts once into attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# output checks (independent of the seed: no statistical band is gated)
# ---------------------------------------------------------------------------

def _endpoint(model, seed: int, index: int, m: int) -> int:
    import numpy as np
    from wordperim.models import sample_letters
    from wordperim.simulation import trajectory_rng

    letters = sample_letters(model, trajectory_rng(seed, index), m + 1)
    return int(np.abs(np.diff(letters)).sum())


def check_mc_uniform(d: Path, seed: int, checks: Checks, info: dict) -> None:
    from wordperim.models import Model

    model, m = Model.uniform(MC["k"]), MC["m"]
    with open(d / "ens.csv", encoding="utf-8") as fh:
        checks.expect(fh.readline() == "trajectory,endpoint,z\n", "ens.csv header")
        rows = [fh.readline().split(",") for _ in range(MC["recheck"])]
    for index, row in enumerate(rows):
        ok = len(row) == 3 and int(row[0]) == index and int(row[1]) == _endpoint(model, seed, index, m)
        checks.expect(ok, f"ens.csv row {index} differs from trajectory_rng({seed}, {index})")
    with open(d / "hist.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        col = header.index("count")
        total = sum(int(line.split(",")[col]) for line in fh)
    checks.expect(total == MC["trajectories"], f"histogram counts sum to {total}")
    gof = json.loads((d / "gof.json").read_text(encoding="utf-8"))
    info["ks_statistic"] = gof["ks_statistic"]
    info["max_cell_abs_error"] = gof["max_cell_abs_error"]
    for line in (d / "stdout.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("mean((Q - mM)^3)"):
            info["third_moment_line"] = line


def check_paths_geometric(d: Path, seed: int, checks: Checks, info: dict) -> None:
    import numpy as np
    from wordperim.models import Model

    model, m, n = Model.geometric(PATHS["p"]), PATHS["m"], PATHS["trajectories"]
    header, body = (d / "paths.csv").read_bytes().split(b"\n", 1)
    checks.expect(header == b"trajectory,j,Q", "paths.csv header")
    flat = np.fromstring(body.replace(b"\n", b",").decode("ascii"), dtype=np.int64, sep=",")
    layout_ok = flat.size == 3 * n * (m + 1)
    checks.expect(layout_ok, f"paths.csv has {flat.size // 3} rows, want {n * (m + 1)}")
    if not layout_ok:
        return
    cols = flat.reshape(n, m + 1, 3)
    checks.expect(bool((cols[:, :, 0] == np.arange(n)[:, None]).all()
                       and (cols[:, :, 1] == np.arange(m + 1)).all()), "paths.csv row order")
    q = cols[:, :, 2]
    for index in range(n):
        checks.expect(q[index, 0] == 0, f"path {index} starts at {q[index, 0]}")
        want = _endpoint(model, seed, index, m)
        checks.expect(q[index, -1] == want, f"path {index} ends at {q[index, -1]}, want {want}")


def check_verify(d: Path, seed: int, checks: Checks, info: dict) -> None:
    lines = (d / "stdout.txt").read_text(encoding="utf-8").splitlines()
    status = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    checks.expect(len(status) == 13, f"verify reported {len(status)} checks, want 13")
    for line in status:
        checks.expect(line.startswith("PASS"), f"verify: {line.strip()}")
    info["verify_summary"] = lines[-1] if lines else ""


CONTENT_CHECKS = {
    "mc_uniform": check_mc_uniform,
    "paths_geometric": check_paths_geometric,
    "verify": check_verify,
}

# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(d: Path, checks: Checks) -> dict[str, str]:
    """sha256 of every file the CLI manifests list, and of the CLI's stdout.

    Each manifest entry is also checked against the file on disk.
    """
    digests = {"stdout.txt": _sha256(d / "stdout.txt")}
    for manifest in sorted(d.glob("*.manifest.json")):
        listed = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for name, digest in sorted(listed.items()):
            actual = _sha256(d / name)
            checks.expect(actual == digest, f"{name}: manifest digest differs from the file")
            digests[name] = actual
    return digests


def compare_digests(ref: dict, got: dict, label: str, checks: Checks) -> None:
    for name in sorted(set(ref) | set(got)):
        checks.expect(ref.get(name) == got.get(name), f"{name}: digest differs from {label}")


class DigestStore:
    """Digests per workload argv (which holds the seed), kept across runs in this checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def check_or_record(self, key: str, digests: dict, checks: Checks) -> None:
        if key in self.doc:
            compare_digests(self.doc[key], digests, "an earlier run of this seed", checks)
        else:
            self.doc[key] = digests
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WPL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(rep_dir: Path, steps: list, trace: bool, env: dict) -> dict:
    """Run child.py in ``rep_dir``; return its record plus the spawn time."""
    result = rep_dir / "child_result.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result), "1" if trace else "0",
            json.dumps(steps)]
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rep_dir, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - T_START)))
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.wait()
    if code != 0 or not result.exists():
        tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"benchmark child exited with {code}:\n{tail}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    doc["setup_s"] = doc["t_ready"] - t_spawn
    doc["wall_s"] = doc["t_end"] - t_spawn
    return doc


# ---------------------------------------------------------------------------
# facts and summaries
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "file_cache": "not dropped: dropping the OS file cache is a machine setting",
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wordperim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "samples": values}


def check_trace(rec: dict, checks: Checks) -> float:
    """Per-layer self times plus set-up must add up to the traced wall time.

    Returns the unattributed remainder (wall - setup - sum of self times).
    """
    report = rec["trace"]
    gap = rec["wall_s"] - rec["setup_s"] - sum(report["metrics"][m] for m in SELF_METRICS)
    tol = max(TRACE_SUM_TOL_S, TRACE_SUM_TOL_FRAC * rec["wall_s"])
    checks.expect(abs(gap) <= tol,
                  f"traced self times miss wall time by {gap:.3f} s (tolerance {tol:.3f} s)")
    checks.expect(report["min_self_s"] >= -1e-6, "a traced span has negative self time")
    return gap


def layer_summary(spec: dict, traced: list, untraced_wall: float) -> dict:
    layer = {}
    for m in spec["per_layer"]:
        if not m["name"].startswith("trace."):
            layer[m["name"]] = summary([r["trace"]["metrics"][m["name"]] for r in traced])
    layer["trace.wall_s"] = summary([r["wall_s"] for r in traced])
    layer["trace.overhead_s"] = summary([layer["trace.wall_s"]["median"] - untraced_wall])
    layer["trace.unattributed_s"] = summary([r["unattributed_s"] for r in traced])
    return layer


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(tmp)
    steps = steps_for(workload, seed)
    checks, info = Checks(), {}
    store = DigestStore(OUT / "digests.json")
    key = json.dumps(steps)  # the argv lists name the workload and hold the seed

    def fresh_dir(tag: str) -> Path:
        d = tmp / f"{workload}-{os.getpid()}-{tag}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        return d

    setup = []
    for i in range(SETUP_SPAWNS + 1):
        d = fresh_dir(f"setup{i}")
        try:
            rec = spawn(d, [], False, env)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if i > 0:  # the first spawn warms the OS file cache and __pycache__
            setup.append(rec["setup_s"])

    plain, traced, ref_digests = [], [], None
    start = time.monotonic()
    rep = 0
    while rep < MIN_REPS or time.monotonic() - start < seconds:
        with_trace = trace and rep % 2 == 1
        d = fresh_dir(f"rep{rep}")
        try:
            rec = spawn(d, steps, with_trace, env)
            for i, code in enumerate(rec["exit_codes"]):
                checks.expect(code == 0, f"rep {rep} step {steps[i][0]} exited with {code}")
            digests = output_digests(d, checks)
            if ref_digests is None:
                CONTENT_CHECKS[workload](d, seed, checks, info)
                store.check_or_record(key, digests, checks)
                ref_digests = digests
            else:
                compare_digests(ref_digests, digests, "the first repetition", checks)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        setup.append(rec["setup_s"])
        if with_trace:
            rec["unattributed_s"] = check_trace(rec, checks)
            traced.append(rec)
        else:
            plain.append(rec)
        rep += 1

    e2e = {
        "wall_s": summary([r["wall_s"] for r in plain]),
        "cpu_s": summary([r["cpu_s"] for r in plain]),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([r["maxrss_kib"] / 1024 for r in plain]),
    }
    layer = {}
    if trace:
        layer = layer_summary(spec, traced, e2e["wall_s"]["median"])
        info["missing_hooks"] = traced[0]["trace"]["missing_hooks"]
        info["trace_tree"] = traced[0]["trace"]["tree"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = layer if trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": got[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    return {
        "workload": workload, "why": why, "seed": seed, "seconds": seconds, "spec": spec,
        "trace": trace, "steps": steps, "repetitions": rep,
        "closed_loop": "one client, one process at a time",
        "end_to_end": e2e, "per_layer": layer, "info": info,
        "failures": checks.failures, "machine": machine_facts(),
        "trace_sum_tolerance": f"max({TRACE_SUM_TOL_S} s, {TRACE_SUM_TOL_FRAC} x wall_s)",
        "result": {"correct": not checks.failures, "attempted": checks.attempted,
                   "failed": len(checks.failures), "metrics": metrics},
    }


def print_report(doc: dict) -> None:
    print(f"workload {doc['workload']} seed {doc['seed']} trace {int(doc['trace'])}: "
          f"{doc['repetitions']} repetitions in fresh interpreters ({doc['why']})")
    m = doc["machine"]
    print(f"machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['git_commit']}, file cache {m['file_cache']}")
    units = {x["name"]: x["unit"] for x in doc["spec"]["end_to_end"] + doc["spec"]["per_layer"]}
    table = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    for name, s in table.items():
        print(f"  {name:<46} {s['median']:>14.6g} {units.get(name, ''):<6}"
              f" median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}")
    for k, v in doc["info"].items():
        if k != "trace_tree":
            print(f"  {k}: {v}")
    for f in doc["failures"][:20]:
        print(f"  FAILED: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONTENT_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "wordperim" / "cli.py").is_file():
        print(f"error: no wordperim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print_report(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
