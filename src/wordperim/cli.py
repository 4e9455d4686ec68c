"""Command-line interface.

Commands: moments, xmoment, verify, simulate, histogram, plot, render.
Exit codes: 0 success, 1 validation/verification failure, 2 usage error.
Every command that writes files also writes ``<out-stem>.manifest.json``
with sha256 digests of the outputs; identical flags reproduce identical
digests (simulation is seeded, output formats are deterministic).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import cross_moments as xm
from . import empirics, moments, simulation, svgplot, verification
from .models import Model
from .polyomino import perimeter_decomposed, render_polyomino

DEFAULT_DELTA = Fraction(1, 2)


class CliError(Exception):
    """Validation failure; reported on stderr with exit code 1."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _model_from_args(args) -> Model:
    if args.model == "uniform":
        if args.k is None:
            raise CliError("--model uniform requires --k")
        try:
            return Model.uniform(args.k)
        except ValueError as e:
            raise CliError(str(e))
    if args.p is None:
        raise CliError("--model geometric requires --p")
    try:
        return Model.geometric(args.p)
    except ValueError as e:
        raise CliError(str(e))


def _add_model_args(parser) -> None:
    parser.add_argument("--model", choices=["uniform", "geometric"], required=True)
    parser.add_argument("--k", type=int, help="uniform upper bound (letters in [1,k])")
    parser.add_argument("--p", type=_fraction, help="geometric success probability, e.g. 1/2")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary_out: Path, command: str, flags: dict, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "flags": {k: str(v) for k, v in sorted(flags.items())},
        "version": __version__,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = primary_out.with_name(primary_out.name + ".manifest.json")
    simulation._write_json(manifest, path)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    model = _model_from_args(args)
    try:
        report = moments.moment_report(model, args.n)
    except ValueError as e:
        raise CliError(str(e))
    doc = report.as_dict()
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("field,exact,decimal")
        for name in ("mean_P", "mean_R", "mean_Q", "var_P", "mu3_dominant", "vstar"):
            cell = doc[name]
            print(f"{name},{cell['exact']},{cell['decimal']!r}")
        print(f"sigma,,{report.sigma!r}")
    return 0


def cmd_xmoment(args) -> int:
    model = _model_from_args(args)
    try:
        idx = xm.MomentIndex(*(int(t) for t in args.index.split(","))).validate()
    except (TypeError, ValueError) as e:
        raise CliError(f"bad --index {args.index!r}: {e}")
    routes = {"closed_form": xm.cross_moment_closed, "brute_force": xm.cross_moment_oracle}
    methods = {"closed": ["closed_form"], "oracle": ["brute_force"],
               "both": ["closed_form", "brute_force"]}[args.method]
    results = []
    for method in methods:
        try:
            value = routes[method](model, idx, args.centered)
        except ValueError as e:  # NoClosedFormError is one
            raise CliError(str(e))
        results.append({"method": method, "exact": str(value), "decimal": float(value)})
    print(json.dumps({
        "model": model.as_dict(),
        "index": list(idx),
        "centered": args.centered,
        "results": results,
    }, indent=2, sort_keys=True))
    return 0


def _verify_p_list(text: str) -> list[Fraction]:
    if not text:
        return list(verification.DEFAULT_P_LIST)
    p_list = []
    for token in text.split(","):
        try:
            p_list.append(Model.geometric(token).p)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad --p-list entry {token!r}: need a rational 0 < p < 1")
    return p_list


def cmd_verify(args) -> int:
    p_list = _verify_p_list(args.p_list)
    if args.k_max < 1:
        raise CliError(f"--k-max must be >= 1, got {args.k_max}")
    if args.n_max < 4:  # check_variance starts at n = 4; below, it would compare nothing
        raise CliError(f"--n-max must be >= 4, got {args.n_max}")
    if args.random_words < 0:
        raise CliError(f"--random-words must be >= 0, got {args.random_words}")
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    checks = verification.run_verification(
        k_max=args.k_max,
        p_list=p_list,
        n_max=args.n_max,
        random_words=args.random_words,
        seed=args.seed,
    )
    print(verification.format_report(checks))
    # timings vary from run to run, so they stay off stdout (the report's bytes)
    for c in checks:
        print(f"time  {c.seconds:8.3f} s  {c.name}", file=sys.stderr)
    return 0 if all(c.passed for c in checks) else 1


def cmd_simulate(args) -> int:
    model = _model_from_args(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        config = simulation.SimulationConfig(
            model=model,
            m=args.m,
            trajectories=args.trajectories,
            seed=args.seed,
            record_full_paths=args.paths,
        )
        ensemble = simulation.simulate(config)
    except (ValueError, simulation.MemoryBudgetExceeded) as e:
        raise CliError(str(e))

    outputs = [out]
    if args.paths:
        simulation.write_path_csv(ensemble, out)
    else:
        simulation.write_endpoint_csv(ensemble, out)
    sidecar = out.with_suffix(".json")
    simulation.write_config_sidecar(ensemble, sidecar)
    outputs.append(sidecar)

    flags = {"model": model.describe(), "m": args.m, "trajectories": args.trajectories,
             "seed": args.seed, "paths": args.paths, "out": args.out}
    manifest = _write_manifest(out, "simulate", flags, outputs)

    stats = simulation.empirical_moments(ensemble)
    mu3_anchor = float(args.m * moments.mu3_rate_closed(model))
    print(f"wrote {out} {sidecar} {manifest}")
    print(f"mean(z)            = {stats.mean_z!r}  (theory 0)")
    print(f"mean(z^2)          = {stats.meansq_z!r}  (theory 1)")
    print(f"mean((Q - mM)^3)   = {stats.sum_z3_raw!r}  (theory m*mu3* = {mu3_anchor!r})")
    return 0


def cmd_histogram(args) -> int:
    try:
        data = simulation.read_endpoint_csv(args.input)
    except (OSError, ValueError) as e:
        raise CliError(str(e))
    try:
        hist = empirics.build_histogram(data["z"], args.delta)
    except ValueError as e:
        raise CliError(str(e))
    report = empirics.GofReport(empirics.ks_statistic(data["z"]), hist.max_cell_abs_error)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    empirics.write_histogram_csv(hist, out)
    outputs = [out]
    if args.gof:
        gof_path = Path(args.gof)
        empirics.write_gof_json(report, gof_path)
        outputs.append(gof_path)
    flags = {"input": args.input, "delta": args.delta, "out": args.out, "gof": args.gof or ""}
    manifest = _write_manifest(out, "histogram", flags, outputs)
    print(f"wrote {' '.join(str(p) for p in outputs)} {manifest}")
    print(f"ks_statistic       = {report.ks_statistic!r}")
    print(f"max_cell_abs_error = {report.max_cell_abs_error!r}")
    return 0


def cmd_plot(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    kind = args.kind
    if kind == "pmf":
        model = _model_from_args(args)
        svg = svgplot.plot_gap_pmf(model)
    elif kind in ("trajectory", "normalized"):
        if not args.input:
            raise CliError(f"plot --kind {kind} requires --input (path-mode ensemble CSV)")
        try:
            paths = simulation.read_path_csv(args.input)
        except (OSError, ValueError) as e:
            raise CliError(str(e))
        sidecar_path = Path(args.input).with_suffix(".json")
        try:
            sidecar = simulation.read_config_sidecar(sidecar_path)
        except OSError:
            raise CliError(f"config sidecar {sidecar_path} not found next to {args.input}")
        if not 0 <= args.trajectory < paths.shape[0]:
            raise CliError(f"--trajectory {args.trajectory} out of range 0..{paths.shape[0] - 1}")
        row = paths[args.trajectory]
        if kind == "trajectory":
            svg = svgplot.plot_trajectory(row, float(Fraction(sidecar["mean_gap"])))
        else:
            m = paths.shape[1] - 1
            sigma = float(sidecar["sigma"])
            mg = float(Fraction(sidecar["mean_gap"]))
            t = np.arange(m + 1) / m
            if sigma == 0.0:
                w = np.zeros(m + 1)
            else:
                w = (row - mg * m * t) / (sigma * np.sqrt(m))
            svg = svgplot.plot_normalized_path(t, w)
    elif kind in ("histogram", "cumulative"):
        if not args.input:
            raise CliError(f"plot --kind {kind} requires --input (histogram CSV)")
        try:
            hist = empirics.read_histogram_csv(args.input)
        except (OSError, ValueError) as e:
            raise CliError(str(e))
        if kind == "histogram":
            svg = svgplot.plot_histogram(hist["center"], hist["freq"], hist["gauss_mass"])
        else:
            svg = svgplot.plot_cumulative(hist["right"], hist["freq"])
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown plot kind {kind!r}")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    flags = {"kind": kind, "input": args.input or "", "out": args.out,
             "trajectory": args.trajectory}
    manifest = _write_manifest(out, "plot", flags, [out])
    print(f"wrote {out} {manifest}")
    return 0


def cmd_render(args) -> int:
    try:
        word = [int(t) for t in args.word.split(",")]
        svg = render_polyomino(word)
    except ValueError as e:
        raise CliError(str(e))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    manifest = _write_manifest(out, "render", {"word": args.word, "out": args.out}, [out])
    b = perimeter_decomposed(word)
    print(f"wrote {out} {manifest}")
    print(f"word={args.word} Q={b.Q} R={b.R} P={b.P}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordperim",
        description="Exact moments and limit-law simulation for random-word perimeters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact mean/variance/mu3 table for one (model, n)")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True, help="word length (>= 2)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("xmoment", help="query one cross-moment T[a,b,c,d]")
    _add_model_args(p)
    p.add_argument("--index", required=True, help="four comma-separated exponents, e.g. 0,1,1,0")
    p.add_argument("--centered", action="store_true")
    p.add_argument("--method", choices=["closed", "oracle", "both"], default="both")
    p.set_defaults(fn=cmd_xmoment)

    p = sub.add_parser("verify", help="run the closed-form vs oracle identity sweep")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--p-list", default="", help="comma-separated rationals (default 1/10,1/4,1/2,3/4,9/10)")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--random-words", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="seeded Monte Carlo ensemble of gap-sum trajectories")
    _add_model_args(p)
    p.add_argument("--m", type=int, required=True, help="gaps per trajectory")
    p.add_argument("--trajectories", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--paths", action="store_true", help="record full partial-sum paths")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("histogram", help="fixed-grid histogram and Gaussian fit of an ensemble")
    p.add_argument("--input", required=True, help="endpoint ensemble CSV")
    p.add_argument("--delta", type=_fraction, default=DEFAULT_DELTA, help="cell width (6/delta integral)")
    p.add_argument("--out", required=True, help="histogram CSV path")
    p.add_argument("--gof", default=None, help="optional goodness-of-fit JSON path")
    p.set_defaults(fn=cmd_histogram)

    p = sub.add_parser("plot", help="emit an SVG plot")
    p.add_argument("--kind", choices=["trajectory", "normalized", "histogram", "cumulative", "pmf"],
                   required=True)
    p.add_argument("--input", default=None, help="input CSV (kind-dependent)")
    p.add_argument("--trajectory", type=int, default=0, help="trajectory index for path plots")
    p.add_argument("--model", choices=["uniform", "geometric"], help="for --kind pmf")
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=_fraction)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("render", help="draw a word's polyomino as SVG")
    p.add_argument("--word", required=True, help="comma-separated letters, e.g. 2,3,1,3")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "plot" and args.kind == "pmf" and args.model is None:
        parser.error("plot --kind pmf requires --model")
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
