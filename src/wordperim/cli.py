"""Command-line interface.

Commands: moments, xmoment, verify, simulate, histogram, plot, render.
Exit codes: 0 success, 1 validation/verification failure, 2 usage error.
Every command that writes files creates their directories and also writes
``<out>.manifest.json`` with sha256 digests of all its outputs; identical
flags reproduce identical digests (simulation is seeded, output formats are
deterministic).

The commands import what they need when they run: ``simulate``,
``histogram`` and ``plot`` load numpy and the modules built on it
(``simulation``, ``empirics``, ``svgplot``); ``moments``, ``xmoment``,
``verify`` and ``render`` run without numpy.  The same rule holds for
``json`` and ``hashlib``: a function that reads or writes JSON, or hashes a
file, imports them itself, so ``verify`` loads no ``json`` and ``moments``
and ``xmoment`` load no OpenSSL.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from . import cross_moments as xm
from . import moments, verification
from .models import Model
from .polyomino import perimeter_decomposed, render_polyomino

DEFAULT_DELTA = Fraction(1, 2)
# the parameter of each model, given by the flag of its name
MODEL_PARAMETER = {"uniform": "k", "geometric": "p"}


class CliError(Exception):
    """Validation failure; reported on stderr with exit code 1."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _model_from_args(args) -> Model:
    flag = MODEL_PARAMETER[args.model]
    value = getattr(args, flag)
    if value is None:
        raise CliError(f"--model {args.model} requires --{flag}")
    return getattr(Model, args.model)(value)


def _printed(convert, quantity: str, args):
    """``convert()``, which turns exact values into text; a CliError if one has too many digits.

    Python refuses to print an int of more than ``sys.get_int_max_str_digits()``
    digits; the error names ``quantity`` and the flag of the model's parameter.
    """
    try:
        return convert()
    except ValueError:  # the one ValueError of str(Fraction)
        raise CliError(f"{quantity} has more than {sys.get_int_max_str_digits()} digits, the "
                       f"most Python prints; give --{MODEL_PARAMETER[args.model]} fewer digits")


def _add_model_args(parser, required: bool = True) -> None:
    parser.add_argument("--model", choices=["uniform", "geometric"], required=required)
    parser.add_argument("--k", type=int, help="uniform upper bound (letters in [1,k])")
    parser.add_argument("--p", type=_fraction, help="geometric success probability, e.g. 1/2")


def _sha256(path: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(primary_out: Path) -> Path:
    return primary_out.with_name(primary_out.name + ".manifest.json")


def _sidecar_path(csv: Path) -> Path:
    """The config sidecar that ``simulate`` writes next to its CSV, and ``plot`` reads."""
    return csv.with_suffix(".json")


def _check_outputs(outputs: dict[str, Path], inputs: dict[str, Path] | None = None) -> None:
    """Refuse outputs that name an input, one file twice, a directory or a path under a file.

    Each command calls it before any work.  The manifest, named after the first
    output, is checked right after it.  An output of an input, or two outputs of
    one file: the later would overwrite the earlier.  A directory is refused with
    the IsADirectoryError its write would raise, and an output under a plain file
    with the error the ``mkdir`` of its parent would.
    """
    (name, out), *rest = outputs.items()
    seen: dict[Path, str] = {}
    for what, path in (inputs or {}).items():  # inputs may share a file: they are only read
        seen.setdefault(path.resolve(), what)
    for what, path in [(name, out), ("the manifest", _manifest_path(out)), *rest]:
        first = seen.setdefault(path.resolve(), what)
        if first != what:
            raise CliError(f"{first} and {what} both name {path}")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        nearest = next(d for d in path.parents if d.exists())
        if not nearest.is_dir():
            code = errno.EEXIST if nearest == path.parent else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(path.parent))


def _write_outputs(args, writers: dict, model: Model | None = None) -> None:
    """Write each output, then the manifest of them all, and print one ``wrote`` line.

    ``writers`` maps each output path, in order, to a function that writes
    that path; each parent directory is created first.  The manifest is named
    after the first path.  Its flags are the parsed ``args``, each as
    ``str(value)`` and an absent one as ``""``, with ``model.describe()`` in
    place of ``--model``, ``--k`` and ``--p`` when the command built a model.
    """
    import json

    for path, write in writers.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    manifest = _manifest_path(next(iter(writers)))
    flags = {name: "" if value is None else str(value) for name, value in vars(args).items()
             if name not in ("command", "fn", "model", "k", "p")}
    if model is not None:
        flags["model"] = model.describe()
    doc = {"command": args.command, "flags": flags, "version": __version__,
           "outputs": {p.name: _sha256(p) for p in writers}}
    manifest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8",
                        newline="\n")
    print("wrote", *writers, manifest)


def _svg(svg: str):
    """A writer of ``svg`` as UTF-8 with LF line ends."""
    return lambda path: path.write_text(svg, encoding="utf-8", newline="\n")


def _read_input(reader, path):
    """``reader(path)``, with an unreadable ``--input`` reported as a CliError."""
    try:
        return reader(path)
    except OSError as e:
        raise CliError(f"cannot read --input: {e}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    import json

    model = _model_from_args(args)
    quantity = f"a moment of {model.describe()} at n={args.n}"
    try:
        report = moments.moment_report(model, args.n)
        doc = _printed(report.as_dict, quantity, args)
    except OverflowError as e:  # a decimal beyond float range
        raise CliError(f"{quantity} is too large: {e}")
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("field,exact,decimal")
        for name in report.EXACT_FIELDS:
            cell = doc[name]
            print(f"{name},{cell['exact']},{cell['decimal']!r}")
        print(f"sigma,,{report.sigma!r}")
    return 0


def cmd_xmoment(args) -> int:
    import json

    model = _model_from_args(args)
    try:
        exps = [int(t) for t in args.index.split(",")]
        if len(exps) != 4:
            raise ValueError("need four comma-separated integer exponents "
                             f"alpha,beta,gamma,delta, got {len(exps)}")
        idx = xm.MomentIndex(*exps).validate()
    except ValueError as e:
        raise CliError(f"bad --index {args.index!r}: {e}")
    # the closed form where the table has one, then the oracle
    routes = {"closed_form": xm.cross_moment_closed, "brute_force": xm.cross_moment_oracle}
    if idx not in xm.supported_closed_indices(model, args.centered):
        del routes["closed_form"]
    quantity = f"T{tuple(idx)} of {model.describe()}"
    results = []
    for method, route in routes.items():
        try:
            value = route(model, idx, args.centered)
            exact = _printed(partial(str, value), quantity, args)
            results.append({"method": method, "exact": exact, "decimal": float(value)})
        except OverflowError as e:  # a decimal beyond float range
            raise CliError(f"{quantity} is too large: {e}")
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
    # run_verification refuses a bad --k-max, --random-words or --seed before any check runs
    checks = verification.run_verification(k_max=args.k_max, p_list=_verify_p_list(args.p_list),
                                           random_words=args.random_words, seed=args.seed)
    print(verification.format_report(checks))
    # timings vary from run to run, so they stay off stdout (the report's bytes)
    for c in checks:
        print(f"time  {c.seconds:8.3f} s  {c.name}", file=sys.stderr)
    return 0 if all(c.passed for c in checks) else 1


def cmd_simulate(args) -> int:
    from . import simulation

    model = _model_from_args(args)
    out = Path(args.out)
    sidecar = _sidecar_path(out)
    _check_outputs({"--out": out, "the config sidecar": sidecar})
    ensemble = simulation.simulate(simulation.SimulationConfig(
        model=model, m=args.m, trajectories=args.trajectories, seed=args.seed,
        record_full_paths=args.paths))
    write = simulation.write_path_csv if args.paths else simulation.write_endpoint_csv
    _write_outputs(args, {out: partial(write, ensemble),
                          sidecar: partial(simulation.write_config_sidecar, ensemble)}, model)

    stats = simulation.empirical_moments(ensemble)
    mu3_anchor = float(args.m * moments.mu3_rate_closed(model))
    print(f"mean(z)            = {stats.mean_z!r}  (theory 0)")
    print(f"mean(z^2)          = {stats.meansq_z!r}  (theory 1)")
    print(f"mean((Q - mM)^3)   = {stats.sum_z3_raw!r}  (theory m*mu3* = {mu3_anchor!r})")
    return 0


def cmd_histogram(args) -> int:
    from . import empirics, simulation

    out = Path(args.out)
    outputs = {"--out": out}
    if args.gof:
        outputs["--gof"] = Path(args.gof)
    _check_outputs(outputs, {"--input": Path(args.input)})
    data = _read_input(simulation.read_endpoint_csv, args.input)
    hist = empirics.build_histogram(data["z"], args.delta)
    report = empirics.GofReport(empirics.ks_statistic(data["z"]), hist.max_cell_abs_error)
    writers = {out: partial(empirics.write_histogram_csv, hist)}
    if args.gof:
        writers[Path(args.gof)] = partial(empirics.write_gof_json, report)
    _write_outputs(args, writers)
    print(f"ks_statistic       = {report.ks_statistic!r}")
    print(f"max_cell_abs_error = {report.max_cell_abs_error!r}")
    return 0


def _read_sidecar(csv_path) -> tuple[float, float]:
    """(mean gap, sigma) from the config sidecar ``<stem>.json`` next to a path CSV."""
    import json

    path = _sidecar_path(Path(csv_path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        raise CliError(f"config sidecar {path} not found next to {csv_path}")
    except ValueError as e:  # not JSON, or not UTF-8
        raise CliError(f"config sidecar {path} is not valid JSON: {e}")
    numbers = []
    for field in ("mean_gap", "sigma"):
        try:  # mean_gap is exact text, such as "7/3"
            value = doc[field]
            numbers.append(float(Fraction(value) if field == "mean_gap" else value))
        except KeyError as e:
            raise CliError(f"config sidecar {path} has no field {e}")
        except OverflowError:  # beyond float range
            numbers.append(math.inf)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise CliError(f"config sidecar {path}: {e}")
        if isinstance(value, bool) or not 0 <= numbers[-1] < math.inf:  # sigma is 0 when k = 1
            raise CliError(f"config sidecar {path}: {field} must be a finite number >= 0, "
                           f"got {value!r}")
    return tuple(numbers)


def _simulated_grid(csv: Path) -> tuple[int, int] | None:
    """(N, m) of a path CSV that ``simulate --paths`` of this version wrote, else None.

    The proof is the manifest ``<csv>.manifest.json``: written by ``simulate``
    of this version with ``--paths``, and listing the sha256 of the file as it
    is now.  Such a file is a whole grid of N paths of m + 1 rows.
    """
    import json

    try:
        doc = json.loads(_manifest_path(csv).read_text(encoding="utf-8"))
        flags = doc["flags"]
        if (doc["command"], doc["version"], flags["paths"]) != ("simulate", __version__, "True"):
            return None
        if doc["outputs"][csv.name] != _sha256(csv):
            return None
        return int(flags["trajectories"]), int(flags["m"])
    except (OSError, ValueError, KeyError, TypeError):  # no manifest, or not one of simulate's
        return None


def _read_path(csv: str, trajectory: int) -> tuple:
    """(Q(0..m) of path ``trajectory``, int64, or None if out of range; N) of a path CSV.

    A CSV proven by ``_simulated_grid`` is parsed for that one path only;
    any other, or one whose path does not read back as its manifest says, is
    parsed whole by ``read_path_csv``, which reports what is wrong with it.
    """
    from . import simulation

    grid = _simulated_grid(Path(csv))
    if grid is not None:
        n, m = grid
        if not 0 <= trajectory < n:
            return None, n
        try:
            return simulation.read_path_csv(csv, trajectory=trajectory, m=m)[0], n
        except (OSError, ValueError):
            pass
    paths = _read_input(simulation.read_path_csv, csv)
    n = paths.shape[0]
    return (paths[trajectory] if 0 <= trajectory < n else None), n


def cmd_plot(args) -> int:
    import numpy as np

    from . import empirics, simulation, svgplot

    kind, out, model = args.kind, Path(args.out), None
    paths = kind in ("trajectory", "normalized")
    if kind == "pmf" and args.input:
        raise CliError("plot --kind pmf reads no --input")
    if args.trajectory and not paths:
        raise CliError(f"plot --kind {kind} draws no path: --trajectory {args.trajectory} "
                       "is for --kind trajectory or normalized")
    inputs = {"--input": Path(args.input)} if args.input else {}
    if inputs and paths:  # a path plot reads two files beside it
        inputs["the config sidecar"] = _sidecar_path(inputs["--input"])
        inputs["the manifest of --input"] = _manifest_path(inputs["--input"])
    _check_outputs({"--out": out}, inputs)
    if kind == "pmf":
        model = _model_from_args(args)
        svg = svgplot.plot_gap_pmf(model)
    elif paths:
        if not args.input:
            raise CliError(f"plot --kind {kind} requires --input (path-mode ensemble CSV)")
        row, n = _read_path(args.input, args.trajectory)
        mg, sigma = _read_sidecar(args.input)
        if row is None:
            raise CliError(f"--trajectory {args.trajectory} out of range 0..{n - 1}")
        if kind == "trajectory":
            svg = svgplot.plot_trajectory(row, mg)
        else:
            t = np.arange(row.size) / (row.size - 1)
            svg = svgplot.plot_normalized_path(t, simulation.scaled_path(row, mg, sigma, t))
    else:  # histogram or cumulative, the last of argparse's choices
        if not args.input:
            raise CliError(f"plot --kind {kind} requires --input (histogram CSV)")
        hist = _read_input(empirics.read_histogram_csv, args.input)
        if kind == "histogram":
            svg = svgplot.plot_histogram(hist["center"], hist["freq"], hist["gauss_mass"])
        else:
            svg = svgplot.plot_cumulative(hist["right"], hist["freq"])
    _write_outputs(args, {out: _svg(svg)}, model)
    return 0


def cmd_render(args) -> int:
    out = Path(args.out)
    _check_outputs({"--out": out})
    try:
        word = [int(t) for t in args.word.split(",")]
        svg = render_polyomino(word)
    except ValueError as e:
        raise CliError(f"bad --word {args.word!r}: {e}")
    _write_outputs(args, {out: _svg(svg)})
    b = perimeter_decomposed(word)
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
    p.set_defaults(fn=cmd_xmoment)

    p = sub.add_parser("verify", help="run the closed-form vs oracle identity sweep")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--p-list", default="", help="comma-separated rationals (default "
                   f"{','.join(map(str, verification.DEFAULT_P_LIST))})")
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
    p.add_argument("--delta", type=_fraction, default=DEFAULT_DELTA,
                   help="cell width (6/delta integral)")
    p.add_argument("--out", required=True, help="histogram CSV path")
    p.add_argument("--gof", default=None, help="optional goodness-of-fit JSON path")
    p.set_defaults(fn=cmd_histogram)

    p = sub.add_parser("plot", help="emit an SVG plot")
    p.add_argument("--kind", choices=["trajectory", "normalized", "histogram", "cumulative", "pmf"],
                   required=True)
    p.add_argument("--input", default=None, help="input CSV (kind-dependent)")
    p.add_argument("--trajectory", type=int, default=0, help="trajectory index for path plots")
    _add_model_args(p, required=False)
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
    except (CliError, ValueError) as e:  # a library ValueError names what it refuses
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # every command turns its input-reading OSErrors into CliError
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
