"""Span tracer for the traced benchmark run.

The tracer replaces public ``wordperim`` functions by wrappers, in the traced
child interpreter only.  A function is replaced in every ``wordperim`` module
that holds it, so a module that did ``from .models import sample_letters``
sees the wrapper too.  Callers look these names up as module globals at call
time, which is what makes the substitution reach them; a reference bound
earlier (a default argument, a local alias) stays untraced and its time falls
to the enclosing span's self time.

Spans are aggregated per (parent span, name) into a call tree, because some
functions run 1e5 times per workload.  Each node keeps its call count, its
inclusive time, the time its child spans covered, and the first start and last
end of its calls.  Self time is inclusive time minus child time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

CHECKS = (
    "check_gap_pmf",
    "check_cross_moments_uniform",
    "check_cross_moments_geometric",
    "check_reversibility",
    "check_centering",
    "check_independence",
    "check_mean",
    "check_variance",
    "check_mu3",
    "check_vstar",
    "check_mean_decomposition",
    "check_perimeter_exhaustive",
    "check_perimeter_random",
)

# Per-layer metrics: (name, kind, source); units are in BENCHMARK.json.
#   self     -- summed self time of the named spans
#   incl     -- summed inclusive time of the named span
#   calls    -- number of calls of the named span
#   counter  -- a counter recorded by a hook
# The "self" metrics partition the time spent inside cli.main: every span name
# of SPANS below belongs to exactly one of them.
LAYER_METRICS = [
    ("simulation.trajectory_rng_s", "self", ("simulation.trajectory_rng",)),
    ("simulation.trajectory_rng_calls", "calls", "simulation.trajectory_rng"),
    ("models.sample_letters_s", "self", ("models.sample_letters",)),
    ("models.letters_drawn", "counter", "models.letters_drawn"),
    ("simulation.reduce_self_s", "self", ("simulation.simulate",)),
    ("simulation.write_path_csv_s", "self", ("simulation.write_path_csv",)),
    ("simulation.read_path_csv_s", "self", ("simulation.read_path_csv",)),
    ("simulation.write_endpoint_csv_s", "self", ("simulation.write_endpoint_csv",)),
    ("simulation.read_endpoint_csv_s", "self", ("simulation.read_endpoint_csv",)),
    ("simulation.bytes_written", "counter", "simulation.bytes_written"),
    ("simulation.bytes_read", "counter", "simulation.bytes_read"),
    ("simulation.rows_read", "counter", "simulation.rows_read"),
    ("empirics.build_histogram_s", "self", ("empirics.build_histogram",)),
    ("empirics.ks_statistic_s", "self", ("empirics.ks_statistic",)),
    ("empirics.gof_s", "self", ("empirics.goodness_of_fit",)),
    ("empirics.histogram_io_s", "self", ("empirics.histogram_io",)),
    ("empirics.samples", "counter", "empirics.samples"),
    ("cross_moments.oracle_s", "self", ("cross_moments.oracle",)),
    ("cross_moments.oracle_calls", "calls", "cross_moments.oracle"),
    ("cross_moments.oracle_distinct_keys", "counter", "cross_moments.oracle_distinct_keys"),
    ("cross_moments.oracle_useful_ratio", "counter", "cross_moments.oracle_useful_ratio"),
    ("cross_moments.closed_s", "self", ("cross_moments.closed",)),
    ("models.gap_pmf_by_convolution_s", "self", ("models.gap_pmf_by_convolution",)),
    ("models.letter_cutoff_max", "counter", "models.letter_cutoff_max"),
    *[(f"verification.{c}_s", "incl", f"verification.{c}") for c in CHECKS],
    ("verification.self_s", "self",
     ("verification.run_verification",) + tuple(f"verification.{c}" for c in CHECKS)),
    ("verification.instances", "counter", "verification.instances"),
    ("polyomino.edge_count_s", "self", ("polyomino.edge_count",)),
    ("polyomino.decomposed_s", "self", ("polyomino.decomposed",)),
    ("polyomino.words_checked", "calls", "polyomino.edge_count"),
    ("moments.vstar_sigma_s", "self", ("moments.vstar_sigma",)),
    ("moments.assembly_s", "self", ("moments.assembly",)),
    ("svgplot.plot_s", "self", ("svgplot.plot",)),
    ("svgplot.svg_bytes", "counter", "svgplot.svg_bytes"),
    ("cli.self_s", "self", ("cli",)),
    ("cli.bytes_hashed", "counter", "cli.bytes_hashed"),
]


def _add(counters: dict, key: str, amount) -> None:
    counters[key] = counters.get(key, 0) + amount


def _path_arg(args, kwargs, pos: int):
    return kwargs["path"] if "path" in kwargs else args[pos]


def _on_letters(tracer, args, kwargs, result):
    _add(tracer.counters, "models.letters_drawn", len(result))


def _on_write(tracer, args, kwargs, result):
    _add(tracer.counters, "simulation.bytes_written", os.path.getsize(_path_arg(args, kwargs, 1)))


def _on_read(tracer, args, kwargs, result):
    _add(tracer.counters, "simulation.bytes_read", os.path.getsize(_path_arg(args, kwargs, 0)))
    rows = result.size if hasattr(result, "size") else len(result["z"])
    _add(tracer.counters, "simulation.rows_read", rows)


def _on_histogram(tracer, args, kwargs, result):
    _add(tracer.counters, "empirics.samples", result.n)


def _on_oracle(tracer, args, kwargs, result):
    centered = kwargs.get("centered", args[2] if len(args) > 2 else False)
    idx = kwargs["idx"] if "idx" in kwargs else args[1]
    model = kwargs["model"] if "model" in kwargs else args[0]
    tracer.oracle_keys.add((model, tuple(idx), bool(centered)))


def _on_check(tracer, args, kwargs, result):
    _add(tracer.counters, "verification.instances", result.instances)


def _on_svg(tracer, args, kwargs, result):
    _add(tracer.counters, "svgplot.svg_bytes", len(result.encode("utf-8")))


def _on_cutoff(tracer, args, kwargs, result):
    c = tracer.counters
    c["models.letter_cutoff_max"] = max(c.get("models.letter_cutoff_max", 0), result)


def _on_sha256(tracer, args, kwargs, result):
    _add(tracer.counters, "cli.bytes_hashed", os.path.getsize(args[0]))


# (module, function, span name or None for a count-only hook, hook)
SPANS = [
    ("simulation", "trajectory_rng", "simulation.trajectory_rng", None),
    ("models", "sample_letters", "models.sample_letters", _on_letters),
    ("simulation", "simulate", "simulation.simulate", None),
    ("simulation", "write_path_csv", "simulation.write_path_csv", _on_write),
    ("simulation", "read_path_csv", "simulation.read_path_csv", _on_read),
    ("simulation", "write_endpoint_csv", "simulation.write_endpoint_csv", _on_write),
    ("simulation", "read_endpoint_csv", "simulation.read_endpoint_csv", _on_read),
    ("empirics", "build_histogram", "empirics.build_histogram", _on_histogram),
    ("empirics", "ks_statistic", "empirics.ks_statistic", None),
    ("empirics", "goodness_of_fit", "empirics.goodness_of_fit", None),
    ("empirics", "write_histogram_csv", "empirics.histogram_io", None),
    ("empirics", "read_histogram_csv", "empirics.histogram_io", None),
    ("empirics", "write_gof_json", "empirics.histogram_io", None),
    ("cross_moments", "cross_moment_oracle", "cross_moments.oracle", _on_oracle),
    ("cross_moments", "cross_moment_closed", "cross_moments.closed", None),
    ("models", "gap_pmf_by_convolution", "models.gap_pmf_by_convolution", None),
    ("models", "letter_cutoff", None, _on_cutoff),
    ("verification", "run_verification", "verification.run_verification", None),
    *[("verification", c, f"verification.{c}", _on_check) for c in CHECKS],
    ("polyomino", "perimeter_edge_count", "polyomino.edge_count", None),
    ("polyomino", "perimeter_decomposed", "polyomino.decomposed", None),
    ("moments", "vstar_sigma", "moments.vstar_sigma", None),
    ("moments", "mean_assembly", "moments.assembly", None),
    ("moments", "variance_assembly", "moments.assembly", None),
    ("moments", "mu3_rate_assembly", "moments.assembly", None),
    ("moments", "mu3_rate_centered_assembly", "moments.assembly", None),
    ("moments", "vstar_assembly", "moments.assembly", None),
    ("svgplot", "plot_gap_pmf", "svgplot.plot", _on_svg),
    ("svgplot", "plot_trajectory", "svgplot.plot", _on_svg),
    ("svgplot", "plot_normalized_path", "svgplot.plot", _on_svg),
    ("svgplot", "plot_histogram", "svgplot.plot", _on_svg),
    ("svgplot", "plot_cumulative", "svgplot.plot", _on_svg),
    ("cli", "_sha256", None, _on_sha256),
]


class _Node:
    __slots__ = ("name", "children", "calls", "total", "child_total", "first_start", "last_end")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.total = 0.0
        self.child_total = 0.0
        self.first_start = None
        self.last_end = 0.0


class Tracer:
    def __init__(self):
        self.root = _Node("<root>")
        self._stack = [self.root]
        self.counters: dict[str, float] = {}
        self.oracle_keys: set = set()
        self.missing_hooks: list[str] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str | None, fn, hook=None):
        """Return ``fn`` recording a span called ``name`` (count-only if None)."""
        stack, clock, tracer = self._stack, time.perf_counter, self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node(name)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                node.calls += 1
                node.total += end - start
                parent.child_total += end - start
                if node.first_start is None:
                    node.first_start = start - tracer._t0
                node.last_end = end - tracer._t0
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every function of SPANS in all loaded ``wordperim`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "wordperim" or n.startswith("wordperim.")]
        for module, attr, span, hook in SPANS:
            original = getattr(sys.modules.get(f"wordperim.{module}"), attr, None)
            if original is None:
                self.missing_hooks.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(span, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def nodes(self):
        """Every span node except the root, depth first, with its parent path."""
        todo = [(self.root, "")]
        while todo:
            node, path = todo.pop()
            for child in node.children.values():
                child_path = f"{path}/{child.name}"
                yield child_path, child
                todo.append((child, child_path))

    def report(self) -> dict:
        """Per-layer metric values plus the aggregated call tree."""
        self_t: dict[str, float] = {}
        incl_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        tree = []
        for path, node in self.nodes():
            self_t[node.name] = self_t.get(node.name, 0.0) + node.total - node.child_total
            incl_t[node.name] = incl_t.get(node.name, 0.0) + node.total
            calls[node.name] = calls.get(node.name, 0) + node.calls
            tree.append({"span": path, "calls": node.calls, "total_s": node.total,
                         "self_s": node.total - node.child_total,
                         "first_start_s": node.first_start, "last_end_s": node.last_end})
        counters = dict(self.counters)
        n_calls = calls.get("cross_moments.oracle", 0)
        counters["cross_moments.oracle_distinct_keys"] = len(self.oracle_keys)
        counters["cross_moments.oracle_useful_ratio"] = (
            len(self.oracle_keys) / n_calls if n_calls else 0.0)
        metrics = {}
        for name, kind, source in LAYER_METRICS:
            if kind == "self":
                metrics[name] = sum(self_t.get(s, 0.0) for s in source)
            elif kind == "incl":
                metrics[name] = incl_t.get(source, 0.0)
            elif kind == "calls":
                metrics[name] = calls.get(source, 0)
            else:
                metrics[name] = counters.get(source, 0)
        return {
            "metrics": metrics,
            "self_time_total_s": sum(self_t.values()),
            "min_self_s": min((e["self_s"] for e in tree), default=0.0),
            "missing_hooks": self.missing_hooks,
            "tree": tree,
        }


SELF_METRICS = [name for name, kind, _source in LAYER_METRICS if kind == "self"]
