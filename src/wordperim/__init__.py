"""Exact moments and limit-law simulation for the perimeter of random words.

A word is a sequence of n i.i.d. positive-integer letters; stacked as unit
columns it forms a polyomino whose perimeter is P = Q + x0 + x_m + 2n with
Q the sum of absolute gaps.  This package computes the first three moments
of P exactly (uniform [1,k] and geometric(p) letters), cross-validates every
closed form against brute-force expectation sums, and verifies the Gaussian
and Brownian limit laws of the gap-sum process by seeded Monte Carlo.

The exact core (``models``, ``cross_moments``, ``moments``, ``polyomino``,
``verification``) loads without numpy.  The names of ``simulation`` and
``empirics``, and the modules ``simulation``, ``empirics`` and ``svgplot``,
are loaded on first access (PEP 562), so ``import wordperim`` does not
import numpy.
"""

import importlib

from .cross_moments import (
    MomentIndex,
    NoClosedFormError,
    cross_moment_closed,
    cross_moment_oracle,
    mean_gap,
)
from .models import (
    GEOMETRIC,
    UNIFORM,
    Model,
    gap_pmf,
    gap_pmf_by_convolution,
    letter_pmf,
    sample_letters,
)
from .moments import (
    MomentReport,
    mean_perimeter,
    moment_report,
    mu3_dominant,
    mu3_rate_closed,
    variance_perimeter,
    vstar_sigma,
)
from .polyomino import (
    PerimeterBreakdown,
    perimeter_decomposed,
    perimeter_edge_count,
    render_polyomino,
)
from .verification import IdentityCheck, format_report, run_verification

__version__ = "0.1.0"

# the submodules that import numpy, and the public names each of them serves
_LAZY_MODULES = {
    "empirics": ("GofReport", "Histogram", "build_histogram", "gaussian_cell_masses",
                 "goodness_of_fit", "ks_statistic", "normal_cdf"),
    "simulation": ("EmpiricalMoments", "MemoryBudgetExceeded", "SimulationConfig",
                   "TrajectoryEnsemble", "empirical_moments", "normalized_path", "simulate",
                   "trajectory_rng"),
    "svgplot": (),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    """Import a numpy-backed submodule, or the one that holds ``name``, on first access."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
        globals()[name] = value  # later lookups find it without this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY_NAMES))


__all__ = [
    "EmpiricalMoments",
    "GEOMETRIC",
    "GofReport",
    "Histogram",
    "IdentityCheck",
    "MemoryBudgetExceeded",
    "Model",
    "MomentIndex",
    "MomentReport",
    "NoClosedFormError",
    "PerimeterBreakdown",
    "SimulationConfig",
    "TrajectoryEnsemble",
    "UNIFORM",
    "build_histogram",
    "cross_moment_closed",
    "cross_moment_oracle",
    "empirical_moments",
    "format_report",
    "gap_pmf",
    "gap_pmf_by_convolution",
    "gaussian_cell_masses",
    "goodness_of_fit",
    "ks_statistic",
    "letter_pmf",
    "mean_gap",
    "mean_perimeter",
    "moment_report",
    "mu3_dominant",
    "mu3_rate_closed",
    "normal_cdf",
    "normalized_path",
    "perimeter_decomposed",
    "perimeter_edge_count",
    "render_polyomino",
    "run_verification",
    "sample_letters",
    "simulate",
    "trajectory_rng",
    "variance_perimeter",
    "vstar_sigma",
    "__version__",
]
