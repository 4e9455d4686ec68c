"""Exact moments and limit-law simulation for the perimeter of random words.

A word is a sequence of n i.i.d. positive-integer letters; stacked as unit
columns it forms a polyomino whose perimeter is P = Q + x0 + x_m + 2n with
Q the sum of absolute gaps.  This package computes the first three moments
of P exactly (uniform [1,k] and geometric(p) letters), cross-validates every
closed form against brute-force expectation sums, and verifies the Gaussian
and Brownian limit laws of the gap-sum process by seeded Monte Carlo.

One rule serves every public name: ``import wordperim`` loads no submodule,
and a submodule, or a name of ``__all__``, is imported from the module that
defines it on first access (PEP 562).  So only ``simulation``, ``empirics``
and ``svgplot``, and their names, import numpy; the exact core (``models``,
``cross_moments``, ``moments``, ``polyomino``, ``verification``) runs without
it.
"""

import importlib

__version__ = "0.1.0"

# each submodule, and the public names it defines
_PUBLIC = {
    "cross_moments": ("MomentIndex", "NoClosedFormError", "cross_moment_closed",
                      "cross_moment_oracle", "mean_gap"),
    "empirics": ("GofReport", "Histogram", "build_histogram", "gaussian_cell_masses",
                 "goodness_of_fit", "ks_statistic", "normal_cdf"),
    "models": ("GEOMETRIC", "UNIFORM", "Model", "gap_pmf", "gap_pmf_by_convolution",
               "letter_pmf", "sample_letters"),
    "moments": ("MomentReport", "mean_perimeter", "moment_report", "mu3_dominant",
                "mu3_rate_closed", "variance_perimeter", "vstar_sigma"),
    "polyomino": ("PerimeterBreakdown", "perimeter_decomposed", "perimeter_edge_count",
                  "render_polyomino"),
    "simulation": ("EmpiricalMoments", "MemoryBudgetExceeded", "SimulationConfig",
                   "TrajectoryEnsemble", "empirical_moments", "normalized_path", "simulate",
                   "trajectory_rng"),
    "svgplot": (),
    "verification": ("IdentityCheck", "format_report", "run_verification"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    """Import a submodule, or the one that defines ``name``, on first access."""
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups find it without this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_PUBLIC) | set(_MODULE_OF))
