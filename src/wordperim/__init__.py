"""Exact moments and limit-law simulation for the perimeter of random words.

A word is a sequence of n i.i.d. positive-integer letters; stacked as unit
columns it forms a polyomino whose perimeter is P = Q + x0 + x_m + 2n with
Q the sum of absolute gaps.  This package computes the first three moments
of P exactly (uniform [1,k] and geometric(p) letters), cross-validates every
closed form against brute-force expectation sums, and verifies the Gaussian
and Brownian limit laws of the gap-sum process by seeded Monte Carlo.
"""

from .cross_moments import (
    MomentIndex,
    NoClosedFormError,
    cross_moment_closed,
    cross_moment_oracle,
    mean_gap,
)
from .empirics import (
    GofReport,
    Histogram,
    build_histogram,
    gaussian_cell_masses,
    goodness_of_fit,
    ks_statistic,
    normal_cdf,
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
    perimeter_decomposed_batch,
    perimeter_edge_count,
    perimeter_edge_count_batch,
    render_polyomino,
)
from .simulation import (
    EmpiricalMoments,
    MemoryBudgetExceeded,
    SimulationConfig,
    TrajectoryEnsemble,
    empirical_moments,
    normalized_path,
    simulate,
    trajectory_rng,
)
from .verification import IdentityCheck, format_report, run_verification

__version__ = "0.1.0"

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
    "perimeter_decomposed_batch",
    "perimeter_edge_count",
    "perimeter_edge_count_batch",
    "render_polyomino",
    "run_verification",
    "sample_letters",
    "simulate",
    "trajectory_rng",
    "variance_perimeter",
    "vstar_sigma",
    "__version__",
]
