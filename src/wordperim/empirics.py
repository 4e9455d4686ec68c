"""Fixed-grid histogram of normalized endpoints and Gaussian goodness of fit.

The histogram grid is the cell family

    I(i) = [i*delta - 3 - 3*delta/2,  i*delta - 3 - delta/2),   i = 0 .. 6/delta + 2,

each cell centered on i*delta - 3 - delta; the centers run from -3 - delta
to 3 + delta.  Samples left of the first edge land in cell 0 and samples
right of the last edge land in the last cell (the boundary cells therefore
compare against semi-infinite Gaussian masses).  6/delta must be an integer
so the grid closes exactly.

Goodness of fit against the standard normal is summarized two ways: the
exact one-sample Kolmogorov-Smirnov statistic of the raw sample, and the
maximum absolute difference between cell frequencies and Gaussian cell
masses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .simulation import _read_csv


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the C library error function (~1e-16 relative)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _check_delta(delta) -> Fraction:
    d = Fraction(delta)
    if d <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if (6 / d).denominator != 1:
        raise ValueError(f"6/delta must be an integer, got delta={delta}")
    return d


def cell_count(delta) -> int:
    """Number of cells: indices 0 .. 6/delta + 2 inclusive."""
    d = _check_delta(delta)
    return int(6 / d) + 3


@dataclass
class Histogram:
    delta: Fraction
    left: np.ndarray      # left edges, float64
    right: np.ndarray     # right edges
    center: np.ndarray    # cell centers i*delta - 3 - delta
    counts: np.ndarray    # int64 cell counts, sum == n
    freq: np.ndarray      # counts / n
    n: int

    @property
    def cells(self) -> int:
        return self.counts.size


def _grid(delta: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cells = int(6 / delta) + 3
    i = np.arange(cells)
    d = float(delta)
    left = i * d - 3 - 1.5 * d
    right = left + d
    center = i * d - 3 - d
    return left, right, center


def build_histogram(sample: Sequence[float], delta) -> Histogram:
    """Histogram of a nonempty sample over the fixed grid, with edge clamping.

    Cells are half-open [left, right) except the last, which is closed;
    out-of-cover values clamp into the boundary cells, so every finite value
    lands in exactly one cell and the counts sum to the sample size.
    """
    d = _check_delta(delta)
    z = np.asarray(sample, dtype=np.float64)
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    cells = int(6 / d) + 3
    left0 = float(-3 - Fraction(3, 2) * d)
    idx = np.floor((z - left0) / float(d)).astype(np.int64)
    idx = np.clip(idx, 0, cells - 1)
    counts = np.bincount(idx, minlength=cells).astype(np.int64)
    left, right, center = _grid(d)
    return Histogram(
        delta=d,
        left=left,
        right=right,
        center=center,
        counts=counts,
        freq=counts / z.size,
        n=int(z.size),
    )


def gaussian_cell_mass(i: int, delta) -> float:
    """Standard normal mass of cell i; boundary cells take the clamped tail."""
    d = _check_delta(delta)
    cells = int(6 / d) + 3
    if not 0 <= i < cells:
        raise ValueError(f"cell index {i} out of range 0..{cells - 1}")
    left, right, _ = _grid(d)
    lo = -math.inf if i == 0 else left[i]
    hi = math.inf if i == cells - 1 else right[i]
    lo_cdf = 0.0 if lo == -math.inf else normal_cdf(lo)
    hi_cdf = 1.0 if hi == math.inf else normal_cdf(hi)
    return hi_cdf - lo_cdf


def gaussian_cell_masses(delta) -> np.ndarray:
    d = _check_delta(delta)
    return np.array([gaussian_cell_mass(i, d) for i in range(cell_count(d))])


def ks_statistic(sample: Sequence[float]) -> float:
    """Exact one-sample KS distance between the sample and the standard normal.

    sup_x |F_hat(x) - Phi(x)| evaluated as the maximum of the two one-sided
    gaps at every sorted sample point.  Phi is evaluated once per distinct
    value (a normalized lattice sum takes few) and repeated over its ties.
    """
    values, counts = np.unique(np.asarray(sample, dtype=np.float64), return_counts=True)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("sample must be nonempty")
    cdf = np.repeat([normal_cdf(v) for v in values], counts)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


class GofReport(NamedTuple):
    ks_statistic: float
    max_cell_abs_error: float


def max_cell_error(hist: Histogram) -> float:
    masses = gaussian_cell_masses(hist.delta)
    return float(np.abs(hist.freq - masses).max())


def goodness_of_fit(sample: Sequence[float], delta) -> GofReport:
    hist = build_histogram(sample, delta)
    return GofReport(
        ks_statistic=ks_statistic(sample),
        max_cell_abs_error=max_cell_error(hist),
    )


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------

_HISTOGRAM_ROW = np.dtype([("i", np.int64), ("left", np.float64), ("right", np.float64),
                           ("center", np.float64), ("count", np.int64), ("freq", np.float64),
                           ("gauss_mass", np.float64)])


def write_histogram_csv(hist: Histogram, path) -> None:
    masses = gaussian_cell_masses(hist.delta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_HISTOGRAM_ROW.names) + "\n")
        for i in range(hist.cells):
            fh.write(
                f"{i},{float(hist.left[i])!r},{float(hist.right[i])!r},"
                f"{float(hist.center[i])!r},{int(hist.counts[i])},"
                f"{float(hist.freq[i])!r},{float(masses[i])!r}\n"
            )


def read_histogram_csv(path) -> dict:
    """Load a histogram CSV back into one array per column.

    Parsed as the ensemble CSVs are: a wrong header, a file without rows or a
    malformed row (named by its line) raises ``ValueError``.
    """
    rows = _read_csv(path, "histogram", _HISTOGRAM_ROW)
    return {name: rows[name] for name in _HISTOGRAM_ROW.names}


def write_gof_json(report: GofReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {"ks_statistic": report.ks_statistic, "max_cell_abs_error": report.max_cell_abs_error},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
