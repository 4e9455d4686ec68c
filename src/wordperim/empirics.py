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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .simulation import _read_csv, _write_json


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


@dataclass
class Histogram:
    delta: Fraction
    left: np.ndarray        # left edges, float64
    right: np.ndarray       # right edges
    center: np.ndarray      # cell centers i*delta - 3 - delta
    gauss_mass: np.ndarray  # standard normal mass of each cell, tails clamped in
    counts: np.ndarray      # int64 cell counts, sum == n
    freq: np.ndarray        # counts / n
    n: int

    @property
    def cells(self) -> int:
        return self.counts.size

    @property
    def max_cell_abs_error(self) -> float:
        return float(np.abs(self.freq - self.gauss_mass).max())


def _grid(delta: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, center, gauss_mass) of the grid of a checked ``delta``.

    Cell i's mass is Phi(right[i]) - Phi(left[i]), with Phi taken as 0 at the
    first left edge and 1 at the last right edge: the boundary cells take the
    clamped tails.
    """
    cells = int(6 / delta) + 3
    i = np.arange(cells)
    d = float(delta)
    left = i * d - 3 - 1.5 * d
    right = left + d
    center = i * d - 3 - d
    lo = [0.0] + [normal_cdf(x) for x in left[1:].tolist()]
    hi = [normal_cdf(x) for x in right[:-1].tolist()] + [1.0]
    return left, right, center, np.subtract(hi, lo)


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
    left, right, center, gauss_mass = _grid(d)
    left0 = float(-3 - Fraction(3, 2) * d)
    idx = np.floor((z - left0) / float(d)).astype(np.int64)
    idx = np.clip(idx, 0, left.size - 1)
    counts = np.bincount(idx, minlength=left.size).astype(np.int64)
    return Histogram(
        delta=d,
        left=left,
        right=right,
        center=center,
        gauss_mass=gauss_mass,
        counts=counts,
        freq=counts / z.size,
        n=int(z.size),
    )


def gaussian_cell_masses(delta) -> np.ndarray:
    """Standard normal mass of every cell of the grid; boundary cells take the clamped tails."""
    return _grid(_check_delta(delta))[3]


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


def goodness_of_fit(sample: Sequence[float], delta) -> GofReport:
    return GofReport(ks_statistic(sample), build_histogram(sample, delta).max_cell_abs_error)


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------

_HISTOGRAM_ROW = np.dtype([("i", np.int64), ("left", np.float64), ("right", np.float64),
                           ("center", np.float64), ("count", np.int64), ("freq", np.float64),
                           ("gauss_mass", np.float64)])


def write_histogram_csv(hist: Histogram, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_HISTOGRAM_ROW.names) + "\n")
        for i in range(hist.cells):
            fh.write(
                f"{i},{float(hist.left[i])!r},{float(hist.right[i])!r},"
                f"{float(hist.center[i])!r},{int(hist.counts[i])},"
                f"{float(hist.freq[i])!r},{float(hist.gauss_mass[i])!r}\n"
            )


def read_histogram_csv(path) -> dict:
    """Load a histogram CSV back into one array per column.

    Parsed as the ensemble CSVs are: a wrong header, a file without rows or a
    malformed row (named by its line) raises ``ValueError``.
    """
    rows = _read_csv(path, "histogram", _HISTOGRAM_ROW)
    return {name: rows[name] for name in _HISTOGRAM_ROW.names}


def write_gof_json(report: GofReport, path) -> None:
    _write_json(report._asdict(), path)
