"""Seeded Monte Carlo engine for gap-sum trajectories.

Each trajectory draws m+1 i.i.d. letters, forms the gaps y_i = |x_i - x_{i-1}|
and the partial sums Q(j) = y_1 + ... + y_j, and records the endpoint Q(m)
together with the normalized endpoint

    z = (Q(m) - m*M) / (sigma * sqrt(m)),

where M is the exact mean gap and sigma**2 = V* the per-gap variance rate.
Trajectory ``l`` owns the counter-based Philox stream keyed (seed, l), so the
ensemble does not depend on how it is computed.  ``simulate`` draws blocks of
trajectories from one re-keyed Philox and turns the raw words into letters
with numpy array operations; each row equals what the scalar path
``sample_letters(model, trajectory_rng(seed, l), m + 1)`` draws, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .cross_moments import mean_gap
from .models import UNIFORM, Model, geometric_letters, sample_letters
from .moments import vstar_sigma

_MASK64 = (1 << 64) - 1
# Trajectories per sampler block.  64 rows keep the block's arrays near 1 MB;
# blocks of 256 and 1024 rows measured slower and raised peak memory.
_BLOCK_ROWS = 64


class MemoryBudgetExceeded(RuntimeError):
    """Full-path recording would allocate more than the configured budget."""


@dataclass(frozen=True)
class SimulationConfig:
    model: Model
    m: int                      # number of gaps per trajectory
    trajectories: int
    seed: int
    record_full_paths: bool = False
    path_memory_limit: int = 2 * 1024**3  # bytes

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one gap, got m={self.m}")
        if self.trajectories < 1:
            raise ValueError(f"need at least one trajectory, got {self.trajectories}")

    def as_dict(self) -> dict:
        return {
            "model": self.model.as_dict(),
            "m": self.m,
            "trajectories": self.trajectories,
            "seed": self.seed,
            "record_full_paths": self.record_full_paths,
        }


@dataclass
class TrajectoryEnsemble:
    config: SimulationConfig
    mean_gap: Fraction            # M, exact
    vstar: Fraction               # V*, exact
    sigma: float                  # sqrt(V*)
    endpoints: np.ndarray         # int64, shape (N,)
    z: np.ndarray                 # float64, shape (N,)
    paths: np.ndarray | None      # int64, shape (N, m+1) when recorded
    degenerate_scale: bool        # sigma == 0 (constant words); z forced to 0


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory, keyed by (seed, index)."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _letter_blocks(model: Model, seed: int, n_traj: int, size: int):
    """Yield ``(lo, hi, letters)`` for consecutive blocks of trajectories.

    Row ``i`` of the int64 array ``letters`` equals
    ``sample_letters(model, trajectory_rng(seed, lo + i), size)``.  One Philox
    is set, per trajectory, to the state ``Philox(key=(seed, l))`` starts in
    (counter 0, empty buffer) and its raw 64-bit words fill one row of the
    block.  numpy's Generator reads those words as follows, and the block
    applies the same rules to all rows at once:

    * uniform ``integers(1, k + 1)`` for k < 2**32 takes 32-bit draws, the low
      half of each word first, and returns ``(u32 * k >> 32) + 1``.  Lemire's
      rule rejects a draw when ``(u32 * k) mod 2**32 < (2**32 - k) mod k`` and
      draws again, which shifts the rest of the row; a row with a rejected
      draw is recomputed through the scalar path.
    * ``random()`` is ``(word >> 11) * 2**-53``, then the same inversion as
      ``sample_letters``.

    Uniform k >= 2**32 takes 64-bit draws, which the block does not
    reproduce; every row of such a model goes through the scalar path.
    """
    seed = int(seed) & _MASK64
    uniform = model.kind == UNIFORM
    scalar_only = uniform and model.k >= 2**32
    n_words = (size + 1) // 2 if uniform else size
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    start = bitgen.state  # a copy; only its key changes from one trajectory to the next
    key = start["state"]["key"]
    raw = np.empty((_BLOCK_ROWS, n_words), dtype=np.uint64)
    for lo in range(0, n_traj, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_traj)
        if scalar_only:
            rows = [sample_letters(model, trajectory_rng(seed, l), size) for l in range(lo, hi)]
            yield lo, hi, np.stack(rows)
            continue
        for i in range(hi - lo):
            key[1] = lo + i
            bitgen.state = start
            raw[i] = bitgen.random_raw(n_words)
        block = raw[: hi - lo]
        if not uniform:
            yield lo, hi, geometric_letters(model, (block >> 11).astype(np.float64) * 2.0**-53)
            continue
        k = model.k
        prod = block.astype("<u8", copy=False).view("<u4")[:, :size].astype(np.uint64)
        prod *= k
        threshold = (2**32 - k) % k
        rejected = np.flatnonzero(((prod & 0xFFFFFFFF) < threshold).any(axis=1))
        prod >>= 32
        letters = prod.view(np.int64)
        letters += 1
        for i in rejected:
            letters[i] = sample_letters(model, trajectory_rng(seed, lo + i), size)
        yield lo, hi, letters


def simulate(config: SimulationConfig) -> TrajectoryEnsemble:
    """Generate the ensemble described by ``config`` (deterministic in the seed)."""
    model, m, n_traj = config.model, config.m, config.trajectories
    paths = None
    if config.record_full_paths:
        need = n_traj * (m + 1) * 8
        if need > config.path_memory_limit:
            raise MemoryBudgetExceeded(
                f"recording {n_traj} paths of length {m + 1} needs {need} bytes, "
                f"budget is {config.path_memory_limit}"
            )
        paths = np.zeros((n_traj, m + 1), dtype=np.int64)
    endpoints = np.zeros(n_traj, dtype=np.int64)
    for lo, hi, letters in _letter_blocks(model, config.seed, n_traj, m + 1):
        gaps = np.diff(letters, axis=1)
        np.abs(gaps, out=gaps)
        if paths is not None:
            np.cumsum(gaps, axis=1, out=paths[lo:hi, 1:])
            endpoints[lo:hi] = paths[lo:hi, -1]
        else:
            gaps.sum(axis=1, out=endpoints[lo:hi])

    M = mean_gap(model)
    vstar, sigma = vstar_sigma(model)
    degenerate = sigma == 0.0
    if degenerate:
        z = np.zeros(n_traj, dtype=np.float64)
    else:
        z = (endpoints - float(m * M)) / (sigma * sqrt(m))
    return TrajectoryEnsemble(
        config=config,
        mean_gap=M,
        vstar=vstar,
        sigma=sigma,
        endpoints=endpoints,
        z=z,
        paths=paths,
        degenerate_scale=degenerate,
    )


def normalized_path(
    ensemble: TrajectoryEnsemble, index: int, grid: Sequence[float]
) -> np.ndarray:
    """W(t) = (Q(floor(m t)) - M m t) / (sigma sqrt(m)) on a grid of t in [0, 1].

    Requires the ensemble to have recorded full paths.  W(0) = 0 exactly and
    W(1) equals the stored normalized endpoint.
    """
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    if not 0 <= index < ensemble.config.trajectories:
        raise IndexError(f"trajectory index {index} out of range")
    t = np.asarray(grid, dtype=np.float64)
    if t.size and (t.min() < 0 or t.max() > 1):
        raise ValueError("grid values must lie in [0, 1]")
    m = ensemble.config.m
    j = np.floor(m * t).astype(np.int64)
    q = ensemble.paths[index][j].astype(np.float64)
    if ensemble.degenerate_scale:
        return np.zeros_like(t)
    return (q - float(ensemble.mean_gap) * m * t) / (ensemble.sigma * sqrt(m))


class EmpiricalMoments(NamedTuple):
    mean_z: float      # average of z
    meansq_z: float    # average of z**2
    sum_z3_raw: float  # average of (Q(m) - m M)**3, raw scale (compare to m*mu3*)


def empirical_moments(ensemble: TrajectoryEnsemble) -> EmpiricalMoments:
    """The three observed statistics, in the forms the theory predicts.

    The first two are moments of the normalized endpoint z (limits 0 and 1);
    the third stays on the raw sum scale, where its comparator is the
    dominant third-moment term m*mu3*.
    """
    z = ensemble.z
    dev = ensemble.endpoints - float(ensemble.config.m * ensemble.mean_gap)
    return EmpiricalMoments(
        mean_z=float(np.mean(z)),
        meansq_z=float(np.mean(z * z)),
        sum_z3_raw=float(np.mean(dev**3)),
    )


# ---------------------------------------------------------------------------
# CSV / sidecar I/O (LF line endings, UTF-8, repr-shortest floats)
#
# Both CSV kinds are a header line naming three columns, then rows of three
# cells.  The writers format _CSV_CHUNK_ROWS rows at a time with one ``%`` on
# a repeated row format (``%r`` gives the repr-shortest float) and write each
# chunk with one call, so their memory stays flat whatever N and m are.  The
# readers check the header and hand the rest of the file to ``np.loadtxt``
# with a three-field record dtype: numpy's C parser reads the numbers, floats
# correctly rounded, and rejects a row with the wrong number of fields.
# ---------------------------------------------------------------------------

# Rows per formatted chunk, under 1 MB of text for either CSV kind; chunks of
# 2**12 to 2**16 rows wrote a 1M-row path CSV in about the same time.
_CSV_CHUNK_ROWS = 1 << 14
_ENDPOINT_ROW = np.dtype([("trajectory", np.int64), ("endpoint", np.int64), ("z", np.float64)])
_PATH_ROW = np.dtype([("trajectory", np.int64), ("j", np.int64), ("Q", np.int64)])


def _write_csv(path, row: np.dtype, row_format: str, n_rows: int, columns) -> None:
    """Write the header of ``row`` and rows 0..n_rows-1 formatted by ``row_format``.

    ``columns(lo, hi)`` returns the three columns of rows lo..hi-1 as arrays.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(row.names) + "\n")
        for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
            hi = min(lo + _CSV_CHUNK_ROWS, n_rows)
            cells = [None] * (3 * (hi - lo))
            for i, column in enumerate(columns(lo, hi)):
                cells[i::3] = column.tolist()
            fh.write(row_format * (hi - lo) % tuple(cells))


def _read_csv(path, kind: str, row: np.dtype) -> np.ndarray:
    """Check the header of a ``kind`` CSV and parse its rows into ``row`` records."""
    header = ",".join(row.names)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"expected the {kind} CSV header {header!r}, got {first!r}")
        start = fh.tell()  # np.loadtxt only warns on empty input: look first
        if not fh.readline().strip():
            raise ValueError(f"{kind} CSV {path} has no data rows after its header")
        fh.seek(start)
        try:
            return np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
        except ValueError as e:  # drop numpy's advice to pass usecols
            where, reason = _first_rejected_line(fh, row) or ("", str(e).split(";")[0])
            raise ValueError(f"{kind} CSV {path}{where}: {reason}") from None


def _first_rejected_line(fh, row: np.dtype) -> tuple[str, str] | None:
    """(" line N", reason) for the first data line np.loadtxt rejects; the header is line 1.

    numpy numbers rows its own way (from 0 or 1, without the header or blank
    lines), so the error path parses the file again in chunks, then the lines
    of the first chunk that fails one at a time.
    """
    def reason(lines) -> str | None:  # without numpy's row number and usecols advice
        try:
            np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
        except ValueError as e:
            return str(e).split(" at row")[0]

    fh.seek(0)
    numbered = ((n, s) for n, s in enumerate(fh, start=1) if n > 1 and s.strip())
    while batch := list(islice(numbered, _CSV_CHUNK_ROWS)):
        if reason([s for _, s in batch]):
            return next(((f" line {n}", r) for n, s in batch if (r := reason([s]))), None)


def write_endpoint_csv(ensemble: TrajectoryEnsemble, path) -> None:
    endpoints, z = ensemble.endpoints, ensemble.z
    _write_csv(path, _ENDPOINT_ROW, "%d,%d,%r\n", endpoints.size,
               lambda lo, hi: (np.arange(lo, hi), endpoints[lo:hi], z[lo:hi]))


def write_path_csv(ensemble: TrajectoryEnsemble, path) -> None:
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    width = ensemble.paths.shape[1]
    q = ensemble.paths.reshape(-1)
    _write_csv(path, _PATH_ROW, "%d,%d,%d\n", q.size,
               lambda lo, hi: (*np.divmod(np.arange(lo, hi), width), q[lo:hi]))


def write_config_sidecar(ensemble: TrajectoryEnsemble, path) -> None:
    doc = {
        "config": ensemble.config.as_dict(),
        "mean_gap": str(ensemble.mean_gap),
        "vstar": str(ensemble.vstar),
        "sigma": ensemble.sigma,
        "degenerate_scale": ensemble.degenerate_scale,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_config_sidecar(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_endpoint_csv(path) -> dict:
    """Load an endpoint CSV back into arrays (schema: trajectory,endpoint,z)."""
    rows = _read_csv(path, "endpoint", _ENDPOINT_ROW)
    return {name: rows[name] for name in _ENDPOINT_ROW.names}


def read_path_csv(path) -> np.ndarray:
    """Load a path CSV (schema: trajectory,j,Q) into an (N, m+1) array.

    The rows must be the grid ``write_path_csv`` writes: trajectories 0..N-1
    in order, each with its rows j = 0..m in order, and m >= 1.
    """
    rows = _read_csv(path, "path", _PATH_ROW)
    width = int(rows["j"][-1]) + 1  # the last row holds j = m
    if width < 2:
        raise ValueError(f"path CSV {path}: the last row has j = {width - 1}; need m >= 1")
    # Row r must hold (r // (m+1), r % (m+1)); then the last row, j = m, also
    # ends a whole path.  Checked in chunks so that memory stays flat.
    for lo in range(0, rows.size, _CSV_CHUNK_ROWS):
        chunk = rows[lo : lo + _CSV_CHUNK_ROWS]
        l, j = np.divmod(np.arange(lo, lo + chunk.size), width)
        off_grid = (chunk["trajectory"] != l) | (chunk["j"] != j)
        if off_grid.any():
            r = lo + int(np.argmax(off_grid))
            raise ValueError(
                f"path CSV {path} line {r + 2}: trajectory {rows['trajectory'][r]}, "
                f"j {rows['j'][r]}; expected trajectory {r // width}, j {r % width} "
                f"(m = {width - 1})"
            )
    return rows["Q"].reshape(-1, width)
