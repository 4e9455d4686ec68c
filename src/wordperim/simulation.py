"""Seeded Monte Carlo engine for gap-sum trajectories.

Each trajectory draws m+1 i.i.d. letters, forms the gaps y_i = |x_i - x_{i-1}|
and the partial sums Q(j) = y_1 + ... + y_j, and records the endpoint Q(m)
together with the normalized endpoint

    z = (Q(m) - m*M) / (sigma * sqrt(m)),

where M is the exact mean gap and sigma**2 = V* the per-gap variance rate.
Trajectory ``l`` owns the counter-based Philox stream keyed (seed, l), so the
ensemble does not depend on how it is computed.  ``simulate`` draws blocks of
trajectories from one re-keyed Philox and turns the raw words into gaps with
numpy array operations; each row equals the gaps of what the scalar path
``sample_letters(model, trajectory_rng(seed, l), m + 1)`` draws, bit for bit.
The block's arrays are allocated once per ``simulate`` and every block is
computed in place in them: a (64, 501) int64 temporary is 256 KB, above
glibc's 128 KiB mmap threshold, so fresh temporaries per block were mapped,
faulted in and unmapped again, about 122 600 minor page faults for one
``simulate`` at k=6, m=500, N=1e5 (about 900 with the reused arrays).
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
from .models import UNIFORM, Model, geometric_letters, plain_int, sample_letters
from .moments import vstar_sigma

_MASK64 = (1 << 64) - 1
# Trajectories per sampler block.  The block's arrays are reused from block to
# block, because one (64, m + 1) int64 array is 256 KB at m = 500: above
# glibc's 128 KiB mmap threshold, a fresh one per block costs page faults
# (see the module docstring).  With reuse, blocks of 16 to 256 rows took about
# the same time; 64 rows keep the arrays near 1 MB at m = 500.
_BLOCK_ROWS = 64


# Bytes ``simulate`` may allocate for its per-trajectory results: the paths
# when they are recorded, else the endpoints and z (8 bytes each per trajectory).
MEMORY_BUDGET = 2 * 1024**3


class MemoryBudgetExceeded(RuntimeError):
    """The ensemble's arrays would take more than MEMORY_BUDGET bytes."""


@dataclass(frozen=True)
class SimulationConfig:
    """One ensemble: ``trajectories`` words of m + 1 letters, seeded by ``seed``.

    m, trajectories and seed may be Python or numpy integers (not bool); they
    are stored as plain ints.  The seed lies in [0, 2**64), the Philox key range.
    """

    model: Model
    m: int                      # number of gaps per trajectory
    trajectories: int
    seed: int
    record_full_paths: bool = False

    def __post_init__(self):
        m, n, seed = (plain_int(v) for v in (self.m, self.trajectories, self.seed))
        if m is None or m < 1:
            raise ValueError(f"need at least one gap, got m={self.m!r}")
        if n is None or n < 1:
            raise ValueError(f"need at least one trajectory, got {self.trajectories!r}")
        if seed is None or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "trajectories", n)
        object.__setattr__(self, "seed", seed)

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


def _gap_blocks(model: Model, seed: int, n_traj: int, m: int):
    """Yield ``(lo, hi, gaps)`` for consecutive blocks of trajectories.

    Row ``i`` of the int64 array ``gaps`` holds the m gaps ``|diff(letters)|``
    of ``sample_letters(model, trajectory_rng(seed, lo + i), m + 1)``.
    ``gaps`` is a view of a buffer that every block overwrites: it is valid
    only until the next block is drawn.  One Philox is set, per trajectory,
    to the state ``Philox(key=(seed, l))`` starts in (counter 0, empty
    buffer) and its raw 64-bit words fill one row of the block.  numpy's
    Generator reads those words as follows, and the block applies the same
    rules to all rows at once:

    * uniform ``integers(1, k + 1)`` for k < 2**32 takes 32-bit draws, the low
      half of each word first, and returns ``(u32 * k >> 32) + 1``; the
      ``+ 1`` cancels in a gap.  Lemire's rule rejects a draw when
      ``(u32 * k) mod 2**32 < (2**32 - k) mod k`` and draws again, which
      shifts the rest of the row; a row with a rejected draw is recomputed
      through the scalar path.
    * ``random()`` is ``(word >> 11) * 2**-53``, then the same inversion as
      ``sample_letters``.

    Uniform k >= 2**32 takes 64-bit draws, which the block does not
    reproduce; every row of such a model goes through the scalar path.
    """
    seed = int(seed) & _MASK64
    size = m + 1
    uniform = model.kind == UNIFORM
    scalar_only = uniform and model.k >= 2**32
    n_words = (size + 1) // 2 if uniform else size
    rows = min(_BLOCK_ROWS, n_traj)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # The state Philox(key=(seed, l)) starts in, with plain-int fields: the
    # state setter reads them faster than the arrays ``bitgen.state`` holds.
    start = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key = start["state"]["key"]
    # Little-endian words and products, so that the <u4 views below read the
    # low half of each first on any machine.
    raw = np.empty((rows, n_words), dtype="<u8")
    prod = np.empty((rows, size), dtype="<u8")
    letters = prod.view("<i8")  # letters - 1 (uniform) or letters (geometric)
    gaps = np.empty((rows, m), dtype=np.int64)
    if uniform:
        threshold = (2**32 - model.k) % model.k
        low = prod.view("<u4")[:, 0::2]  # (u32 * k) mod 2**32
    else:
        u = np.empty((rows, size), dtype=np.float64)
    for lo in range(0, n_traj, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, n_traj - lo)
        if scalar_only:
            rejected = range(n)
        else:
            for i in range(n):
                key[1] = lo + i
                bitgen.state = start
                raw[i] = bitgen.random_raw(n_words)
            if uniform:
                np.multiply(raw[:n].view("<u4")[:, :size], model.k, out=prod[:n], dtype=np.uint64)
                rejected = np.flatnonzero(low[:n].min(axis=1) < threshold)
                np.right_shift(prod[:n], 32, out=prod[:n])
            else:
                np.right_shift(raw[:n], 11, out=raw[:n])
                np.multiply(raw[:n], 2.0**-53, out=u[:n])
                geometric_letters(model, u[:n], out=letters[:n])
                rejected = ()
            np.subtract(letters[:n, 1:], letters[:n, :-1], out=gaps[:n])
        for i in rejected:
            x = sample_letters(model, trajectory_rng(seed, lo + i), size)
            np.subtract(x[1:], x[:-1], out=gaps[i])
        np.abs(gaps[:n], out=gaps[:n])
        yield lo, lo + n, gaps[:n]


def simulate(config: SimulationConfig) -> TrajectoryEnsemble:
    """Generate the ensemble described by ``config`` (deterministic in the seed)."""
    model, m, n_traj = config.model, config.m, config.trajectories
    if config.record_full_paths:
        what, need = f"{n_traj} paths of length {m + 1}", n_traj * (m + 1) * 8
    else:
        what, need = f"the endpoints and z of {n_traj} trajectories", n_traj * 16
    if need > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            f"recording {what} needs {need} bytes, budget is {MEMORY_BUDGET}")
    paths = np.zeros((n_traj, m + 1), dtype=np.int64) if config.record_full_paths else None
    endpoints = np.zeros(n_traj, dtype=np.int64)
    for lo, hi, gaps in _gap_blocks(model, config.seed, n_traj, m):
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
# cells.  The writers format at most _CSV_CHUNK_ROWS rows with one ``%`` and
# write them with one call, so their memory stays flat whatever N and m are:
# the endpoint writer on a repeated row format (``%r`` gives the
# repr-shortest float), the path writer on a template per path segment that
# already holds the j column.  The readers check the header and hand the
# rest of the file to ``np.loadtxt`` with a three-field record dtype: numpy's
# C parser reads the numbers, floats correctly rounded, and rejects a row
# with the wrong number of fields.
# ---------------------------------------------------------------------------

# Rows per formatted chunk, under 1 MB of text for either CSV kind; chunks of
# 2**12 to 2**16 rows wrote a 1M-row path CSV in about the same time.
_CSV_CHUNK_ROWS = 1 << 14
_ENDPOINT_ROW = np.dtype([("trajectory", np.int64), ("endpoint", np.int64), ("z", np.float64)])
_PATH_ROW = np.dtype([("trajectory", np.int64), ("j", np.int64), ("Q", np.int64)])


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


def _write_json(doc: dict, path) -> None:
    """Write ``doc`` as JSON with sorted keys, a two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_endpoint_csv(ensemble: TrajectoryEnsemble, path) -> None:
    endpoints, z = ensemble.endpoints, ensemble.z
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_ENDPOINT_ROW.names) + "\n")
        for lo in range(0, endpoints.size, _CSV_CHUNK_ROWS):
            hi = min(lo + _CSV_CHUNK_ROWS, endpoints.size)
            cells = [None] * (3 * (hi - lo))
            cells[0::3] = range(lo, hi)
            cells[1::3] = endpoints[lo:hi].tolist()
            cells[2::3] = z[lo:hi].tolist()
            fh.write("%d,%d,%r\n" * (hi - lo) % tuple(cells))


def write_path_csv(ensemble: TrajectoryEnsemble, path) -> None:
    """Write the path CSV: rows ``l,j,Q`` for every trajectory l and j = 0..m.

    Every path has the same j column, so each segment of up to
    _CSV_CHUNK_ROWS rows of a path gets one ``%`` template, built once, with
    the j values written in and ``\0`` standing for the trajectory index;
    per path, ``%`` formats only the Q values.
    """
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    width = ensemble.paths.shape[1]
    segments = [
        (lo, "".join(f"\0,{j},%d\n" for j in range(lo, min(lo + _CSV_CHUNK_ROWS, width))))
        for lo in range(0, width, _CSV_CHUNK_ROWS)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_PATH_ROW.names) + "\n")
        for l, q in enumerate(ensemble.paths):
            index = str(l)
            for lo, template in segments:
                cells = tuple(q[lo : lo + _CSV_CHUNK_ROWS].tolist())
                fh.write(template.replace("\0", index) % cells)


def write_config_sidecar(ensemble: TrajectoryEnsemble, path) -> None:
    doc = {
        "config": ensemble.config.as_dict(),
        "mean_gap": str(ensemble.mean_gap),
        "vstar": str(ensemble.vstar),
        "sigma": ensemble.sigma,
        "degenerate_scale": ensemble.degenerate_scale,
    }
    _write_json(doc, path)


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
