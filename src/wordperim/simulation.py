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
# ---------------------------------------------------------------------------

def write_endpoint_csv(ensemble: TrajectoryEnsemble, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trajectory,endpoint,z\n")
        for l, (e, zv) in enumerate(zip(ensemble.endpoints, ensemble.z)):
            fh.write(f"{l},{int(e)},{float(zv)!r}\n")


def write_path_csv(ensemble: TrajectoryEnsemble, path) -> None:
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trajectory,j,Q\n")
        for l in range(ensemble.config.trajectories):
            row = ensemble.paths[l]
            for j in range(row.size):
                fh.write(f"{l},{j},{int(row[j])}\n")


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
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "trajectory,endpoint,z":
            raise ValueError(f"not an endpoint ensemble CSV (header {header!r})")
        traj, end, z = [], [], []
        for line in fh:
            a, b, c = line.rstrip("\n").split(",")
            traj.append(int(a))
            end.append(int(b))
            z.append(float(c))
    return {
        "trajectory": np.array(traj, dtype=np.int64),
        "endpoint": np.array(end, dtype=np.int64),
        "z": np.array(z, dtype=np.float64),
    }


def read_path_csv(path) -> np.ndarray:
    """Load a path CSV (schema: trajectory,j,Q) into an (N, m+1) array."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "trajectory,j,Q":
            raise ValueError(f"not a path ensemble CSV (header {header!r})")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows:
        raise ValueError("path CSV contains no data rows")
    traj = np.array([int(r[0]) for r in rows], dtype=np.int64)
    j = np.array([int(r[1]) for r in rows], dtype=np.int64)
    q = np.array([int(r[2]) for r in rows], dtype=np.int64)
    n_traj, m_plus1 = traj.max() + 1, j.max() + 1
    paths = np.zeros((n_traj, m_plus1), dtype=np.int64)
    paths[traj, j] = q
    return paths
