"""Seeded Monte Carlo engine for gap-sum trajectories.

Each trajectory draws m+1 i.i.d. letters, forms the gaps y_i = |x_i - x_{i-1}|
and the partial sums Q(j) = y_1 + ... + y_j, and records the endpoint Q(m)
together with the normalized endpoint

    z = (Q(m) - m*M) / (sigma * sqrt(m)),

where M is the exact mean gap and sigma**2 = V* the per-gap variance rate.
Trajectory ``l`` owns the counter-based Philox stream keyed (seed, l), and its
letters are defined by that stream's raw 64-bit words: uniform ones by the rule
of numpy's ``integers(1, k + 1)`` (:func:`_uniform_row`), geometric ones by
inverting ``(word >> 11) * 2**-53``.  So the ensemble does not depend on how it
is computed, nor on numpy's ``Generator``, which ``simulate`` never calls: it
reads blocks of trajectories from one re-keyed Philox with numpy array
operations.  ``sample_letters(model, trajectory_rng(seed, l), m + 1)`` draws the
same letters through ``Generator``; the tests hold the two equal.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt, prod, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .cross_moments import mean_gap
from .models import UNIFORM, Model, geometric_letters, plain_int
from .moments import vstar_sigma

_MASK64 = (1 << 64) - 1
# Trajectories per sampler block.  The block's arrays are reused from block to
# block, because one (64, m + 1) int64 array is 256 KB at m = 500: above
# glibc's 128 KiB mmap threshold, a fresh one per block costs page faults.
# With reuse, blocks of 16 to 256 rows took about the same time; 64 rows keep
# the arrays near 1 MB at m = 500.
_BLOCK_ROWS = 64


# Bytes ``simulate`` may allocate: for its per-trajectory results (the endpoints
# and z, 8 bytes each per trajectory, and the paths when they are recorded, 8
# bytes per entry), and for the sampler's buffers, 32 bytes per letter of a block.
MEMORY_BUDGET = 2 * 1024**3


class MemoryBudgetExceeded(ValueError):
    """The ensemble's arrays would take more than MEMORY_BUDGET bytes.

    A ValueError, as numpy's refusal of an array too big to allocate is.
    """


@dataclass(frozen=True)
class SimulationConfig:
    """One ensemble: ``trajectories`` words of m + 1 letters, seeded by ``seed``.

    m, trajectories and seed may be Python or numpy integers (not bool); they
    are stored as plain ints.  The seed lies in [0, 2**64), the Philox key range.
    A uniform k and m must keep letters and sums in int64: k <= 2**63 - 1 and
    m*(k - 1) <= 2**63 - 1.  So must a geometric p and m: m*(L - 1) <= 2**63 - 1
    for L the largest letter the sampler can return, at the uniform 1 - 2**-53.
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
        k = self.model.k
        if self.model.kind == UNIFORM and max(k, m * (k - 1)) > 2**63 - 1:
            raise ValueError(f"uniform k={k} with m={m} would overflow int64: need "
                             f"k <= 2**63 - 1 and m*(k - 1) <= 2**63 - 1")
        if self.model.kind != UNIFORM:  # raises for a p too small or too close to 1 to sample
            top = int(geometric_letters(self.model, np.array([1 - 2.0**-53]))[0])
            if m * (top - 1) > 2**63 - 1:
                raise ValueError(f"geometric p={self.model.p} with m={m} would overflow int64: "
                                 f"need m*(L - 1) <= 2**63 - 1 for the largest letter L = {top}")
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


def _uniform_rule(k: int) -> tuple[np.dtype, int]:
    """The dtype of numpy's b-bit draws d for ``integers(1, k + 1)``, and their Lemire threshold.

    b = 32 (the low half of each word first) for k <= 2**32, else 64.  A draw d
    gives the letter ``(d*k >> b) + 1``, unless ``d*k mod 2**b < (2**b - k) mod k``.
    """
    bits = 32 if k <= 2**32 else 64
    return np.dtype(f"<u{bits // 8}"), (2**bits - k) % k


def _words(draws: int, dtype: np.dtype) -> int:
    """The raw 64-bit words that hold ``draws`` draws of ``dtype``."""
    return -(-draws * dtype.itemsize // 8)


def _scaled(draws: np.ndarray, k: int, hi: np.ndarray, scratch: np.ndarray):
    """Write ``d*k >> b`` of the b-bit draws d into ``hi``; return ``d*k mod 2**b``, in ``scratch``.

    For b = 64 the high half is summed from 32-bit halves (Hacker's Delight's ``mulhu``).
    """
    if draws.itemsize == 4:
        np.right_shift(np.multiply(draws, k, out=scratch, dtype=np.uint64), 32, out=hi)
        return scratch.view("<u4")[..., 0::2]
    dl, dh, t0, t1 = (x.view("<u4")[..., i::2] for x in (draws, scratch) for i in (0, 1))
    kl, kh = k & 0xFFFFFFFF, k >> 32
    np.right_shift(np.multiply(dl, kl, out=scratch, dtype=np.uint64), 32, out=scratch)
    scratch += np.multiply(dh, kl, out=hi, dtype=np.uint64)  # t = dh*kl + carry
    np.add(np.multiply(dl, kh, out=hi, dtype=np.uint64), t0, out=hi)
    np.add(np.right_shift(hi, 32, out=hi), t1, out=hi)
    hi += np.multiply(dh, kh, out=scratch, dtype=np.uint64)
    return np.multiply(draws, k, out=scratch)  # wraps modulo 2**64


def _uniform_row(bitgen, k: int, size: int, out: np.ndarray) -> None:
    """Write letters - 1 of ``integers(1, k + 1, size)`` from ``bitgen``'s next words to ``out``."""
    dtype, threshold = _uniform_rule(k)
    span = 256**dtype.itemsize  # 2**b: size * span / (span - threshold) draws are expected
    draws = size * span // (span - threshold) + 4 * isqrt(size) + 1  # and a margin more
    d = bitgen.random_raw(_words(draws, dtype)).astype("<u8", copy=False).view(dtype)
    hi, scratch = np.empty((2, d.size), dtype="<u8")
    kept = hi[_scaled(d, k, hi, scratch) >= threshold][:size]
    out[: kept.size] = kept
    if kept.size < size:  # the row goes on in the next words
        _uniform_row(bitgen, k, size - kept.size, out[kept.size :])


def _gap_blocks(model: Model, seed: int, n_traj: int, m: int):
    """Yield ``(lo, hi, gaps)`` for consecutive blocks of trajectories.

    Row ``i`` of the int64 array ``gaps``, a view of a buffer that every block overwrites,
    holds the m gaps ``|diff(letters)|`` of trajectory ``lo + i``.  One Philox is set, per
    trajectory, to the state ``Philox(key=(seed, l))`` starts in (counter 0, empty buffer);
    its raw 64-bit words fill one row of the block, and all rows are read at once.  Uniform
    letters follow :func:`_uniform_rule` (the ``+ 1`` cancels in a gap), and
    :func:`_uniform_row` reads a row with a rejected draw again; geometric ones invert
    ``(word >> 11) * 2**-53`` by :func:`geometric_letters`.  The buffers take at most 32
    bytes a letter.
    """
    size = m + 1
    uniform = model.kind == UNIFORM
    dtype, threshold = _uniform_rule(model.k) if uniform else (np.dtype("<u8"), None)
    n_words = _words(size, dtype)
    rows = min(_BLOCK_ROWS, n_traj)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # Philox(key=(seed, l))'s start, in plain ints: the setter reads them faster than arrays.
    start = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = start["state"]["key"]
    # Little-endian words and products: the <u4 views read each low half first on any machine.
    raw = np.empty((rows, n_words), dtype="<u8")
    draws = raw.view(dtype)[:, :size]
    hi, scratch = np.empty((2, rows, size), dtype="<u8")
    letters = hi.view("<i8")  # letters - 1 (uniform) or letters (geometric)
    gaps = np.empty((rows, m), dtype=np.int64)
    for lo in range(0, n_traj, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, n_traj - lo)
        for i in range(n):
            key[1] = lo + i
            bitgen.state = start
            raw[i] = bitgen.random_raw(n_words)
        if uniform:
            low = _scaled(draws[:n], model.k, hi[:n], scratch[:n])
            for i in np.flatnonzero(low.min(axis=1) < threshold):
                key[1] = lo + i
                bitgen.state = start
                _uniform_row(bitgen, model.k, size, letters[i])
        else:
            np.right_shift(raw[:n], 11, out=raw[:n])
            u = np.multiply(raw[:n], 2.0**-53, out=scratch[:n].view(np.float64))
            geometric_letters(model, u, out=letters[:n])
        np.subtract(letters[:n, 1:], letters[:n, :-1], out=gaps[:n])
        np.abs(gaps[:n], out=gaps[:n])
        yield lo, lo + n, gaps[:n]


def simulate(config: SimulationConfig) -> TrajectoryEnsemble:
    """Generate the ensemble described by ``config`` (deterministic in the seed)."""
    model, m, n_traj = config.model, config.m, config.trajectories
    what, need = f"the endpoints and z of {n_traj} trajectories", n_traj * 16
    if config.record_full_paths:  # the paths, besides the endpoints and z
        what, need = f"{n_traj} paths of length {m + 1}", need + n_traj * (m + 1) * 8
    rows = min(_BLOCK_ROWS, n_traj)
    sampled = (f"{what} and sampling {rows} at a time", need + rows * (m + 1) * 32)
    for what, need in ((what, need), sampled):
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
        z = endpoints - float(m * M)
        z /= sigma * sqrt(m)
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
    """W(t) of one recorded path (see :func:`scaled_path`) on a grid of t in [0, 1].

    Requires the ensemble to have recorded full paths.  W(0) = 0 exactly, and
    W(1) is the stored normalized endpoint up to the rounding of the drift:
    float(M) * m here, float(m * M) there (4.4e-16 apart at k = 3, m = 7).
    """
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    value = plain_int(index)  # numpy integers pass; bool and float do not
    if value is None:
        raise ValueError(f"trajectory index must be an integer, got {index!r}")
    if not 0 <= value < ensemble.config.trajectories:
        raise IndexError(f"trajectory index {index} out of range")
    t = np.asarray(grid, dtype=np.float64)
    if not ((t >= 0) & (t <= 1)).all():  # NaN fails both comparisons
        raise ValueError("grid values must lie in [0, 1]")
    return scaled_path(ensemble.paths[value], float(ensemble.mean_gap), ensemble.sigma, t)


def scaled_path(path: np.ndarray, mean_gap: float, sigma: float, t: np.ndarray) -> np.ndarray:
    """W(t) = (Q(floor(m t)) - M m t) / (sigma sqrt(m)) for a path Q(0..m), t in [0, 1].

    A t within float rounding of j/m reads Q(j): the float m*t can fall just
    below j (3 of the 101 points of arange(101)/100 do).  W is 0 if sigma is 0.
    """
    m = path.shape[0] - 1
    x = m * t
    near = np.rint(x)
    j = np.where(np.abs(x - near) <= 4 * np.finfo(np.float64).eps * x, near, np.floor(x))
    if sigma == 0.0:
        return np.zeros_like(t)
    return (path[j.astype(np.int64)] - mean_gap * m * t) / (sigma * sqrt(m))


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
    scratch = np.multiply(z, z)  # the one N-sized array: z**2, then the deviations cubed
    meansq_z = float(np.mean(scratch))
    np.subtract(ensemble.endpoints, float(ensemble.config.m * ensemble.mean_gap), out=scratch)
    scratch **= 3
    return EmpiricalMoments(mean_z=float(np.mean(z)), meansq_z=meansq_z,
                            sum_z3_raw=float(np.mean(scratch)))


# ---------------------------------------------------------------------------
# CSV / sidecar I/O (LF line endings, UTF-8, repr-shortest floats)
#
# Every CSV is a header line naming the fields of a record dtype, then one row
# of cells per record.  One writer, ``_write_csv``, lays out the rows of all
# three kinds (endpoint, path, histogram) in numpy, at most _CSV_CHUNK_ROWS
# rows at a time, so its memory stays flat whatever N and m are; the public
# writers only cut their data into chunks.
#
# The readers check, on an open handle, the header and that a nonblank line
# follows it, then hand ``np.loadtxt`` the file's path with the record dtype:
# numpy's C parser reads the file in blocks (given a handle, it takes one
# Python line at a time, about 1.7x slower on a 1M-row path CSV), reads the
# numbers, floats correctly rounded, and rejects a row with the wrong number
# of fields.  numpy opens a path by its suffix, so a plain CSV named ``*.gz``,
# ``*.bz2``, ``*.xz`` or ``*.lzma`` would be taken for a compressed file and
# fail; such a file is parsed from the open handle.  ``read_path_csv`` can
# also parse one path of a file known to be a whole grid, and nothing else.
# ---------------------------------------------------------------------------

# Rows per formatted chunk, under 1 MB of text for an ensemble CSV; chunks of
# 2**12 to 2**16 rows wrote a 1M-row path CSV in about the same time.
_CSV_CHUNK_ROWS = 1 << 14
_ENDPOINT_ROW = np.dtype([("trajectory", np.int64), ("endpoint", np.int64), ("z", np.float64)])
_PATH_ROW = np.dtype([("trajectory", np.int64), ("j", np.int64), ("Q", np.int64)])
# The suffixes by which numpy's loadtxt opens a path as a compressed file.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_csv(path, kind: str, row: np.dtype) -> np.ndarray:
    """Check the header of a ``kind`` CSV and parse its rows into ``row`` records."""
    header = ",".join(row.names)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"expected the {kind} CSV header {header!r}, got {first!r}")
        if not any(line.strip() for line in fh):  # np.loadtxt only warns on empty input
            raise ValueError(f"{kind} CSV {path} has no data rows after its header")
        fh.seek(0)
        try:
            return _loadtxt(fh, path, row, skiprows=1)
        except ValueError as e:  # drop numpy's advice to pass usecols
            where, reason = _first_rejected_line(fh, row) or ("", str(e).split(";")[0])
            raise ValueError(f"{kind} CSV {path}{where}: {reason}") from None


def _loadtxt(fh, path, row: np.dtype, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of ``row`` records from ``path``, open as ``fh``.

    numpy is given the path, or ``fh`` where the suffix would make it open the
    path as a compressed file.
    """
    name = os.fspath(path)
    source = fh if name.endswith(_COMPRESSED_SUFFIXES) else os.path.abspath(name)
    return np.loadtxt(source, dtype=row, delimiter=",", comments=None, ndmin=1,
                      encoding="utf-8", **kwargs)


def _first_rejected_line(fh, row: np.dtype) -> tuple[str, str] | None:
    """(" line N", reason) for the first data line np.loadtxt rejects; the header is line 1.

    numpy numbers rows its own way (from 0 or 1, without the header or empty
    lines; a line of blanks is a row), so the error path parses the file again
    in chunks, then the lines of the first chunk that fails one at a time.
    """
    def reason(lines) -> str | None:  # without numpy's row number and usecols advice
        try:
            np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
        except ValueError as e:
            return str(e).split(" at row")[0]

    numbered = _data_lines(fh)
    while batch := list(islice(numbered, _CSV_CHUNK_ROWS)):
        if reason([s for _, s in batch]):
            return next(((f" line {n}", r) for n, s in batch if (r := reason([s]))), None)


def _data_lines(fh):
    """(N, text) of each line of ``fh`` that numpy reads as a row, N counting the header as 1."""
    fh.seek(0)
    return ((n, s) for n, s in enumerate(fh, start=1) if n > 1 and s != "\n")


def _row_line(path, r: int) -> int:
    """The file line of data row ``r`` (from 0) of a CSV, the header and empty lines counted."""
    with open(path, encoding="utf-8") as fh:
        return next(islice(_data_lines(fh), r, None))[0]


def _write_json(doc: dict, path) -> None:
    """Write ``doc`` as JSON with sorted keys, a two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, row: np.dtype, chunks) -> None:
    """Write a CSV: a header naming the fields of ``row``, then the rows of each chunk.

    A chunk holds one array per field of ``row``; the arrays broadcast to one
    shape, and each element of it is a row, in C order.  A chunk is laid out
    in one uint8 buffer, reused from chunk to chunk, as fixed-width rows whose
    fields are as wide as the chunk's longest text and padded with NUL bytes.
    ``_decimal_into`` renders an integer field as ``%d`` writes it; a float
    field is gathered from a table that holds the repr of each distinct bit
    pattern of the chunk once (so 0.0 and -0.0 stay apart).  The NULs are
    deleted and the chunk written with one call.
    """
    space = np.empty(0, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(",".join(row.names).encode() + b"\n")
        for chunk in chunks:
            shape = np.broadcast_shapes(*(np.shape(c) for c in chunk))
            fields = []  # (values, text width, repr table or None) per field
            for name, values in zip(row.names, chunk):
                if row[name].kind == "f":
                    values = np.ascontiguousarray(values, dtype=np.float64)
                    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                                  return_inverse=True)
                    texts = np.array([repr(v) for v in values.flat[first].tolist()],
                                     dtype=np.bytes_)
                    table = texts.view(np.uint8).reshape(-1, texts.itemsize)
                    fields.append((inverse.reshape(values.shape), texts.itemsize, table))
                else:  # the longer "%d" text of the two extremes
                    width = max(len(str(int(values.min()))), len(str(int(values.max()))))
                    fields.append((values, width, None))
            need = prod(shape) * sum(w + 1 for _, w, _ in fields)
            if space.size < need:  # a later chunk's texts can be wider
                space = np.empty(need, dtype=np.uint8)
            rows = space[:need].reshape(*shape, -1)
            start = 0
            for values, w, table in fields:
                if table is None:
                    _decimal_into(values, rows[..., start : start + w])
                else:
                    rows[..., start : start + w] = table[values]
                rows[..., start + w] = ord(",")
                start += w + 1
            rows[..., -1] = ord("\n")
            fh.write(rows.tobytes().replace(b"\0", b""))


def _numbered_chunks(*columns):
    """Chunks of up to _CSV_CHUNK_ROWS rows: the row numbers, then each column's slice."""
    n = len(columns[0])
    for lo in range(0, n, _CSV_CHUNK_ROWS):
        hi = min(lo + _CSV_CHUNK_ROWS, n)
        yield (np.arange(lo, hi), *(c[lo:hi] for c in columns))


def write_endpoint_csv(ensemble: TrajectoryEnsemble, path) -> None:
    """Write the endpoint CSV: rows ``l,Q(m),z`` for every trajectory l."""
    _write_csv(path, _ENDPOINT_ROW, _numbered_chunks(ensemble.endpoints, ensemble.z))


@lru_cache(maxsize=None)
def _digit_groups() -> np.ndarray:
    """The texts "000".."999", each padded with a NUL to one 4-byte uint32.

    Gathering uint32 items with ``take`` is a plain integer copy, several times
    faster than gathering rows of a (1000, 3) uint8 table.  Built on first use.
    """
    return np.frombuffer("".join(f"{i:03d}\0" for i in range(1000)).encode(), np.uint32)


def _decimal_into(values: np.ndarray, out: np.ndarray) -> None:
    """Write each integer of ``values`` into ``out`` as ``"%d" % v``, right-aligned.

    ``out`` is a uint8 array whose last axis holds one text; ``values``
    broadcasts against the other axes.  The bytes left of each text are set to
    NUL.  The digits go in groups of three, one ``divmod`` by 1000 per group
    but the leftmost, and leading zeros are blanked where the magnitude is
    below 10**i.
    """
    w = out.shape[-1]
    lo, hi = int(values.min()), int(values.max())
    digits = len(str(max(-lo, hi)))  # of the largest magnitude
    if max(len(str(lo)), len(str(hi))) > w:
        raise ValueError(f"integers in [{lo}, {hi}] do not fit in {w} characters")
    mag = values.astype(np.uint64)
    if lo < 0:  # |v| modulo 2**64, right for the int64 minimum too
        np.negative(mag, out=mag, where=values < 0)
    out[..., : w - digits] = 0
    groups, x = _digit_groups(), mag
    for right in range(w, w - digits, -3):
        left = max(right - 3, w - digits)
        if left > w - digits:
            x, r = np.divmod(x, 1000)
        else:  # the leftmost group: x < 1000
            r = x
        text = groups.take(r.astype(np.intp)).view(np.uint8).reshape(*r.shape, 4)
        for col in range(left, right):  # one column at a time: long inner loops
            out[..., col] = text[..., col - right + 3]
    for i in range(1, digits):
        np.copyto(out[..., w - 1 - i], 0, where=mag < 10**i)
    if lo < 0:  # '-' goes just left of the first digit
        negative = values < 0
        for i in range(1, digits + 1):
            first = negative & (mag >= 10 ** (i - 1)) & (mag < 10**i)
            np.copyto(out[..., w - 1 - i], ord("-"), where=first)


def write_path_csv(ensemble: TrajectoryEnsemble, path) -> None:
    """Write the path CSV: rows ``l,j,Q`` for every trajectory l and j = 0..m.

    Each chunk holds whole paths, or one segment of a path longer than
    _CSV_CHUNK_ROWS rows; its l and j broadcast over its Q values.
    """
    if ensemble.paths is None:
        raise ValueError("paths were not recorded; rerun with record_full_paths=True")
    paths = ensemble.paths
    n, width = paths.shape
    per = max(1, _CSV_CHUNK_ROWS // width)  # paths in a chunk
    seg = min(width, _CSV_CHUNK_ROWS)  # rows of each of its paths
    _write_csv(path, _PATH_ROW, (
        (np.arange(l0, min(l0 + per, n))[:, None], np.arange(j0, min(j0 + seg, width)),
         paths[l0 : l0 + per, j0 : j0 + seg])
        for l0 in range(0, n, per) for j0 in range(0, width, seg)
    ))


def write_config_sidecar(ensemble: TrajectoryEnsemble, path) -> None:
    doc = {
        "config": ensemble.config.as_dict(),
        "mean_gap": str(ensemble.mean_gap),
        "vstar": str(ensemble.vstar),
        "sigma": ensemble.sigma,
        "degenerate_scale": ensemble.degenerate_scale,
    }
    _write_json(doc, path)


def read_endpoint_csv(path) -> dict:
    """Load an endpoint CSV (trajectory,endpoint,z) into arrays; a NaN z is refused by its line."""
    rows = _read_csv(path, "endpoint", _ENDPOINT_ROW)
    nan = np.isnan(rows["z"])
    if nan.any():
        raise ValueError(f"endpoint CSV {path} line {_row_line(path, np.argmax(nan))}: z is NaN")
    return {name: rows[name] for name in _ENDPOINT_ROW.names}


def read_path_csv(path, *, trajectory: int | None = None, m: int | None = None) -> np.ndarray:
    """Load a path CSV (schema: trajectory,j,Q) into an (N, m+1) array.

    The rows must be the grid ``write_path_csv`` writes: trajectories 0..N-1
    in order, each with its rows j = 0..m in order, and m >= 1.

    Given ``trajectory`` l and ``m``, only path l is parsed, into a (1, m+1)
    array: the file must be such a grid with this m, with no empty lines, as
    a file ``write_path_csv`` wrote and nothing edited since is.  numpy skips
    the 1 + l*(m+1) lines before it and reads m+1 rows and the row after
    them, which must be (l + 1, 0) or absent, so memory is O(m) whatever N
    is.  The header is not checked.  ValueError if those rows are not path l
    whole.
    """
    if trajectory is not None:
        return _read_one_path(path, trajectory, m)
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
            raise ValueError(f"path CSV {path} line {_row_line(path, r)}: trajectory "
                             f"{rows['trajectory'][r]}, j {rows['j'][r]}; expected trajectory "
                             f"{r // width}, j {r % width} (m = {width - 1})")
    return rows["Q"].reshape(-1, width)


def _read_one_path(path, l: int, m: int) -> np.ndarray:
    """Q(0..m) of path l as a (1, m+1) array; see ``read_path_csv``."""
    if m is None or m < 1 or l < 0:
        raise ValueError(f"need trajectory >= 0 and m >= 1, got trajectory {l}, m {m}")
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns, and reads no rows, past the last line
        rows = _loadtxt(fh, path, _PATH_ROW, skiprows=1 + l * (m + 1), max_rows=m + 2)
    path_l, after = rows[: m + 1], rows[m + 1 :]
    if (path_l.size != m + 1 or (path_l["trajectory"] != l).any()
            or (path_l["j"] != np.arange(m + 1)).any()
            or (after.size and (after["trajectory"][0] != l + 1 or after["j"][0] != 0))):
        raise ValueError(f"path CSV {path}: lines {l * (m + 1) + 2} to {(l + 1) * (m + 1) + 1} "
                         f"are not trajectory {l}, j = 0..{m}")
    return path_l["Q"].reshape(1, -1)
