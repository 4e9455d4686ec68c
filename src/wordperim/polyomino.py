"""Column polyominoes of words: perimeter identity and rendering.

A word (x0, ..., x_m) materializes as the union of unit cells
{(i, h) : 0 <= i <= m, 1 <= h <= x_i}: column i is a stack of x_i cells on a
common baseline.  The perimeter (number of unit boundary edges) is computed
two independent ways:

* :func:`perimeter_decomposed_batch` -- the decomposition P = Q + x0 + x_m + 2n
  with Q the sum of absolute gaps; it reads only the letters and their gaps;
* :func:`perimeter_edge_count_batch` -- literal geometry: an edge is on the
  boundary iff exactly one of its two adjacent cells belongs to the union; it
  reads only the occupancy, packed 64 cells to a ``uint64`` word, and counts
  the cells whose neighbour differs with XOR and popcount (the bitboard
  technique), so a block costs about one machine word per column whatever
  its height; it takes no letter differences, no min/max of neighbouring
  letters and no gap arithmetic.

Both kernels take a block of words as a 2-D integer array, one word per row,
padded on the right with 0 to the block's longest word.  A row is a nonempty
run of positive letters followed by zeros only; its word length n is its
number of nonzero entries.  Padding cannot change either result: a zero
column holds no cell, so it adds no boundary edge, and the decomposition masks
the gaps to each row's first n letters.  :func:`perimeter_decomposed` and
:func:`perimeter_edge_count` are the one-word API; each validates a 1-D word
and calls its route's kernel on a block of one row, so each route has a single
implementation.  Their equality over all words is one of the library's
acceptance checks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

RENDER_MAX_HEIGHT = 10**4
RENDER_CELL_PX = 24.0  # side of one drawn cell, and the margin around the drawing


class PerimeterBreakdown(NamedTuple):
    """Perimeter split P = Q + x0 + x_m + 2n (Q gap sum, R = P - 2n vertical part).

    The one-word API holds ints; the batch kernel holds int64 arrays, one
    entry per row.
    """

    Q: int | np.ndarray
    R: int | np.ndarray
    P: int | np.ndarray


def _check_word(word: Sequence[int]) -> np.ndarray:
    letters = np.asarray(word, dtype=np.int64)
    if letters.ndim != 1 or letters.size == 0:
        raise ValueError("a word is a nonempty 1-D sequence of letters")
    if letters.min() < 1:
        raise ValueError("letters must be positive integers")
    return letters


def _check_batch(words) -> tuple[np.ndarray, np.ndarray]:
    """The batch as int64 and each row's word length n; rejects malformed rows."""
    letters = np.asarray(words, dtype=np.int64)
    if letters.ndim != 2 or letters.size == 0:
        raise ValueError("a batch is a nonempty 2-D array, one zero-padded word per row")
    if letters.min() < 0:
        raise ValueError("letters must be positive integers")
    present = letters > 0
    if (present[:, 1:] > present[:, :-1]).any():
        raise ValueError("a 0 may only pad a word on the right")
    if not present[:, 0].all():
        raise ValueError("every row of a batch must hold a nonempty word")
    return letters, present.sum(axis=1)


def perimeter_decomposed_batch(words) -> PerimeterBreakdown:
    """Breakdown of every row's perimeter, from the letters and their gaps.

    Q sums |x_j - x_(j-1)| over the gaps inside each row's word (0 < j < n),
    so the gap into the padding is left out; R adds x0 and x_(n-1).
    """
    letters, n = _check_batch(words)
    inside = np.arange(1, letters.shape[1]) < n[:, None]
    q = (np.abs(np.diff(letters, axis=1)) * inside).sum(axis=1)
    r = q + letters[:, 0] + letters[np.arange(letters.shape[0]), n - 1]
    return PerimeterBreakdown(Q=q, R=r, P=r + 2 * n)


def perimeter_edge_count_batch(words) -> np.ndarray:
    """Count every row's boundary edges on its packed occupancy (geometry oracle).

    Column i of row b is held as ``span`` = ceil(H / 64) ``uint64`` words,
    with H the block's tallest letter: bit h-1 of ``col[b, i]`` (word
    (h-1) // 64, bit (h-1) % 64) is set iff cell (i, h) belongs to the row's
    polyomino.  A unit edge is on the boundary iff exactly one of its two
    adjacent cells is occupied, so the kernel counts occupancy changes with
    XOR and popcount:

    * vertical edges: ``col[i] ^ col[i+1]`` between neighbouring columns,
      plus every cell of the first and the last column, whose outer
      neighbours are outside;
    * horizontal edges: ``col ^ below``, where ``below`` is ``col`` shifted up
      one cell, bit 63 of the word underneath carried into bit 0; the carry
      out of the top word is the edge above a cell at height 64 * span.

    Padding columns are empty, so they add no edge.  It reads only the
    occupancy: no word lengths, no letter differences.  The kernel holds about
    three bitsets at once, 24 bytes per 64 cells.
    """
    letters = _check_batch(words)[0]
    span = (int(letters.max()) + 63) // 64
    # word w of column i holds clip(x_i - 64 w, 0, 64) cells: (1 << cells) - 1, built in place
    cells = letters[:, :, None] - np.arange(0, 64 * span, 64)
    np.clip(cells, 0, 64, out=cells)
    col = cells.view(np.uint64)
    np.left_shift(np.uint64(1), col, out=col)
    col -= np.uint64(1)  # numpy shifts 64 places to 0, so a full word wraps to all ones
    ones = np.bitwise_count
    vertical = ones(col[:, :-1] ^ col[:, 1:]).sum(axis=(1, 2))
    vertical += ones(col[:, 0]).sum(1) + ones(col[:, -1]).sum(1)
    below = col << np.uint64(1)
    below[:, :, 1:] |= col[:, :, :-1] >> np.uint64(63)
    horizontal = ones(np.bitwise_xor(below, col, out=below)).sum(axis=(1, 2))
    horizontal += (col[:, :, -1] >> np.uint64(63)).sum(1)
    return (vertical + horizontal).astype(np.int64)


def perimeter_decomposed(word: Sequence[int]) -> PerimeterBreakdown:
    """Exact breakdown of the perimeter of a word's polyomino.

    For a single-letter word Q = 0 and P = 2*x0 + 2.
    """
    breakdown = perimeter_decomposed_batch(_check_word(word)[None])
    return PerimeterBreakdown(*(int(v[0]) for v in breakdown))


def perimeter_edge_count(word: Sequence[int]) -> int:
    """Count boundary edges of the cell union directly (geometry oracle)."""
    return int(perimeter_edge_count_batch(_check_word(word)[None])[0])


def render_polyomino(word: Sequence[int]) -> str:
    """Self-contained SVG drawing of the word's polyomino.

    Unit cells are filled squares; the boundary is overdrawn as one path with
    a move-to/line-to pair per boundary edge, so the number of ``L`` commands
    in the path equals the perimeter.  Words taller than 10**4 are refused.
    """
    letters = _check_word(word)
    if letters.max() > RENDER_MAX_HEIGHT:
        raise ValueError(f"render refuses letters above {RENDER_MAX_HEIGHT}")
    n = letters.size
    height = int(letters.max())
    cell_px = margin = RENDER_CELL_PX
    width_px = n * cell_px + 2 * margin
    height_px = height * cell_px + 2 * margin

    def sx(x: float) -> float:
        return margin + x * cell_px

    def sy(y: float) -> float:  # flip: baseline at the bottom
        return height_px - margin - y * cell_px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
        f'<rect width="{width_px:.0f}" height="{height_px:.0f}" fill="white"/>',
        '<g fill="#9ecae1" stroke="#6baed6" stroke-width="1">',
    ]
    for i, x in enumerate(letters):
        for h in range(int(x)):
            parts.append(
                f'<rect x="{sx(i):.2f}" y="{sy(h + 1):.2f}" '
                f'width="{cell_px:.2f}" height="{cell_px:.2f}"/>'
            )
    parts.append("</g>")

    cells = {(i, h) for i, x in enumerate(letters) for h in range(1, int(x) + 1)}
    edges = []
    for i, h in sorted(cells):
        # vertical edges: left of (i,h) vs (i-1,h), right vs (i+1,h)
        if (i - 1, h) not in cells:
            edges.append(((i, h - 1), (i, h)))
        if (i + 1, h) not in cells:
            edges.append(((i + 1, h - 1), (i + 1, h)))
        # horizontal edges: below vs (i,h-1), above vs (i,h+1)
        if (i, h - 1) not in cells:
            edges.append(((i, h - 1), (i + 1, h - 1)))
        if (i, h + 1) not in cells:
            edges.append(((i, h), (i + 1, h)))
    d = " ".join(
        f"M {sx(ax):.2f} {sy(ay):.2f} L {sx(bx):.2f} {sy(by):.2f}"
        for (ax, ay), (bx, by) in edges
    )
    parts.append(f'<path d="{d}" stroke="#08306b" stroke-width="2.5" fill="none"/>')
    parts.append(
        f'<text x="{margin:.0f}" y="{margin * 0.7:.0f}" font-family="monospace" '
        f'font-size="12">word={",".join(str(int(x)) for x in letters)} '
        f"P={perimeter_decomposed(letters).P}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
