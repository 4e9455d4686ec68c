"""Column polyominoes of words: perimeter identity and rendering.

A word (x0, ..., x_m) materializes as the union of unit cells
{(i, h) : 0 <= i <= m, 1 <= h <= x_i}: column i is a stack of x_i cells on a
common baseline.  The perimeter (number of unit boundary edges) is computed
two independent ways:

* :func:`perimeter_decomposed_batch` -- the decomposition P = Q + x0 + x_m + 2n
  with Q the sum of absolute gaps; it reads only the letters and their gaps;
* :func:`perimeter_edge_count_batch` -- literal geometry: an edge is on the
  boundary iff exactly one of its two adjacent cells belongs to the union; it
  reads only the occupancy grid.

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
    n = np.count_nonzero(present, axis=1)
    if not n.all():
        raise ValueError("every row of a batch must hold a nonempty word")
    if not np.array_equal(present, np.arange(letters.shape[1]) < n[:, None]):
        raise ValueError("a 0 may only pad a word on the right")
    return letters, n


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
    """Count every row's boundary edges on its occupancy grid (geometry oracle).

    Builds the zero-padded occupancy grid of shape (B, L+2, H+2), with L the
    padded word length and H the block's tallest letter, and counts per row,
    separately for vertical and horizontal unit edges, the positions where
    occupancy changes between the two adjacent cells (outside counts as
    empty).  Padding columns are empty, so they add no edge.
    """
    letters, _ = _check_batch(words)
    batch, length = letters.shape
    height = int(letters.max())
    grid = np.zeros((batch, length + 2, height + 2), dtype=bool)  # zero padding = outside
    grid[:, 1 : length + 1, 1 : height + 1] = np.arange(1, height + 1) <= letters[:, :, None]
    vertical = np.count_nonzero(grid[:, :-1, :] != grid[:, 1:, :], axis=(1, 2))
    horizontal = np.count_nonzero(grid[:, :, :-1] != grid[:, :, 1:], axis=(1, 2))
    return vertical + horizontal


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
