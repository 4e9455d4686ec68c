"""Column polyominoes of words: perimeter identity and rendering.

A word (x0, ..., x_m) materializes as the union of unit cells
{(i, h) : 0 <= i <= m, 1 <= h <= x_i}: column i is a stack of x_i cells on a
common baseline.  The perimeter (number of unit boundary edges) is computed
two independent ways, on plain Python ints:

* :func:`perimeter_from_gaps` -- the decomposition P = Q + x0 + x_m + 2n
  with Q the sum of absolute gaps; it reads only the letters and their gaps;
* :func:`perimeter_from_edges` -- literal geometry: an edge is on the
  boundary iff exactly one of its two adjacent cells belongs to the union; it
  reads only the occupancy, packed into one int with a field of bits per
  column, and counts the cells whose neighbour differs with XOR and
  ``int.bit_count`` (the bitboard technique); it takes no letter
  differences, no min/max of neighbouring letters and no gap arithmetic.

Both routes take a valid word: a nonempty sequence (list, tuple or bytes) of
positive Python ints, which they do not check.  :func:`perimeter_decomposed`
and :func:`perimeter_edge_count` are the one-word API: each validates a word
once, through :func:`word_letters`, and calls its route, so each route has a
single implementation.  Their equality over all words is one of the
library's acceptance checks.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple, Sequence

from .models import plain_int

RENDER_MAX_HEIGHT = 10**4
RENDER_CELL_PX = 24.0  # side of one drawn cell, and the margin around the drawing
# the edge count refuses a word whose bitset would hold more bits (16 MiB)
EDGE_COUNT_MAX_BITS = 2**27
# Words of at most 64 letters, all below 32, get 4-byte fields in a few
# whole-word operations: each field holds its letter x in all four bytes,
# byte j tagged with 32 j, and one translate maps x + 32 j to byte j of the
# column's occupancy (1 << x) - 1.
_SHORT_WORD = 64
_FIELD_TAGS = int.from_bytes(b"\x00\x20\x40\x60" * _SHORT_WORD, "little")
_TALL_BITS = int.from_bytes(b"\xe0\x00\x00\x00" * _SHORT_WORD, "little")  # set by x >= 32
_OCCUPANCY_BYTES = bytes(((1 << v % 32) - 1) >> 8 * (v // 32) & 255 for v in range(256))


class PerimeterBreakdown(NamedTuple):
    """Perimeter split P = Q + x0 + x_m + 2n (Q gap sum, R = P - 2n vertical part)."""

    Q: int
    R: int
    P: int


def word_letters(word) -> list[int]:
    """The letters of ``word`` as plain ints.

    ValueError unless ``word`` is a nonempty 1-D sequence of positive
    integers: Python and numpy integers pass; bool, float, str and nested
    sequences do not.
    """
    try:
        items = list(word)
    except TypeError:  # not a sequence: a number, or a 0-d array
        items = []
    if not items:
        raise ValueError("a word is a nonempty 1-D sequence of letters")
    letters = []
    for item in items:
        letter = plain_int(item)
        if letter is None or letter < 1:
            raise ValueError(f"letters must be positive integers, got {item!r}")
        letters.append(letter)
    return letters


def perimeter_from_gaps(letters: Sequence[int]) -> tuple[int, int, int]:
    """(Q, R, P) of a valid word, from its letters and their gaps.

    Q sums |x_j - x_(j-1)| over 0 < j < n; R adds x0 and x_(n-1); P adds 2n.
    """
    q = sum(map(abs, map(sub, letters[1:], letters)))
    r = q + letters[0] + letters[-1]
    return q, r, r + 2 * len(letters)


def _short_columns(letters: Sequence[int]) -> bytes | None:
    """The 4-byte fields of a word of at most 64 letters below 32; None for any other word."""
    n = len(letters)
    if n > _SHORT_WORD:
        return None
    spread = bytearray(4 * n)
    try:
        spread[0::4] = letters  # each letter in byte 0 of its field
    except ValueError:  # a letter above 255
        return None
    lanes = int.from_bytes(spread, "little")
    if lanes & _TALL_BITS:
        return None
    tagged = lanes * 0x01010101 + (_FIELD_TAGS >> 32 * (_SHORT_WORD - n))
    return tagged.to_bytes(4 * n, "little").translate(_OCCUPANCY_BYTES)


def _columns(letters: Sequence[int]) -> tuple[bytes | bytearray, int]:
    """The valid word's occupancy as little-endian bytes, and its field width F in bits.

    Bit i*F + h - 1 is set iff cell (i, h) belongs to the polyomino.  F
    exceeds the tallest letter, so the top bit of every field is empty: 32
    for a short word of letters below 32, else 8 * (tallest // 8 + 1), each
    field written on its own into one buffer, so that nothing but the buffer
    grows with the word.  ValueError, before the buffer is allocated, when
    the bitset would hold more than EDGE_COUNT_MAX_BITS bits.
    """
    columns = _short_columns(letters)
    if columns is not None:
        return columns, 32
    n, tallest = len(letters), max(letters)
    size = tallest // 8 + 1
    if 8 * size * n > EDGE_COUNT_MAX_BITS:
        raise ValueError(f"edge count refuses letter {tallest}: a word of {n} letters up to it "
                         f"needs {8 * size * n} bits of bitset, above {EDGE_COUNT_MAX_BITS}")
    columns = bytearray(size * n)
    for i, x in enumerate(letters):
        columns[size * i : size * (i + 1)] = ((1 << x) - 1).to_bytes(size, "little")
    return columns, 8 * size


def perimeter_from_edges(letters: Sequence[int]) -> int:
    """Count a valid word's boundary edges on its bitboard (geometry oracle).

    The word's occupancy is one int, ``board``, with column i in field i of
    F bits (see ``_columns``).  A unit edge is on the boundary iff exactly
    one of its two adjacent cells is occupied, so the route counts occupancy
    changes:

    * vertical edges: ``board ^ board << F`` compares each column with its
      left neighbour; the first column's left neighbour and the last
      column's right neighbour are the empty fields around the word;
    * horizontal edges: ``board ^ board << 1`` compares each cell with the
      one beneath it; a field's bit 0 meets the empty top bit of the field
      below, which stands for the ground.

    It reads only the occupancy: no letter differences.  It holds the board,
    a shifted copy and their XOR at once: about three bitsets for a long
    word, five for a single letter, whose board a shift by one field doubles.
    """
    columns, field = _columns(letters)
    board = int.from_bytes(columns, "little")
    del columns
    return (board ^ board << field).bit_count() + (board ^ board << 1).bit_count()


def perimeter_decomposed(word: Sequence[int]) -> PerimeterBreakdown:
    """Exact breakdown of the perimeter of a word's polyomino.

    For a single-letter word Q = 0 and P = 2*x0 + 2.
    """
    return PerimeterBreakdown(*perimeter_from_gaps(word_letters(word)))


def perimeter_edge_count(word: Sequence[int]) -> int:
    """Count boundary edges of the cell union directly (geometry oracle).

    ValueError for a word whose bitset would exceed EDGE_COUNT_MAX_BITS.
    """
    return perimeter_from_edges(word_letters(word))


def render_polyomino(word: Sequence[int]) -> str:
    """Self-contained SVG drawing of the word's polyomino.

    Unit cells are filled squares; the boundary is overdrawn as one path with
    a move-to/line-to pair per boundary edge, so the number of ``L`` commands
    in the path equals the perimeter.  Words taller than 10**4 are refused.
    """
    letters = word_letters(word)
    height = max(letters)
    if height > RENDER_MAX_HEIGHT:
        raise ValueError(f"render refuses letters above {RENDER_MAX_HEIGHT}")
    n = len(letters)
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
        for h in range(x):
            parts.append(
                f'<rect x="{sx(i):.2f}" y="{sy(h + 1):.2f}" '
                f'width="{cell_px:.2f}" height="{cell_px:.2f}"/>'
            )
    parts.append("</g>")

    cells = {(i, h) for i, x in enumerate(letters) for h in range(1, x + 1)}
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
        f'font-size="12">word={",".join(map(str, letters))} '
        f"P={perimeter_from_gaps(letters)[2]}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
