"""Column polyominoes of words: perimeter identity and rendering.

A word (x0, ..., x_m) materializes as the union of unit cells
{(i, h) : 0 <= i <= m, 1 <= h <= x_i}: column i is a stack of x_i cells on a
common baseline.  The perimeter (number of unit boundary edges) is computed
two independent ways, on plain Python ints, each over a list of words:

* :func:`perimeters_from_gaps` -- the decomposition P = Q + x0 + x_m + 2n
  with Q the sum of absolute gaps; it reads only the letters and their gaps;
* :func:`perimeters_from_edges` -- literal geometry: an edge is on the
  boundary iff exactly one of its two adjacent cells belongs to the union; it
  reads only the occupancy, packed into one int per word with a field of bits
  per column, and counts the cells whose neighbour differs with XOR and
  ``int.bit_count`` (the bitboard technique); it takes no letter
  differences, no min/max of neighbouring letters and no gap arithmetic.

Each route reads its words in blocks of BLOCK_WORDS, with a few whole-block
operations when the block's letters are small (below 128 for the gaps, below
32 for the occupancy) and one word at a time otherwise.  Both take valid
words: nonempty sequences (lists, tuples or bytes) of positive Python ints,
which they do not check.  :func:`perimeter_decomposed` and
:func:`perimeter_edge_count` are the one-word API: each validates a word
once, through :func:`word_letters`, and calls its route on a block of one,
so each route has a single implementation.  Their equality over all words is
one of the library's acceptance checks.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import sub
from typing import NamedTuple, Sequence

from .models import plain_int

RENDER_MAX_HEIGHT = 10**4
# render refuses a word of more cells (a drawing takes about 400 bytes of memory a cell)
RENDER_MAX_CELLS = 10**5
RENDER_CELL_PX = 24.0  # side of one drawn cell, and the margin around the drawing
# the edge count refuses a word whose bitset would hold more bits (16 MiB)
EDGE_COUNT_MAX_BITS = 2**27
# words per block of the two routes
BLOCK_WORDS = 256
# |v - 128| for each byte v: the gap b - a of two letters below 128, read
# from its byte lane b + 128 - a
_ABS_GAPS = bytes(abs(v - 128) for v in range(256))
# byte j of the occupancy (1 << x) - 1 of a column of x < 32 cells, for j = 0 .. 3
_OCCUPANCY_BYTES = tuple(bytes(((1 << x) - 1) >> 8 * j & 255 for x in range(32)) + bytes(224)
                         for j in range(4))
_SHORT_LETTERS = bytes(range(32))


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


def _blocks(words: Sequence) -> list:
    """``words`` cut into consecutive lists of at most BLOCK_WORDS words."""
    return [words[lo : lo + BLOCK_WORDS] for lo in range(0, len(words), BLOCK_WORDS)]


def _joined_letters(block: Sequence, separator: bytes) -> bytes | None:
    """The block's letters, one byte each, with ``separator`` between words.

    None for a letter above 255.
    """
    try:
        return separator.join(map(bytes, block))  # bytes(word) is word for a bytes word
    except ValueError:
        return None


def _gap_sum(word: Sequence[int]) -> int:
    """Q of one valid word, one gap at a time."""
    return sum(map(abs, map(sub, word[1:], word)))


def _gap_sums(block: Sequence) -> list[int]:
    """Q of each word of the block.

    When every letter lies below 128 the block is one int of byte lanes, a 0
    between words, and one biased difference with its shift by a lane puts
    b + 128 - a, for each letter a and the letter b after it, in a lane of
    its own; one translate turns the lanes into |b - a|, and each word's Q
    sums its own n - 1 lanes.  Any other block is read a word at a time.
    """
    joined = _joined_letters(block, b"\0")
    if joined is None or not joined.isascii():
        return list(map(_gap_sum, block))
    lanes = len(joined)
    letters = int.from_bytes(joined, "little")
    biased = (letters >> 8) + int.from_bytes(b"\x80" * lanes, "little") - letters
    gaps = biased.to_bytes(lanes, "little").translate(_ABS_GAPS)
    sums, start = [], 0
    for word in block:
        end = start + len(word)
        sums.append(sum(gaps[start : end - 1]))  # the lanes up to the word's last letter
        start = end + 1  # past the separator
    return sums


def perimeters_from_gaps(words: Sequence) -> list[tuple[int, int, int]]:
    """(Q, R, P) of each valid word, in order, from the letters and their gaps.

    Q sums |x_j - x_(j-1)| over 0 < j < n; R adds x0 and x_(n-1); P adds 2n.
    """
    breakdowns = []
    for block in _blocks(words):
        breakdowns += [(q, r := q + word[0] + word[-1], r + 2 * len(word))
                       for q, word in zip(_gap_sums(block), block)]
    return breakdowns


def _short_columns(block: Sequence) -> bytearray | None:
    """The 4-byte fields of every column of a block whose letters all lie below 32; else None.

    Byte j of each field is one translate of the letters, written into every
    fourth byte.
    """
    letters = _joined_letters(block, b"")
    if letters is None or letters.translate(None, _SHORT_LETTERS):
        return None
    columns = bytearray(4 * len(letters))
    for j, table in enumerate(_OCCUPANCY_BYTES):
        columns[j::4] = letters.translate(table)
    return columns


def _board(letters: Sequence[int]) -> tuple[int, int]:
    """The valid word's occupancy as one int, and its field width F in bits.

    Bit i*F + h - 1 is set iff cell (i, h) belongs to the polyomino.  F =
    8 * (tallest // 8 + 1) exceeds the tallest letter, so the top bit of
    every field is empty; each field is written on its own into one buffer,
    so that nothing but the buffer grows with the word.  ValueError, before
    the buffer is allocated, when the bitset would hold more than
    EDGE_COUNT_MAX_BITS bits.
    """
    n, tallest = len(letters), max(letters)
    size = tallest // 8 + 1
    if 8 * size * n > EDGE_COUNT_MAX_BITS:
        raise ValueError(f"edge count refuses letter {tallest}: a word of {n} letters up to it "
                         f"needs {8 * size * n} bits of bitset, above {EDGE_COUNT_MAX_BITS}")
    columns = bytearray(size * n)
    for i, x in enumerate(letters):
        columns[size * i : size * (i + 1)] = ((1 << x) - 1).to_bytes(size, "little")
    return int.from_bytes(columns, "little"), 8 * size


def _boards(block: Sequence):
    """(board, F) of each word of the block.

    4-byte fields when its letters allow, else ``_board``.
    """
    columns = _short_columns(block)
    if columns is None:
        return map(_board, block)
    ends = list(accumulate(4 * len(word) for word in block))
    fields = map(columns.__getitem__, map(slice, [0] + ends, ends))
    return zip(map(int.from_bytes, fields, repeat("little")), repeat(32))


def perimeters_from_edges(words: Sequence) -> list[int]:
    """Count each valid word's boundary edges on its bitboard (geometry oracle), in order.

    A word's occupancy is one int, ``board``, with column i in field i of F
    bits: 32 when the block's letters all lie below 32 (``_short_columns``),
    else 8 * (tallest // 8 + 1) (``_board``).  A unit edge is on the
    boundary iff exactly one of its two adjacent cells is occupied, so the
    route counts occupancy changes:

    * vertical edges: ``board ^ board << F`` compares each column with its
      left neighbour; the first column's left neighbour and the last
      column's right neighbour are the empty fields around the word;
    * horizontal edges: ``board ^ board << 1`` compares each cell with the
      one beneath it; a field's bit 0 meets the empty top bit of the field
      below, which stands for the ground.

    It reads only the occupancy: no letter differences.  It holds a board,
    a shifted copy and their XOR at once: about three bitsets for a long
    word, five for a single letter, whose board a shift by one field doubles.
    """
    counts = []
    for block in _blocks(words):
        counts += [(board ^ board << field).bit_count() + (board ^ board << 1).bit_count()
                   for board, field in _boards(block)]
    return counts


def perimeter_decomposed(word: Sequence[int]) -> PerimeterBreakdown:
    """Exact breakdown of the perimeter of a word's polyomino.

    For a single-letter word Q = 0 and P = 2*x0 + 2.
    """
    return PerimeterBreakdown(*perimeters_from_gaps([word_letters(word)])[0])


def perimeter_edge_count(word: Sequence[int]) -> int:
    """Count boundary edges of the cell union directly (geometry oracle).

    ValueError for a word whose bitset would exceed EDGE_COUNT_MAX_BITS.
    """
    return perimeters_from_edges([word_letters(word)])[0]


def render_polyomino(word: Sequence[int]) -> str:
    """Self-contained SVG drawing of the word's polyomino.

    Unit cells are filled squares; the boundary is overdrawn as one path with
    a move-to/line-to pair per boundary edge, so the number of ``L`` commands
    in the path equals the perimeter.  Words taller than RENDER_MAX_HEIGHT,
    or of more than RENDER_MAX_CELLS cells, are refused before anything is
    built.
    """
    letters = word_letters(word)
    height = max(letters)
    if height > RENDER_MAX_HEIGHT:
        raise ValueError(f"render refuses letters above {RENDER_MAX_HEIGHT}")
    cell_count = sum(letters)
    if cell_count > RENDER_MAX_CELLS:
        raise ValueError(f"render refuses a word of {cell_count} cells, above {RENDER_MAX_CELLS}")
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

    # each cell (i, h), column by column and bottom to top, adds its boundary
    # edges: left, right, below, above
    edges = []
    for i, (left, x, right) in enumerate(zip([0, *letters], letters, [*letters[1:], 0])):
        for h in range(1, x + 1):
            if h > left:  # no cell (i-1, h)
                edges.append(((i, h - 1), (i, h)))
            if h > right:  # no cell (i+1, h)
                edges.append(((i + 1, h - 1), (i + 1, h)))
            if h == 1:  # the ground
                edges.append(((i, 0), (i + 1, 0)))
            if h == x:  # the column's top
                edges.append(((i, x), (i + 1, x)))
    d = " ".join(
        f"M {sx(ax):.2f} {sy(ay):.2f} L {sx(bx):.2f} {sy(by):.2f}"
        for (ax, ay), (bx, by) in edges
    )
    parts.append(f'<path d="{d}" stroke="#08306b" stroke-width="2.5" fill="none"/>')
    parts.append(
        f'<text x="{margin:.0f}" y="{margin * 0.7:.0f}" font-family="monospace" '
        f'font-size="12">word={",".join(map(str, letters))} '
        f"P={perimeters_from_gaps([letters])[0][2]}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
