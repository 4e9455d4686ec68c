import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import polyomino as poly
from wordperim import verification as ver


def test_figure_word():
    b = wp.perimeter_decomposed([2, 3, 1, 3])
    assert b == (5, 10, 18)
    assert wp.perimeter_edge_count([2, 3, 1, 3]) == 18


def test_small_words():
    assert wp.perimeter_decomposed([5]).P == 12
    assert wp.perimeter_decomposed([1, 1, 1, 1]).P == 10
    assert wp.perimeter_edge_count([1]) == 4
    assert wp.perimeter_edge_count([3, 3]) == 10


def test_breakdown_identity_fields():
    b = wp.perimeter_decomposed([4, 2, 7, 1])
    assert b.P == b.Q + 4 + 1 + 2 * 4
    assert b.R == b.P - 8
    assert b.Q == abs(2 - 4) + abs(7 - 2) + abs(1 - 7)


def test_bad_words_rejected():
    with pytest.raises(ValueError):
        wp.perimeter_decomposed([])
    with pytest.raises(ValueError):
        wp.perimeter_decomposed([2, 0, 3])
    with pytest.raises(ValueError):
        wp.perimeter_edge_count([[1, 2], [3, 4]])


def test_exhaustive_small_equivalence():
    for k, nmax in ((2, 5), (3, 4)):
        for n in range(1, nmax + 1):
            for word in product(range(1, k + 1), repeat=n):
                assert wp.perimeter_decomposed(word).P == wp.perimeter_edge_count(word)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=40))
def test_random_word_properties(word):
    b = wp.perimeter_decomposed(word)
    assert b.P == wp.perimeter_edge_count(word)
    assert b.P % 2 == 0
    assert b.P >= 2 * len(word) + 2


@given(st.lists(st.integers(1, 20), min_size=1, max_size=15))
def test_appending_equal_letter_adds_two(word):
    extended = word + [word[-1]]
    assert wp.perimeter_decomposed(extended).P == wp.perimeter_decomposed(word).P + 2


def test_numpy_input_accepted():
    word = np.array([2, 3, 1, 3])
    assert wp.perimeter_decomposed(word).P == 18


def test_render_cells_and_outline():
    svg = wp.render_polyomino([2, 3, 1, 3])
    assert svg.startswith("<svg")
    # one <rect> per unit cell plus the background rectangle
    assert svg.count("<rect") == (2 + 3 + 1 + 3) + 1
    # the outline path carries one line-to per boundary edge
    assert svg.count(" L ") == 18
    assert "P=18" in svg

    svg = wp.render_polyomino([1])
    assert svg.count("<rect") == 2
    assert svg.count(" L ") == 4

    svg = wp.render_polyomino([3, 3])
    assert svg.count("<rect") == 7
    assert svg.count(" L ") == 10


def test_render_refuses_oversize():
    with pytest.raises(ValueError):
        wp.render_polyomino([10**4 + 1])


def test_render_takes_a_word_of_max_cells():
    assert poly.RENDER_MAX_CELLS == 10 * poly.RENDER_MAX_HEIGHT
    svg = wp.render_polyomino([poly.RENDER_MAX_HEIGHT] * 10)
    assert svg.count("<rect") == poly.RENDER_MAX_CELLS + 1
    assert f"P={2 * poly.RENDER_MAX_HEIGHT + 20}<" in svg


@pytest.mark.parametrize("word", [[poly.RENDER_MAX_HEIGHT] * 10 + [1], [1] * (10**5 + 1)],
                         ids=["tall-letters", "many-letters"])
def test_render_refuses_one_cell_above_max_cells_before_building(peak_memory, word):
    with peak_memory() as traced, pytest.raises(ValueError) as refused:
        wp.render_polyomino(word)
    assert str(refused.value) == "render refuses a word of 100001 cells, above 100000"
    # the word's letters are copied once; a drawing of 100 001 cells would take about 40 MB
    assert traced.peak < 64 * len(word) + 2**16


def test_render_is_deterministic():
    assert wp.render_polyomino([2, 3, 1, 3]) == wp.render_polyomino([2, 3, 1, 3])


def reference_outline(word: list[int]) -> str:
    """The outline path of the drawing, from the set of every cell: each sorted cell adds
    each of its four sides (left, right, below, above) whose neighbour is not a cell."""
    cells = {(i, h) for i, x in enumerate(word) for h in range(1, x + 1)}
    edges = []
    for i, h in sorted(cells):
        for (di, dh), edge in [((-1, 0), ((i, h - 1), (i, h))),
                               ((1, 0), ((i + 1, h - 1), (i + 1, h))),
                               ((0, -1), ((i, h - 1), (i + 1, h - 1))),
                               ((0, 1), ((i, h), (i + 1, h)))]:
            if (i + di, h + dh) not in cells:
                edges.append(edge)
    px, top = poly.RENDER_CELL_PX, (max(word) + 1) * poly.RENDER_CELL_PX

    def point(x, y):  # in px: a margin of one cell, the baseline at the bottom
        return f"{px + x * px:.2f} {top - y * px:.2f}"

    d = " ".join(f"M {point(*a)} L {point(*b)}" for a, b in edges)
    return f'<path d="{d}" stroke="#08306b" stroke-width="2.5" fill="none"/>'


@given(st.lists(st.integers(1, 12), min_size=1, max_size=20))
@example([2, 3, 1, 3, 5, 1])
@example([1])
@example([4, 4, 4])
def test_render_outline_equals_a_cell_set_reference(word):
    lines = wp.render_polyomino(word).splitlines()
    assert lines[-3] == reference_outline(word)
    assert lines[-3].count(" L ") == wp.perimeter_edge_count(word)


# ---------------------------------------------------------------------------
# the two routes, on the word types the one-word API and verify give them
# ---------------------------------------------------------------------------

def reference_breakdown(word):
    """Q, R, P from the letters with plain Python integers."""
    q = sum(abs(b - a) for a, b in zip(word, word[1:]))
    r = q + word[0] + word[-1]
    return q, r, r + 2 * len(word)


def reference_edges(word):
    """Boundary edges of the cell set: each cell side whose neighbour is empty."""
    cells = {(i, h) for i, x in enumerate(word) for h in range(1, x + 1)}
    sides = ((-1, 0), (1, 0), (0, -1), (0, 1))
    return sum((i + di, h + dh) not in cells for i, h in cells for di, dh in sides)


def word_forms(letters):
    """The word as a list, a tuple and, if its letters fit, bytes."""
    return [letters, tuple(letters)] + ([bytes(letters)] if max(letters) < 256 else [])


def assert_routes_equal_references(words):
    """Both routes on the words as one list and one at a time, and the one-word API on each
    word, each word as a list, a tuple and (if it fits) bytes."""
    words = [[int(x) for x in word] for word in words]
    want = [reference_breakdown(letters) for letters in words]
    edges = [reference_edges(letters) for letters in words]
    assert edges == [p for _, _, p in want]
    for forms in zip(*map(word_forms, words)):  # only the forms that every word has
        assert poly.perimeters_from_gaps(list(forms)) == want
        assert poly.perimeters_from_edges(list(forms)) == edges
    for letters, breakdown, count in zip(words, want, edges):
        for form in word_forms(letters):
            assert poly.perimeters_from_gaps([form]) == [breakdown]
            assert poly.perimeters_from_edges([form]) == [count]
        assert wp.perimeter_decomposed(letters) == breakdown
        assert wp.perimeter_edge_count(letters) == count


def test_routes_equal_references_on_exhaustive_cases():
    # the words check_perimeter_exhaustive gives the routes, as itertools tuples
    for k, n in ver.EXHAUSTIVE_PERIMETER:
        assert_routes_equal_references(product(range(1, k + 1), repeat=n))


def words_over(k_range, max_letters):
    """Lists of 1 to 12 words of 1 to ``max_letters`` letters over [1, k], k drawn from k_range."""
    return st.integers(*k_range).flatmap(lambda k: st.lists(
        st.lists(st.integers(1, k), min_size=1, max_size=max_letters), min_size=1, max_size=12))


# words over [1, k], k = 1 included, of 1 to 80 letters: words of at most 64
# letters below 32 take 4-byte fields in whole-word operations, every other
# word one field at a time.  Short words with letters up to 300 reach both
# one-word fallbacks: a letter of 128 or more takes the gaps of its block
# out of their byte lanes (_gap_sum), and one of 32 or more its edges out
# of 4-byte fields (_board); a letter of 256 or more fits no byte at all.
random_words = st.one_of(words_over((1, 40), 80), words_over((41, 300), 6))


@settings(max_examples=150, deadline=None)
@given(random_words)
@example([[1, 300, 129, 2], [128, 5]])
def test_routes_equal_references_on_random_words(words):
    assert_routes_equal_references(words)


def test_routes_on_edge_words():
    # length-1 words, a word far below the others' height, and k = 1 words
    words = [[1], [7], [1, 1, 1, 1, 1, 1], [2, 1], [30, 1, 30], [1, 1]]
    assert_routes_equal_references(words)
    assert poly.perimeters_from_edges(list(map(bytes, words))) == [4, 16, 14, 8, 124, 6]


@pytest.mark.parametrize("kernel", [wp.perimeter_decomposed, wp.perimeter_edge_count],
                         ids=["decomposed", "edge-count"])
@pytest.mark.parametrize("word, message", [
    ([3, -1], "positive integers, got -1"),
    ([3, 0, 1], "positive integers, got 0"),
    ([], "nonempty"),
    ([[4, 1, 2]], r"positive integers, got \[4, 1, 2\]"),
], ids=["negative-letter", "zero-inside-a-word", "empty-row", "1-D"])
def test_each_public_kernel_validates_its_own_input(kernel, word, message):
    # verify builds valid words and calls the routes unchecked; the one-word
    # API still checks every word it is given
    with pytest.raises(ValueError, match=message):
        kernel(word)


# occupancy touching all four borders: full columns, one-cell-wide and one-cell-high arrays
@example([[3, 3, 3]])
@example([[1], [5]])
@example([[5, 1, 5], [1, 5, 1]])
@example([[1, 1, 1, 1]])
@example([[2, 7, 7, 2], [7, 1, 1, 7]])
@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 20), st.integers(1, 12)).flatmap(
    lambda kl: st.lists(st.lists(st.integers(1, kl[0]), min_size=kl[1], max_size=kl[1]),
                        min_size=1, max_size=8)))
def test_edge_kernel_counts_cells_on_every_border(words):
    top = max(max(word) for word in words)
    for word in words[::2]:  # these words touch the left, right and top borders
        word[0] = word[-1] = top
    assert_routes_equal_references(words)


# ---------------------------------------------------------------------------
# field boundaries of the bitboard
# ---------------------------------------------------------------------------

# 7-9: one and two bytes per field; 31-33: 4-byte fields from the table, then
# 5-byte fields; 63-65 and 127-129: the 64-bit word boundaries of the deleted
# numpy kernel; 255-257: letters that no longer fit a byte
@pytest.mark.parametrize("tall", [7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257])
def test_edge_kernel_at_word_boundaries(tall):
    # columns that end just below, at and just above a field boundary, next
    # to columns that end on the other side of it
    words = [[tall], [tall, tall], [1, tall, 2], [tall, tall - 1, tall + 1, 1],
             [tall + 1, 64, 65, tall]]
    assert_routes_equal_references(words)


def test_edge_kernel_block_with_some_columns_in_two_words():
    # words whose columns straddle 64-bit boundaries next to short columns
    words = [[3, 70, 2, 64, 65, 1], [1, 2], [100, 100], [64, 64, 63, 64], [5, 128, 129, 1, 66]]
    assert_routes_equal_references(words)


def test_long_words_take_fields_one_at_a_time():
    # letters below 32 take 4-byte fields whatever the word's length; a taller
    # letter sends its block to fields written one word at a time
    for word in ([5] * 65, [1, 31] * 40, [31] * 64 + [1], [31] * 500, list(range(1, 100))):
        assert_routes_equal_references([word])


def test_edge_kernel_memory_follows_the_bitset(peak_memory):
    bitset = 10**6 // 8 + 1  # one field of 125 001 bytes: the letter and an empty top bit
    wp.perimeter_edge_count([10**6])
    with peak_memory() as traced:
        edges = wp.perimeter_edge_count([10**6])
    assert edges == 2 * 10**6 + 2
    # the board, its shift by one field (two fields long) and their XOR: five
    # bitsets; one byte per cell would take eight, a table of fields 10**6
    assert traced.peak < 6 * bitset


# ---------------------------------------------------------------------------
# letters: plain and numpy integers of any size; nothing else
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word", [[2.5, 3], [True, 2], ["2", "3"], [1.7], [2, np.float64(3)]],
                         ids=["float", "bool", "str", "one-float", "numpy-float"])
@pytest.mark.parametrize("api", [wp.perimeter_decomposed, wp.perimeter_edge_count,
                                 wp.render_polyomino], ids=["decomposed", "edge-count", "render"])
def test_one_word_api_rejects_non_integer_letters(api, word):
    with pytest.raises(ValueError, match="letters must be positive integers, got "):
        api(word)


@pytest.mark.parametrize("word", [5, "23", np.array(3), np.zeros((2, 2), dtype=np.int64),
                                  [[1, 2], [3, 4]], (x for x in [])],
                         ids=["int", "str", "0-d", "2-D", "nested", "empty-iterator"])
def test_one_word_api_rejects_malformed_words(word):
    with pytest.raises(ValueError):
        wp.perimeter_decomposed(word)


def test_numpy_integer_letters_of_every_width():
    word = [np.int8(2), np.uint16(3), np.int64(1), np.uint64(3)]
    assert wp.perimeter_decomposed(word) == (5, 10, 18)
    assert wp.perimeter_edge_count(word) == 18
    assert "word=2,3,1,3 " in wp.render_polyomino(word)


def test_decomposition_takes_letters_of_any_size():
    for word in ([2**63, 1], [np.uint64(2**63), 1], [1, 10**30, 1]):
        letters = [int(x) for x in word]
        assert wp.perimeter_decomposed(word) == reference_breakdown(letters)


@pytest.mark.parametrize("word, tallest", [([2**62, 1], 2**62), ([1, 2**27], 2**27),
                                           ([2**20] * 200, 2**20)],
                         ids=["2**62", "2**27", "many-tall-letters"])
def test_edge_count_refuses_an_oversize_bitset_before_allocating(peak_memory, word, tallest):
    with peak_memory() as traced, pytest.raises(ValueError) as refused:
        wp.perimeter_edge_count(word)
    message = str(refused.value)
    assert "\n" not in message
    assert message.startswith(f"edge count refuses letter {tallest}: a word of {len(word)} letters")
    assert traced.peak < 2**16  # the refused bitset would hold at least 2**24 bytes


# ---------------------------------------------------------------------------
# blocks of words: the sizes around BLOCK_WORDS, the words at block edges and
# the letter limits of the whole-block layouts
# ---------------------------------------------------------------------------

B = poly.BLOCK_WORDS
# n = 2 and 60 with letters 1 and 30, the extremes of verify's random words
EXTREME_WORDS = [bytes([1, 30]), bytes([30] * 60), bytes([1] * 60), bytes([30, 1]),
                 bytes([1, 1]), bytes([30, 30]), bytes([1, 30] * 30), bytes([30, 1] * 30)]


def block_words(size, seed):
    """``size`` words like verify's, with extreme words first, second, second last and last in each block."""
    rng = random.Random(seed)
    words = [bytes(rng.randint(1, 30) for _ in range(rng.randint(2, 60))) for _ in range(size)]
    for i in range(size):
        if i % B in (0, 1, B - 2, B - 1) or i == size - 1:
            words[i] = EXTREME_WORDS[i % len(EXTREME_WORDS)]
    return words


@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 1])
def test_routes_on_blocks_of_every_size(size):
    words = block_words(size, seed=size)
    assert poly.perimeters_from_gaps(words) == [reference_breakdown(word) for word in words]
    assert poly.perimeters_from_edges(words) == [reference_edges(word) for word in words]


def test_routes_take_no_words():
    assert poly.perimeters_from_gaps([]) == [] == poly.perimeters_from_edges([])


@pytest.mark.parametrize("route, general, limit, reference", [
    (poly.perimeters_from_gaps, "_gap_sum", 128, reference_breakdown),
    (poly.perimeters_from_edges, "_board", 32, reference_edges),
], ids=["gaps-byte-lanes", "edges-4-byte-fields"])
@pytest.mark.parametrize("side", [-1, 0], ids=["below-the-limit", "at-the-limit"])
def test_block_layout_agrees_with_the_general_path_at_its_limit(monkeypatch, route, general, limit,
                                                                 reference, side):
    # a block's layout holds for letters below the limit; a letter at the limit
    # sends the whole block to the general path, one word at a time
    calls = []
    real = getattr(poly, general)
    monkeypatch.setattr(poly, general, lambda word: calls.append(word) or real(word))
    words = block_words(B - 1, seed=limit)
    on_the_general_path = route(words + [[300, 1]])[:-1]  # 300 fits no byte
    assert len(calls) == B
    calls.clear()
    tall = limit + side
    got = route(words + [bytes([1, tall, tall - 1, 1])])
    assert len(calls) == (B if side == 0 else 0)
    assert got[:-1] == on_the_general_path
    assert got[-1] == reference([1, tall, tall - 1, 1])
