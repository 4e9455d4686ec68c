from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
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


def test_render_is_deterministic():
    assert wp.render_polyomino([2, 3, 1, 3]) == wp.render_polyomino([2, 3, 1, 3])


# ---------------------------------------------------------------------------
# batch kernels: one zero-padded word per row
# ---------------------------------------------------------------------------

def pad(words):
    """The words as one batch, each row padded on the right with 0."""
    batch = np.zeros((len(words), max(len(w) for w in words)), dtype=np.int64)
    for row, word in enumerate(words):
        batch[row, : len(word)] = word
    return batch


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


def assert_batch_equals_words(words, batch):
    b = wp.perimeter_decomposed_batch(batch)
    edges = wp.perimeter_edge_count_batch(batch)
    assert b.P.shape == edges.shape == (len(words),)
    for row, word in enumerate(words):
        word = [int(x) for x in word]
        assert tuple(int(v[row]) for v in b) == wp.perimeter_decomposed(word)
        assert tuple(int(v[row]) for v in b) == reference_breakdown(word)
        assert int(edges[row]) == wp.perimeter_edge_count(word) == reference_edges(word)


def test_batch_kernels_equal_words_on_exhaustive_cases():
    for k, n in ver.EXHAUSTIVE_PERIMETER:
        words = list(product(range(1, k + 1), repeat=n))
        assert_batch_equals_words(words, np.array(words))


# batches over [1, k], k = 1 included, of words of length 1 to 30
ragged_words = st.integers(1, 40).flatmap(
    lambda k: st.lists(st.lists(st.integers(1, k), min_size=1, max_size=30), min_size=1, max_size=12)
)


@settings(max_examples=150, deadline=None)
@given(ragged_words, st.integers(0, 5))
def test_batch_kernels_equal_words_on_ragged_batches(words, extra_zeros):
    batch = pad(words)
    assert_batch_equals_words(words, batch)
    # trailing zero columns change neither route
    wider = np.pad(batch, ((0, 0), (0, extra_zeros)))
    assert tuple(map(list, wp.perimeter_decomposed_batch(wider))) == tuple(
        map(list, wp.perimeter_decomposed_batch(batch))
    )
    assert list(wp.perimeter_edge_count_batch(wider)) == list(wp.perimeter_edge_count_batch(batch))


def test_batch_kernels_edge_rows():
    # length-1 words, a row far below the batch maximum, and k = 1 words
    words = [[1], [7], [1, 1, 1, 1, 1, 1], [2, 1], [30, 1, 30], [1, 1]]
    assert_batch_equals_words(words, pad(words))
    assert list(wp.perimeter_edge_count_batch(pad(words))) == [4, 16, 14, 8, 124, 6]


@pytest.mark.parametrize(
    "batch",
    [
        [[1, 0, 2]],             # a 0 inside a word
        [[2, 3], [1, 0], [0, 4]],
        [[1, -2]],               # a negative letter
        [[1, 2], [0, 0]],        # an all-zero row
        [1, 2, 3],               # 1-D input
        [[[1, 2]]],              # 3-D input
        np.zeros((0, 3), dtype=np.int64),
    ],
)
def test_batch_kernels_reject_malformed(batch):
    with pytest.raises(ValueError):
        wp.perimeter_decomposed_batch(batch)
    with pytest.raises(ValueError):
        wp.perimeter_edge_count_batch(batch)
