import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpaste.partitions import (
    Coloring,
    PartitionMatrix,
    ValidationError,
    act,
    colorings_to_matrix,
    full_mask,
    identity_matrix,
    mask_to_sites,
    matmul,
    matrix_to_colorings,
    project,
)

from _oracles import sites_to_mask

# ---------------------------------------------------------------------------
# Independent oracle on plain Python sets. Everything here is written against
# the definitions directly, using frozensets instead of bitmasks, so agreement
# with the bitmask implementation is a real check and not a tautology.


def cells_as_sets(m):
    return [
        [frozenset(mask_to_sites(m.cells[i][j])) for j in range(m.k)]
        for i in range(m.k)
    ]


def oracle_matmul(a_sets, b_sets, k):
    return [
        [
            frozenset().union(*(a_sets[i][l] & b_sets[l][j] for l in range(k)))
            for j in range(k)
        ]
        for i in range(k)
    ]


def oracle_act(m_sets, word, k):
    out = {}
    for site, color in enumerate(word, start=1):
        j = color - 1
        hits = [i for i in range(k) if site in m_sets[i][j]]
        assert len(hits) == 1
        out[site] = hits[0] + 1
    return tuple(out[s] for s in sorted(out))


def random_matrix(rng, n, k):
    cells = [[0] * k for _ in range(k)]
    for j in range(k):
        for site in range(n):
            i = rng.randrange(k)
            cells[i][j] |= 1 << site
    return PartitionMatrix(n, k, tuple(tuple(row) for row in cells))


def random_coloring(rng, n, k):
    return Coloring(n, k, tuple(rng.randrange(1, k + 1) for _ in range(n)))


def all_matrices(n, k):
    for assignment in itertools.product(
        itertools.product(range(k), repeat=n), repeat=k
    ):
        cells = [[0] * k for _ in range(k)]
        for j, col in enumerate(assignment):
            for site, i in enumerate(col):
                cells[i][j] |= 1 << site
        yield PartitionMatrix(n, k, tuple(tuple(row) for row in cells))


# ---------------------------------------------------------------------------
# Mask helpers.


def test_mask_round_trip():
    assert sites_to_mask([]) == 0
    assert sites_to_mask([1, 3, 4]) == 0b1101
    assert mask_to_sites(0b1101) == (1, 3, 4)
    assert full_mask(5) == 0b11111
    rng = random.Random(20)
    for _ in range(200):
        sites = sorted(rng.sample(range(1, 64), rng.randrange(0, 12)))
        assert list(mask_to_sites(sites_to_mask(sites))) == sites


# ---------------------------------------------------------------------------
# Coloring basics.


def test_coloring_classes_round_trip():
    x = Coloring.from_word([1, 3, 2, 2, 3], k=3)
    assert x.classes() == (0b00001, 0b01100, 0b10010)
    assert Coloring.from_classes(x.classes()) == x
    assert x.counts() == (1, 2, 2)


def test_coloring_string_round_trip():
    rng = random.Random(77)
    for _ in range(200):
        k = rng.randrange(1, 17)
        n = rng.randrange(1, 30)
        x = random_coloring(rng, n, k)
        assert Coloring.from_string(x.to_string(), k) == x
    y = Coloring.from_word([1, 10, 16], k=16)
    assert y.to_string() == "1AG"
    every = Coloring.from_word(range(16, 0, -1), k=16)
    assert every.to_string() == "GFEDCBA987654321"
    assert Coloring.from_string(every.to_string(), 16) == every


def test_coloring_validation():
    with pytest.raises(ValidationError):
        Coloring(3, 2, (1, 2, 3))
    with pytest.raises(ValidationError):
        Coloring(2, 2, (1,))
    with pytest.raises(ValidationError):
        Coloring(1, 17, (1,))
    with pytest.raises(ValidationError):
        Coloring.from_classes((0b01, 0b01))
    with pytest.raises(ValidationError):
        Coloring.from_string("1@2", k=3)


@pytest.mark.parametrize("word, bad", [
    ((1, 2, 0, 4), "0"), ((3, 3, 1), "3"), ((1, math.nan, 2), "nan"), ((math.nan, 1, 2), "nan"),
    ((1, 1.5, 2), "1.5"),
])
def test_coloring_names_its_first_color_outside_the_range(word, bad):
    # a color is one of the integers 1..k: NaN and non-integral numbers are
    # refused wherever they sit in the word
    with pytest.raises(ValidationError) as exc:
        Coloring(len(word), 2, word)
    assert (str(exc.value), exc.value.field) == (f"color {bad} outside 1..2", "word")


def test_matrix_validation():
    # overlapping cells in a column
    with pytest.raises(ValidationError):
        PartitionMatrix(2, 2, ((0b11, 0b11), (0b01, 0b00)))
    # column not covering all sites
    with pytest.raises(ValidationError):
        PartitionMatrix(2, 2, ((0b01, 0b11), (0b00, 0b00)))
    # ragged cells
    with pytest.raises(ValidationError):
        PartitionMatrix(2, 2, ((0b11,), (0b00, 0b11)))


# ---------------------------------------------------------------------------
# Exhaustive monoid checks at n=2, k=2 (16 matrices, 4 colorings).


def test_exhaustive_small_monoid():
    mats = list(all_matrices(2, 2))
    assert len(mats) == 16
    cols = [Coloring(2, 2, w) for w in itertools.product((1, 2), repeat=2)]
    ident = identity_matrix(2, 2)

    for a in mats:
        assert matmul(ident, a) == a
        assert matmul(a, ident) == a
        for x in cols:
            got = act(a, x)
            assert got.word == oracle_act(cells_as_sets(a), x.word, 2)

    for a, b in itertools.product(mats, repeat=2):
        ab = matmul(a, b)
        assert cells_as_sets(ab) == oracle_matmul(cells_as_sets(a), cells_as_sets(b), 2)
        for x in cols:
            assert act(ab, x) == act(a, act(b, x))

    for a, b, c in itertools.product(mats, repeat=3):
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


# ---------------------------------------------------------------------------
# Randomized checks at realistic sizes.


def test_random_product_matches_oracle():
    rng = random.Random(101)
    for _ in range(300):
        k = rng.randrange(1, 7)
        n = rng.randrange(1, 40)
        a = random_matrix(rng, n, k)
        b = random_matrix(rng, n, k)
        ab = matmul(a, b)
        assert cells_as_sets(ab) == oracle_matmul(cells_as_sets(a), cells_as_sets(b), k)


def test_random_action_matches_oracle_and_is_compatible():
    rng = random.Random(202)
    for _ in range(300):
        k = rng.randrange(1, 7)
        n = rng.randrange(1, 40)
        a = random_matrix(rng, n, k)
        b = random_matrix(rng, n, k)
        x = random_coloring(rng, n, k)
        assert act(a, x).word == oracle_act(cells_as_sets(a), x.word, k)
        assert act(matmul(a, b), x) == act(a, act(b, x))
        assert act(identity_matrix(n, k), x) == x


def test_random_associativity():
    rng = random.Random(303)
    for _ in range(100):
        k = rng.randrange(2, 6)
        n = rng.randrange(1, 25)
        a, b, c = (random_matrix(rng, n, k) for _ in range(3))
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


# ---------------------------------------------------------------------------
# Identification of matrices with k-tuples of colorings.


def test_matrix_coloring_identification():
    rng = random.Random(404)
    for _ in range(100):
        k = rng.randrange(1, 6)
        n = rng.randrange(1, 20)
        m = random_matrix(rng, n, k)
        cols = matrix_to_colorings(m)
        assert colorings_to_matrix(cols) == m
        # column j of a product is the action of a on column j of b
        a = random_matrix(rng, n, k)
        prod_cols = matrix_to_colorings(matmul(a, m))
        for j in range(k):
            assert prod_cols[j] == act(a, cols[j])


# ---------------------------------------------------------------------------
# Projection.


def test_project_forgets_labels_only():
    x = Coloring.from_word([1, 2, 2, 3], k=3)
    y = Coloring.from_word([3, 1, 1, 2], k=3)  # same blocks, relabeled
    z = Coloring.from_word([1, 2, 2, 1], k=3)
    assert project(x) == project(y)
    assert project(x) != project(z)
    assert project(x).to_lists() == [[1], [2, 3], [4]]
    assert project(Coloring.constant(5, 4, 2)).block_count() == 1


# ---------------------------------------------------------------------------
# Monoid laws and round trips as properties, at pinned examples.

_PINNED = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _words(draw, n, k, count):
    return [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) for _ in range(count)]


def _matrix(n, k, columns):
    """The partition matrix whose column j sends site s to row columns[j][s]."""
    cells = [[0] * k for _ in range(k)]
    for j, col in enumerate(columns):
        for site, i in enumerate(col):
            cells[i][j] |= 1 << site
    return PartitionMatrix(n, k, tuple(tuple(row) for row in cells))


@st.composite
def _monoid_cases(draw):
    """(a, b, c, xs): three partition matrices and k colorings, all of one
    [n] and k."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 16))
    a, b, c = (_matrix(n, k, _words(draw, n, k, k)) for _ in range(3))
    xs = tuple(Coloring(n, k, tuple(v + 1 for v in word)) for word in _words(draw, n, k, k))
    return a, b, c, xs


@_PINNED
@given(_monoid_cases())
def test_matmul_is_associative_with_identity(case):
    a, b, c, _ = case
    one = identity_matrix(a.n, a.k)
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
    assert matmul(one, a) == a == matmul(a, one)


@_PINNED
@given(_monoid_cases())
def test_act_of_a_product_is_the_composed_action(case):
    a, b, _, (x, *_) = case
    assert act(matmul(a, b), x) == act(a, act(b, x))
    assert act(identity_matrix(x.n, x.k), x) == x


@_PINNED
@given(_monoid_cases())
def test_matrices_and_column_colorings_round_trip(case):
    a, _, _, xs = case
    assert colorings_to_matrix(matrix_to_colorings(a)) == a
    assert matrix_to_colorings(colorings_to_matrix(xs)) == xs
