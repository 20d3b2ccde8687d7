"""The batched count-law kernel against one-at-a-time oracles.

Conditional TVs and atom-sequence mixtures run through one stacked
multinomial pmf; each is checked here against a loop over replicates or
sequences in _oracles.py, to 1e-12. The binomial case (two colors, one
differing cell) takes the windowed Scheffe sum of exact._binomial_tvs,
checked against exact rationals, scipy's pmfs and the dense kernel. Both
take their coefficients from lumped._log_multinomials, checked against
40-digit mpmath.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    atomic_tv,
    binomial_tv_fraction,
    binomial_tvs,
    conditional_tvs,
    joint_product_tvs,
    log_multinomial_mp,
    refinement_cells,
    stirlerr_mp,
)
from cutpaste import lumped
from cutpaste.errors import BudgetRefusal
from cutpaste.paintbox import Atomic, PointMass, SelfSimilar
from cutpaste.partitions import Coloring
from cutpaste.tvlab import (
    ProductMultinomialLaw,
    batched_products,
    make_constant_pair,
    make_test_pair,
    tv_exact_atomic,
    tv_exact_product_multinomial,
    tv_upper_mc,
)
from cutpaste.tvlab import exact

TOL = 1e-12

IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
ONE_SIDED = [[1.0, 0.3], [0.0, 0.7]]  # p = 1 in column 1
RANK_ONE = [[0.3, 0.3], [0.7, 0.7]]  # equal columns: p = q
# per replicate at m = 1: p, q in {0, 1}; p = 1 against an interior q; p = q
EDGE_K2 = Atomic([IDENTITY, ONE_SIDED, RANK_ONE], [0.3, 0.3, 0.4])
ZERO_K3 = Atomic(
    [
        [[1.0, 0.2, 0.0], [0.0, 0.8, 0.5], [0.0, 0.0, 0.5]],
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5], [0.3, 0.3, 0.3]],
    ],
    [0.3, 0.4, 0.3],
)
TWO_ATOM_K3 = Atomic(
    [
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ],
    [0.4, 0.6],
)


def _pair(design, n, k):
    if design == "constant":
        return make_constant_pair(n, k)
    if design == "block":
        return make_test_pair(n, k)
    if design == "unequal":
        # refinement cells (1,1) x1, (1,2) x5, (2,2) x2, (2,3) x1, (3,1) x3
        # in first-occurrence order: joint sizes 3, 21, 6, 3, 10 at k = 3
        assert (n, k) == (12, 3)
        return (Coloring(12, 3, (1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
                Coloring(12, 3, (1, 2, 2, 2, 2, 2, 2, 2, 3, 1, 1, 1)))
    rng = np.random.default_rng(n * 10 + k)
    words = rng.integers(1, k + 1, size=(2, n))
    return Coloring(n, k, tuple(map(int, words[0]))), Coloring(n, k, tuple(map(int, words[1])))


CONDITIONAL_CASES = [
    pytest.param(SelfSimilar([1.0, 1.0]), "constant", 1, 3, 50, id="k2-n1"),
    pytest.param(SelfSimilar([1.0, 1.0]), "general", 7, 2, 40, id="k2-general"),
    pytest.param(EDGE_K2, "constant", 9, 1, 60, id="k2-edge-columns"),
    pytest.param(PointMass(RANK_ONE), "general", 6, 2, 5, id="k2-rank-one"),
    pytest.param(SelfSimilar([1.0, 1.0]), "block", 8, 2, 30, id="k2-block"),
    pytest.param(SelfSimilar([1.0, 1.0, 1.0]), "constant", 1, 2, 30, id="k3-n1"),
    pytest.param(SelfSimilar([0.5, 1.0, 2.0]), "general", 6, 3, 30, id="k3-general"),
    pytest.param(ZERO_K3, "general", 5, 1, 40, id="k3-zero-entries"),
    pytest.param(ZERO_K3, "block", 12, 2, 20, id="k3-block"),
    pytest.param(TWO_ATOM_K3, "constant", 10, 4, 1, id="k3-R1"),
]


@pytest.mark.parametrize("law, design, n, m, reps", CONDITIONAL_CASES)
def test_conditional_tvs_match_per_replicate_oracle(law, design, n, m, reps):
    x, y = _pair(design, n, law.k)
    qs = batched_products(law, m, reps, 17)
    want = conditional_tvs(qs, x.word, y.word)
    got = exact._conditional_tvs(qs, x, y)
    assert np.max(np.abs(got - want)) < TOL
    up = tv_upper_mc(law, x, y, m, reps, 17)
    assert abs(up.value - min(want.mean(), 1.0)) < TOL
    want_se = want.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    assert abs(up.mc_std_error - want_se) < TOL


@pytest.mark.parametrize("n", [1, 2, 37, 400])
@pytest.mark.parametrize("law", [SelfSimilar([1.0, 1.0]), EDGE_K2], ids=["smooth", "edge"])
def test_binomial_case_matches_dense_oracle(law, n):
    x, y = make_constant_pair(n, 2)
    qs = batched_products(law, 2, 200, 3)
    want = binomial_tvs(qs[:, 0, 0], qs[:, 0, 1], n)
    assert np.max(np.abs(exact._conditional_tvs(qs, x, y) - want)) < TOL


def _dense_binomial_tvs(p, q, n):
    """The general multinomial kernel on one cell of n sites, k = 2."""
    rows_p = exact._joint_pmfs(np.stack([p, 1.0 - p], axis=1)[:, :, None], [n])
    rows_q = exact._joint_pmfs(np.stack([q, 1.0 - q], axis=1)[:, :, None], [n])
    return 0.5 * np.abs(rows_p - rows_q).sum(axis=1)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 40, 64])
def test_binomial_tvs_match_exact_rationals(n):
    qs = batched_products(SelfSimilar([1.0, 1.0]), 2, 30, n)
    p, q = qs[:, 0, 0], qs[:, 0, 1]
    want = np.array([binomial_tv_fraction(a, b, n) for a, b in zip(p, q)])
    assert np.max(np.abs(exact._binomial_tvs(p, q, n) - want)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 37, 400, 2048, 4096])
def test_binomial_tvs_match_log_safe_oracle(n):
    # the dense kernel's own error sets the bar: both kernels add log-pmf
    # terms x log p and (n - x) log(1 - p) of size up to about n, so a pmf
    # rounds at about n u relative (u = 2^-53; 4096 u = 4.5e-13)
    qs = batched_products(SelfSimilar([1.0, 1.0]), 2, 200, 3)
    p, q = qs[:, 0, 0], qs[:, 0, 1]
    want = binomial_tvs(p, q, n)
    err = np.max(np.abs(exact._binomial_tvs(p, q, n) - want))
    dense_err = np.max(np.abs(_dense_binomial_tvs(p, q, n) - want))
    assert err < (1e-12 if n <= 400 else 3e-12)
    assert err <= dense_err + 1e-15


@pytest.mark.parametrize(
    "p, q, n",
    [
        pytest.param(0.0, 1.0, 9, id="both-extremes"),
        pytest.param(1.0, 0.0, 9, id="both-extremes-swapped"),
        pytest.param(0.0, 0.3, 9, id="p-zero"),
        pytest.param(0.7, 1.0, 9, id="q-one"),
        pytest.param(0.0, 0.0, 9, id="both-zero"),
        pytest.param(1.0, 1.0, 9, id="both-one"),
        pytest.param(0.3, 0.3, 9, id="equal"),
        pytest.param(0.8, 0.35, 12, id="p-above-q"),
        pytest.param(0.25, 0.6, 1, id="n1"),
        # unrounded crossings 0.19 and 49.8 of 50
        pytest.param(1e-4, 0.02, 50, id="crossing-at-0"),
        pytest.param(0.98, 0.9999, 50, id="crossing-at-n-1"),
        pytest.param(0.3, 0.3 + 1e-12, 64, id="gap-1e-12"),
        pytest.param(0.5, 0.5 - 1e-12, 64, id="gap-1e-12-center"),
        # both laws are the point mass at 0
        pytest.param(0.3, 0.6, 0, id="n0"),
    ],
)
def test_binomial_tvs_edges_match_exact_rationals(p, q, n):
    got = exact._binomial_tvs(np.array([p, q]), np.array([q, p]), n)
    assert got[0] == got[1]
    want = binomial_tv_fraction(p, q, n)
    assert abs(got[0] - want) < 1e-14
    if p == q or n == 0:
        assert got[0] == 0.0
    laws = [ProductMultinomialLaw(((n, (s, 1.0 - s)),)) for s in (p, q)]
    assert abs(tv_exact_product_multinomial(*laws).value - want) < 1e-14


@pytest.mark.parametrize(
    "p, q",
    [(0.2, 0.8), (0.45, 0.55), (0.001, 0.999), (0.49, 0.51), (0.03, 0.0301)],
    ids=["far", "near-center", "extremes", "close", "tiny-p"],
)
def test_binomial_tvs_at_large_n_match_log_safe_oracle(p, q):
    # at n = 4096 the window holds 586 of 4097 counts, so for far-apart
    # pairs most of both laws' mass lies outside it; at n = 10^5 the
    # coefficient table takes O(n), not the O(n^2) of exact integers
    for n in (4096, 10**5):
        got = exact._binomial_tvs(np.array([p]), np.array([q]), n)
        assert abs(got[0] - binomial_tvs([p], [q], n)[0]) < 3e-12, n


def test_binomial_tvs_clip_the_window_at_both_ends():
    n = 400
    p = np.array([0.0, 1e-3, 0.02, 0.98, 0.999, 1.0])
    q = np.array([0.01, 0.004, 0.05, 0.95, 0.99, 0.97])
    assert np.max(np.abs(exact._binomial_tvs(p, q, n) - binomial_tvs(p, q, n))) < 1e-12


@pytest.mark.parametrize(
    "p, q",
    [
        # unrounded crossings 0 (p = 0), 0.13 and 37.4 of 2048: the lower
        # half window runs past 0
        pytest.param(0.0, 1e-3, id="p-zero"),
        pytest.param(1e-5, 2e-4, id="crossing-at-0"),
        pytest.param(0.01, 0.03, id="crossing-near-0"),
        # unrounded crossings 2010.6, 2047.9 and none (q = 1, taken as
        # n - 1): the upper half window runs past n
        pytest.param(0.97, 0.99, id="crossing-near-n"),
        pytest.param(1.0 - 2e-4, 1.0 - 1e-5, id="crossing-at-n-1"),
        pytest.param(0.999, 1.0, id="q-one"),
    ],
)
def test_binomial_half_windows_past_both_ends_match_log_safe_oracle(p, q):
    got = exact._binomial_tvs(np.array([p, q]), np.array([q, p]), 2048)
    assert got[0] == got[1]
    assert abs(got[0] - binomial_tvs([p], [q], 2048)[0]) < 3e-12


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 400),
)
def test_binomial_tvs_property(p, q, n):
    pq = exact._binomial_tvs(np.array([p]), np.array([q]), n)[0]
    qp = exact._binomial_tvs(np.array([q]), np.array([p]), n)[0]
    assert pq == qp
    assert 0.0 <= pq <= 1.0
    dense = _dense_binomial_tvs(np.array([p]), np.array([q]), n)[0]
    assert abs(pq - dense) < 1e-12


def test_refinement_cells_match_site_loop():
    rng = np.random.default_rng(5)
    for n, k in [(1, 1), (1, 2), (7, 2), (40, 3), (300, 5), (2048, 2)]:
        words = rng.integers(1, k + 1, size=(2, n))
        x, y = (Coloring(n, k, tuple(map(int, w))) for w in words)
        assert list(exact._refinement_cells(x, y)) == refinement_cells(x.word, y.word)
    x, y = make_test_pair(24, 3)
    assert list(exact._refinement_cells(x, y)) == refinement_cells(x.word, y.word)
    x, y = make_constant_pair(10, 4, 3, 1)
    assert list(exact._refinement_cells(x, y)) == [(3, 1, 10)]


def test_refinement_cells_are_computed_once_per_pair():
    x, y = make_test_pair(24, 3)
    exact._refinement_cells.cache_clear()
    cells = list(exact._refinement_cells(x, y))
    cells.append((0, 0, 0))
    # an equal pair built anew hits the same entry, which a change to a
    # caller's copy leaves as it was
    again = list(exact._refinement_cells(*make_test_pair(24, 3)))
    assert again == refinement_cells(x.word, y.word)
    assert exact._refinement_cells.cache_info().misses == 1


def test_edge_columns_give_exact_extremes():
    # identity: disjoint supports; rank one: equal laws
    x, y = make_constant_pair(5, 2)
    qs = np.array([IDENTITY, RANK_ONE])
    assert exact._conditional_tvs(qs, x, y).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
@pytest.mark.parametrize(
    "law, design, n",
    [
        pytest.param(Atomic([ONE_SIDED, [[0.6, 0.45], [0.4, 0.55]]], [0.5, 0.5]), "general", 5, id="k2-general"),
        pytest.param(EDGE_K2, "block", 8, id="k2-block"),
        pytest.param(TWO_ATOM_K3, "constant", 4, id="k3-constant"),
        pytest.param(ZERO_K3, "general", 4, id="k3-zero-rank-one"),
        # nine cells, joint size 6^3 * 3^6 = 157,464
        pytest.param(TWO_ATOM_K3, "block", 12, id="k3-block-nine-cells"),
        pytest.param(ZERO_K3, "unequal", 12, id="k3-unequal-cells"),
    ],
)
def test_atomic_matches_per_sequence_oracle(law, design, n, m):
    x, y = _pair(design, n, law.k)
    atomic = law.as_atomic()
    atoms = [a.entries for a in atomic.atoms]
    want = atomic_tv(atoms, list(atomic.weights), x.word, y.word, m)
    assert abs(tv_exact_atomic(law, x, y, m).value - want) < TOL


def test_balanced_split_of_the_oracle_pairs():
    # the oracle's nine-cell block pair splits after 4 of its cells (324 x
    # 486), and its unequal-cell pair mid-list, after 2 of 5 (63 x 180)
    for design, sizes, split in [("block", [2, 1, 1, 2, 1, 1, 2, 1, 1], 4), ("unequal", [1, 5, 2, 1, 3], 2)]:
        x, y = _pair(design, 12, 3)
        assert [c for _, _, c in exact._refinement_cells(x, y)] == sizes
        assert exact._balanced_split(sizes, 3) == split
    assert exact._balanced_split([40], 3) == 0


def _mixed_cells(design, n, k):
    """The pair's refinement cells where its starts differ: their colors in
    each start (0-based) and their sizes."""
    x, y = _pair(design, n, k)
    return map(list, zip(*((a - 1, b - 1, c) for a, b, c in exact._refinement_cells(x, y) if a != b)))


def _cell_laws(cols, sizes):
    return [np.exp(exact._count_logpmf(cols[:, :, b], size)) for b, size in enumerate(sizes)]


SPLIT_CASES = [("block", 12, 3), ("general", 8, 3), ("unequal", 12, 3), ("general", 6, 4),
               ("block", 24, 3), ("general", 5, 5), ("block", 12, 2)]


@pytest.mark.parametrize("design, n, k", SPLIT_CASES)
def test_split_product_tvs_match_the_joint_product_oracle(design, n, k):
    # the same cell laws, multiplied out into each law's whole joint law by
    # the oracle: the split's rank-2 product rounds each entry of the
    # difference in another order, so a TV may move by a few ulps of the
    # laws' mass 1 (2 the most seen), however small the TV
    col_a, col_b, sizes = _mixed_cells(design, n, k)
    assert len(sizes) > 1
    for nu in (1.0, 0.3):
        qs = batched_products(SelfSimilar([nu] * k), 2, 40, n + k)
        cols_p, cols_q = qs[:, :, col_a], qs[:, :, col_b]
        got = exact._product_tvs(cols_p, cols_q, sizes)
        want = joint_product_tvs(_cell_laws(cols_p, sizes), _cell_laws(cols_q, sizes))
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("design, n, k", SPLIT_CASES)
@pytest.mark.parametrize("budget", [None, 5])
def test_split_product_tv_rows_keep_their_bits_in_any_chunk(monkeypatch, cache_budget, design, n, k, budget):
    # a whole chunk of other rows put before the stack moves each row to the
    # same place in another chunk, beside other rows; a budget of 5 joint
    # arrays gives sub-chunks of 5 rows, so a chunk holds several
    col_a, col_b, sizes = _mixed_cells(design, n, k)
    if budget is not None:
        cache_budget(budget * exact._statistic_size(sizes, k))
    chunks = []
    chunk_tvs = exact._chunk_tvs
    monkeypatch.setattr(exact, "_chunk_tvs", lambda p, *args: chunks.append(len(p)) or chunk_tvs(p, *args))
    law = TWO_ATOM_K3 if k == 3 else SelfSimilar([1.0] * k)
    qs = batched_products(law, 2, 23, 7)
    cols_p, cols_q = qs[:, :, col_a], qs[:, :, col_b]
    full = exact._product_tvs(cols_p, cols_q, sizes)
    rows = chunks[0]
    other = batched_products(law, 3, rows, 8)
    shifted = exact._product_tvs(np.concatenate((other[:, :, col_a], cols_p)),
                                 np.concatenate((other[:, :, col_b], cols_q)), sizes)
    assert shifted[rows:].tobytes() == full.tobytes()
    for r in (1, 6, 22):
        assert exact._product_tvs(cols_p[:r], cols_q[:r], sizes).tobytes() == full[:r].tobytes(), r


def test_conditional_tvs_peak_memory_stays_in_cache(traced_peak):
    # the benchmark's tv_const_upper shape: one 48-site cell, 1225 count
    # vectors a replicate; one block of all 400 rows peaks near 15 MiB
    x, y = make_constant_pair(48, 3)
    qs = batched_products(TWO_ATOM_K3, 8, 400, 5)
    exact._conditional_tvs(qs[:1], x, y)
    assert traced_peak(exact._conditional_tvs, qs, x, y) < 2**20


def test_exact_atomic_peak_memory_stays_near_one_joint_array(traced_peak):
    # the benchmark's tv_block_exact pair at m = 2 holds one joint-size
    # difference array; joint pmf rows per sequence and two mixtures peak
    # near 7.4 joint arrays
    x, y = make_test_pair(12, 3)
    joint = exact._statistic_size([c for _, _, c in exact._refinement_cells(x, y)], 3)
    assert joint == 157_464
    tv_exact_atomic(TWO_ATOM_K3, x, y, 1)
    assert traced_peak(tv_exact_atomic, TWO_ATOM_K3, x, y, 2) < 3 * joint * 8


def test_chunked_stacks_match_one_block(cache_budget):
    # a budget of 1 gives one replicate or one atom sequence per chunk
    law = TWO_ATOM_K3
    x, y = _pair("general", 6, 3)
    qs = batched_products(law, 3, 50, 2)
    # one block of the 50 rows exactly: the last block is padded to the
    # budget's row count, so a larger budget would compute more rows
    size = exact._statistic_size([c for a, b, c in exact._refinement_cells(x, y) if a != b], 3)
    cache_budget(len(qs) * size)
    whole_rows = exact._conditional_tvs(qs, x, y)
    cache_budget(1 << 30)
    whole_atomic = tv_exact_atomic(law, x, y, 4).value
    cache_budget(1)
    assert np.max(np.abs(exact._conditional_tvs(qs, x, y) - whole_rows)) < TOL
    assert abs(tv_exact_atomic(law, x, y, 4).value - whole_atomic) < TOL


@pytest.mark.parametrize("design, n, reps", [("constant", 20, 200), ("constant", 48, 100), ("block", 12, 6)])
def test_conditional_tv_rows_keep_their_bits_in_every_prefix(design, n, reps):
    # one replicate must not read two values at two replicate counts: at
    # n = 48 (26-row chunks), prefixes of 1, 27, 53 and 79 rows left a
    # one-row last chunk, whose product went through gemv and moved that
    # row by an ulp
    x, y = _pair(design, n, 3)
    qs = batched_products(TWO_ATOM_K3, 3, reps, 29)
    full = exact._conditional_tvs(qs, x, y)
    for r in range(1, reps + 1):
        assert exact._conditional_tvs(qs[:r], x, y).tobytes() == full[:r].tobytes(), r


@pytest.mark.parametrize("n", [1, 48, 2048])
def test_binomial_window_chunks_keep_every_bit(monkeypatch, cache_budget, n):
    # rows are independent, so the chunk size cannot move a value
    gen = np.random.default_rng(n)
    p, q = gen.random(301), gen.random(301)
    p[:4], q[:4] = [0.0, 1.0, 0.5, 0.3], [1.0, 0.2, 0.5, 0.0]
    chunks = []
    row_chunks = exact._row_chunks

    def recording(*args):
        chunks.append(list(row_chunks(*args)))
        return chunks[-1]

    monkeypatch.setattr(exact, "_row_chunks", recording)
    split = exact._binomial_tvs(p, q, n)
    cache_budget(1)
    rows = exact._binomial_tvs(p, q, n)
    cache_budget(1 << 30)
    whole = exact._binomial_tvs(p, q, n)
    assert [len(c) for c in chunks[1:]] == [301, 1]
    assert len(chunks[0]) == (4 if n == 2048 else 1)
    assert whole.tobytes() == split.tobytes() == rows.tobytes()


def test_product_multinomial_tv_is_the_conditional_tv_row():
    # one kernel for both: on the same normalised columns, the law pair's TV
    # has the bits of the conditional TV of a one-row stack, for one cell
    # (the binomial path at k = 2) and for several
    rng = np.random.default_rng(35)
    for k in (2, 3):
        for design, n in [("constant", 30), ("general", 9), ("block", 12)]:
            x, y = _pair(design, n, k)
            cells = [(a - 1, b - 1, c) for a, b, c in exact._refinement_cells(x, y) if a != b]
            for _ in range(5):
                q = rng.random((k, k))
                q /= q.sum(axis=0)
                p_law = ProductMultinomialLaw(tuple((c, q[:, a]) for a, _, c in cells))
                q_law = ProductMultinomialLaw(tuple((c, q[:, b]) for _, b, c in cells))
                for (a, b, _), (_, col_p), (_, col_q) in zip(cells, p_law.blocks, q_law.blocks):
                    q[:, a], q[:, b] = col_p, col_q
                want = exact._conditional_tvs(q[None], x, y)[0]
                assert tv_exact_product_multinomial(p_law, q_law).value == want, (k, design)


def test_two_color_product_multinomial_tv_matches_mpmath():
    # one differing block at k = 2 takes the binomial path. Each log-pmf
    # sums terms of size about n, so its rounding is about n u relative
    # (u = 2^-53); log-factorial coefficients missed by 1e-14 .. 4e-13 here
    for n in (7, 40, 200, 1000):
        gap = n**-0.5
        for p, q in [(0.3, 0.45), (0.5, 0.52), (0.62, 0.6), (0.1, 0.9), (0.5 + gap / 2, 0.5 - gap / 2)]:
            p_law = ProductMultinomialLaw(((n, (p, 1 - p)),))
            q_law = ProductMultinomialLaw(((n, (q, 1 - q)),))
            with mpmath.workdps(40):
                a, b = (mpmath.mpf(law.blocks[0][1][0]) for law in (p_law, q_law))
                want = mpmath.fsum(abs(mpmath.binomial(n, x) * (a**x * (1 - a)**(n - x) - b**x * (1 - b)**(n - x)))
                                   for x in range(n + 1)) / 2
                got = tv_exact_product_multinomial(p_law, q_law).value
                assert abs(got - want) < n * 2**-53, (n, p, q)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 40, 1000, 10**5, 10**6])
def test_log_multinomials_match_mpmath(n, k):
    # each of the first k - 1 colors at 0, 1, the centre or n - 1 sites,
    # the last color the rest; the docstring's bound is 4 ulps
    levels = sorted({x for x in (0, 1, n // k, n - 1) if 0 <= x <= n})
    rows = [(*r, n - sum(r)) for r in itertools.product(levels, repeat=k - 1) if sum(r) <= n]
    got = lumped._log_multinomials(np.array(rows))
    for value, row in zip(got.tolist(), rows):
        if sum(c > 0 for c in row) <= 1:
            assert value == 0.0, row
            continue
        want = log_multinomial_mp(row)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(value) - want) <= 4 * np.spacing(float(want)), row


def test_stirlerr_literals_match_mpmath():
    # entry 0 is a placeholder: an empty color adds no Stirling rest
    assert lumped._STIRLERR[0] == 0.0
    assert lumped._STIRLERR[1:].tolist() == [float(stirlerr_mp(m)) for m in range(1, 16)]


def test_statistic_size_counts_compositions():
    for k in (1, 2, 3, 4):
        for size in (0, 1, 5, 12):
            assert exact._statistic_size([size], k) == lumped._compositions(size, k).shape[0]
    assert exact._statistic_size([3, 4], 3) == 10 * 15


def test_budget_refusals_report_the_same_sizes(enumeration_budget):
    # one mixed cell of 6400 sites at k = 3 holds C(6402, 2) count vectors,
    # past the default budget
    x, y = make_constant_pair(6400, 3)
    with pytest.raises(BudgetRefusal) as exc:
        tv_upper_mc(SelfSimilar([1.0, 1.0, 1.0]), x, y, 1, replicates=2, seed=0)
    assert exc.value.details["required"] == math.comb(6402, 2) == 20_489_601

    p = ProductMultinomialLaw(((30, (0.3, 0.3, 0.2, 0.2)),))
    q = ProductMultinomialLaw(((30, (0.25, 0.25, 0.25, 0.25)),))
    enumeration_budget(100)
    with pytest.raises(BudgetRefusal) as exc:
        tv_exact_product_multinomial(p, q)
    assert exc.value.details["required"] == 5456

    law = Atomic([IDENTITY, [[0.5, 0.5], [0.5, 0.5]]], [0.5, 0.5])
    x, y = make_constant_pair(6, 2)
    enumeration_budget(10)
    with pytest.raises(BudgetRefusal) as exc:
        tv_exact_atomic(law, x, y, 5)
    assert exc.value.details["required"] == 2**5 * 7
    enumeration_budget(224)
    assert tv_exact_atomic(law, x, y, 5).kind == "exact"

