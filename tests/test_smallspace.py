import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    canonical_relabel,
    closed_classes,
    closed_states,
    eig_stationary,
    enumerate_colorings,
    kernel_power,
    kron_product_kernel,
    lumped_kernel_by_class,
    mixture_step_kernel,
    orbit_classes,
    product_step_kernel,
    reachability,
    state_index,
    words_array,
)
from _tables import table_chain_kernel
from cutpaste.errors import TheoryRefusal, ValidationError
from cutpaste import projections
from cutpaste.lumped import _gth, _rank
from cutpaste.paintbox import Atomic, DirichletColumns, PermutationMix, StochasticMatrix
from cutpaste.partitions import Coloring


def eliminate(kernel: np.ndarray) -> np.ndarray:
    """The stationary law from the shared elimination over the whole
    matrix, run on a copy of it."""
    return _gth(np.array(kernel, dtype=float), kernel.shape[0] - 1)


def test_enumeration_order_and_index():
    cols = enumerate_colorings(2, 3)
    assert len(cols) == 9
    assert cols[0].word == (1, 1)
    assert cols[1].word == (1, 2)
    assert cols[-1].word == (3, 3)
    for i, c in enumerate(cols):
        assert state_index(c) == i
    w = words_array(3, 2)
    assert w.shape == (8, 3)
    assert list(w[5]) == [1, 0, 1]


def test_product_kernel_rows_stochastic():
    gen = np.random.default_rng(4)
    m = gen.random((3, 3)) + 0.1
    s = StochasticMatrix(m / m.sum(axis=0))
    kernel = product_step_kernel(s.entries, 3)
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
    # single-site kernel is the transposed matrix itself
    one = product_step_kernel(s.entries, 1)
    assert np.max(np.abs(one - s.entries.T)) < 1e-15


def test_exact_kernel_mixture_and_refusal():
    a = StochasticMatrix([[0.8, 0.3], [0.2, 0.7]])
    b = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    law = Atomic([a, b], [0.25, 0.75])
    kernel = table_chain_kernel(law, 2)
    manual = 0.25 * product_step_kernel(a.entries, 2) + 0.75 * product_step_kernel(b.entries, 2)
    assert np.max(np.abs(kernel - manual)) < 1e-15
    # a row-column exchangeable law with a density
    with pytest.raises(TheoryRefusal, match="^exact kernels need a finitely supported paintbox law$"):
        projections.projected_mixing_equivalence(DirichletColumns([[1.0, 1.0], [1.0, 1.0]]), 2, 2)


def test_kernel_power_matches_repeated_multiplication():
    gen = np.random.default_rng(9)
    m = gen.random((2, 2)) + 0.1
    s = StochasticMatrix(m / m.sum(axis=0))
    kernel = product_step_kernel(s.entries, 3)
    direct = np.eye(8)
    for _ in range(5):
        direct = direct @ kernel
    assert np.max(np.abs(kernel_power(kernel, 5) - direct)) < 1e-12
    assert np.max(np.abs(kernel_power(kernel, 0) - np.eye(8))) < 1e-15


def test_stationary_distribution_small_chain():
    # uniform permutation paintbox on k=2: states flip together or not,
    # stationary law is uniform over words reachable... use a strictly
    # positive mixture instead so the chain is ergodic on everything
    a = StochasticMatrix([[0.9, 0.2], [0.1, 0.8]])
    law = Atomic([a], [1.0])
    kernel = mixture_step_kernel(law, 2)
    pi = eliminate(kernel)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.max(np.abs(pi @ kernel - pi)) < 1e-10
    # cross-check against a long power of the kernel
    far = kernel_power(kernel, 400)
    assert np.max(np.abs(far[0] - pi)) < 1e-9


def test_stationary_distribution_rejects_reducible():
    law = PermutationMix(2, perms=[(1, 2)])  # identity only: nothing moves
    kernel = mixture_step_kernel(law.as_atomic(), 2)
    with pytest.raises(ValidationError):
        eliminate(kernel)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_product_kernel_bit_identical_to_site_loop(k, n):
    gen = np.random.default_rng(100 * k + n)
    m = gen.random((k, k)) + 0.05
    s = m / m.sum(axis=0)
    assert np.array_equal(kron_product_kernel(s, n), product_step_kernel(s, n))


@pytest.mark.parametrize("k, n", [(3, 3), (2, 6), (4, 3), (3, 1), (5, 2)])
def test_product_kernel_bit_identical_to_kron_powers(k, n):
    gen = np.random.default_rng(1000 * k + n)
    m = gen.random((k, k)) * (gen.random((k, k)) < 0.7) + np.eye(k)
    s = m / m.sum(axis=0)
    assert np.array_equal(product_step_kernel(s, n), kron_product_kernel(s, n))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_exact_kernel_is_the_weighted_sum_of_site_loops(k, n):
    # one table step from every start, unfolded onto the colorings
    gen = np.random.default_rng(10 * k + n)
    atoms = [m / m.sum(axis=0) for m in gen.random((3, k, k)) + 0.05]
    weights = np.array([0.5, 0.3, 0.2])
    want = sum(w * product_step_kernel(s, n) for s, w in zip(atoms, weights))
    got = table_chain_kernel(Atomic(atoms, weights), n)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_kernel_atom_of_weight_zero_adds_no_support(n):
    # the identity never moves; the positive atom would join every state
    law = Atomic([np.eye(2), np.full((2, 2), 0.5)], [1.0, 0.0])
    kernel = table_chain_kernel(law, n)
    assert np.array_equal(kernel > 0, np.eye(2**n, dtype=bool))
    with pytest.raises(ValidationError, match="unique"):
        eliminate(kernel)


def permuted_identity_blend(k: int, gamma: float) -> Atomic:
    """Uniform mixture of (1 - gamma) P + gamma J / k over the permutation
    matrices P (row-column exchangeable)."""
    atoms = []
    for perm in itertools.permutations(range(k)):
        atom = np.full((k, k), gamma / k)
        atom[list(perm), list(range(k))] += 1.0 - gamma
        atoms.append(atom)
    return Atomic(atoms, [1.0 / len(atoms)] * len(atoms))


def _random_positive_kernel(gen, size):
    m = gen.random((size, size)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


@pytest.mark.parametrize(
    "kernel",
    [
        *(_random_positive_kernel(np.random.default_rng(seed), size)
          for seed, size in [(1, 1), (2, 2), (3, 5), (4, 17), (5, 64), (6, 243)]),
        mixture_step_kernel(permuted_identity_blend(3, 0.2), 6),
        np.array([[1.0, 0.0], [1.0, 0.0]]),  # one transient state
    ],
    ids=["pos1", "pos2", "pos5", "pos17", "pos64", "pos243", "blend_k3_n6", "transient"],
)
def test_stationary_distribution_matches_eig_oracle(kernel):
    pi = eliminate(kernel)
    assert np.max(np.abs(pi - eig_stationary(kernel))) < 1e-12


def test_stationary_distribution_keeps_transient_states_at_zero():
    pi = eliminate(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert pi.tolist() == [1.0, 0.0]
    # states 2 and 4 leave the closed class {0, 1, 3} and never come back
    kernel = np.array([
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.2, 0.0, 0.8, 0.0],
        [0.1, 0.0, 0.3, 0.2, 0.4],
        [0.7, 0.0, 0.0, 0.3, 0.0],
        [0.0, 0.0, 0.9, 0.0, 0.1],
    ])
    pi = eliminate(kernel)
    assert pi[2] == 0.0 and pi[4] == 0.0
    assert np.max(np.abs(pi - eig_stationary(kernel))) < 1e-15


def test_stationary_distribution_refuses_a_transient_state_0():
    # one closed class, {1}, which state 0 leaves for good
    with pytest.raises(ValidationError, match="state 1 does not reach state 0"):
        eliminate(np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_stationary_distribution_refuses_identity():
    with pytest.raises(ValidationError, match="not certified unique"):
        eliminate(np.eye(4))


def test_stationary_distribution_refuses_two_closed_classes():
    # state 0 feeds the closed classes {1, 2} and {3, 4}: state 4 reaches
    # only state 3, and state 3 nothing below it
    kernel = np.zeros((5, 5))
    kernel[0] = [0.2, 0.3, 0.1, 0.4, 0.0]
    kernel[1:3, 1:3] = [[0.3, 0.7], [0.6, 0.4]]
    kernel[3:, 3:] = [[0.1, 0.9], [0.55, 0.45]]
    with pytest.raises(ValidationError, match="state 3 does not reach state 0: .* not certified unique"):
        eliminate(kernel)
    # with no transient state, the second class is {2, 3}
    with pytest.raises(ValidationError, match="state 2 does not reach state 0: .* not certified unique"):
        eliminate(kernel[1:, 1:])


def _stochastic(zeros: bool):
    entry = st.floats(0.01, 1.0)
    if zeros:
        entry = st.one_of(st.just(0.0), entry)
    return st.integers(1, 6).flatmap(
        lambda size: arrays(float, (size, size), elements=entry)
    ).map(_normalize_rows)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    m = m.copy()
    empty = m.sum(axis=1) == 0
    m[empty, empty] = 1.0  # an all-zero row becomes absorbing
    return m / m.sum(axis=1, keepdims=True)


def _assert_stationary(pi: np.ndarray, kernel: np.ndarray) -> None:
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.max(np.abs(pi @ kernel - pi)) <= 1e-10


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_stochastic(zeros=False))
def test_stationary_distribution_property_positive(kernel):
    _assert_stationary(eliminate(kernel), kernel)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_stochastic(zeros=True))
def test_stationary_distribution_property_answers_iff_one_closed_class(kernel):
    # listed from a state of a closed class, the chain answers iff that
    # class is its only one
    first = np.flatnonzero(closed_states(kernel))[0]
    order = np.r_[first, np.delete(np.arange(len(kernel)), first)]
    kernel = kernel[np.ix_(order, order)]
    if closed_classes(kernel) == 1:
        _assert_stationary(eliminate(kernel), kernel)
    else:
        with pytest.raises(ValidationError, match="not certified unique"):
            eliminate(kernel)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_stochastic(zeros=True))
def test_elimination_answers_iff_every_state_reaches_state_0(kernel):
    if reachability(kernel)[:, 0].all():
        pi = eliminate(kernel)
        _assert_stationary(pi, kernel)
        assert np.all(pi[~closed_states(kernel)] == 0.0)
    else:
        with pytest.raises(ValidationError, match="not certified unique"):
            eliminate(kernel)


def test_canonical_relabel_and_classes():
    assert canonical_relabel((2, 2, 3, 1)) == (1, 1, 2, 3)
    assert canonical_relabel((1, 1, 1)) == (1, 1, 1)
    labels, reps = orbit_classes(3, 2)
    # 8 words fall into 4 orbits under swapping the two colors
    assert len(reps) == 4
    assert reps[0] == (1, 1, 1)
    for i, c in enumerate(enumerate_colorings(3, 2)):
        assert reps[labels[i]] == canonical_relabel(c.word)
    swapped = {1: 2, 2: 1}
    for i, c in enumerate(enumerate_colorings(3, 2)):
        mirror = Coloring(3, 2, tuple(swapped[v] for v in c.word))
        assert labels[i] == labels[state_index(mirror)]


@pytest.mark.parametrize(
    "n,k", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (5, 3), (6, 3), (4, 5), (8, 2)]
)
def test_projection_classes_match_word_by_word_relabeling(n, k):
    # `project` labels a start's tables by the multiset of their columns;
    # word by word, the blocks of the relabeled word y, each counted in every
    # color class of the start x, must group the words alike: two words
    # share an orbit under the site permutations that keep x's classes
    # exactly when their blocks meet the classes in the same counts
    w = words_array(n, k)
    for parts in projections._starts(n, k):
        start = np.repeat(np.arange(len(parts)), parts)
        shape = [math.comb(s + k - 1, k - 1) for s in parts]
        labels, sizes = projections._orbits(parts, k, np.ones(shape))
        count = len(sizes)
        tables = ((start[:, None] == np.arange(len(parts)))[None, :, :, None]
                  & (w[:, :, None, None] == np.arange(k))).sum(axis=1)
        got = labels[np.ravel_multi_index(tuple(_rank(tables[:, c]) for c in range(len(parts))), shape)]
        want = []
        for word in w.tolist():
            blocks = np.array(canonical_relabel(tuple(word)))
            profiles = Counter(tuple(int(np.sum((start == c) & (blocks == b))) for c in range(len(parts)))
                               for b in set(blocks.tolist()))
            want.append(frozenset(profiles.items()))
        assert len(set(got.tolist())) == count == len(set(want))
        assert len(set(zip(got.tolist(), want))) == count, parts


def test_lumped_kernel_row_sums_and_consistency():
    # a permutation-invariant law projects cleanly onto orbits
    law = PermutationMix(2)
    kernel = mixture_step_kernel(law.as_atomic(), 3)
    labels, reps = orbit_classes(3, 2)
    lumped = lumped_kernel_by_class(kernel, labels)
    assert lumped.shape == (4, 4)
    assert np.allclose(lumped.sum(axis=1), 1.0, atol=1e-12)

    # a lopsided point mass is not lumpable over color orbits: (1,1,2) and
    # its mirror (2,2,1) send different mass to the constant-word orbit
    skew = Atomic([StochasticMatrix([[0.9, 0.2], [0.1, 0.8]])], [1.0])
    with pytest.raises(ValueError):
        lumped_kernel_by_class(mixture_step_kernel(skew, 3), labels)
