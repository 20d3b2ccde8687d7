import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cutpaste.errors import ValidationError
from cutpaste.paintbox import (
    Atomic,
    DirichletColumns,
    PermutationMix,
    PointMass,
    SelfSimilar,
    StochasticMatrix,
    _atomic_rce,
    _column_stochastic,
    _merge_atoms,
    law_from_config,
)
from cutpaste.partitions import identity_matrix, mask_to_sites
from cutpaste.rng import RngStream
from cutpaste.tvlab.exact import ProductMultinomialLaw

from _oracles import (
    atomic_rce_loop,
    listed_permutation_draws,
    permutation_set_rce,
    sample_M_given_S,
    sample_S,
    uniform_matrix,
)


def test_stochastic_matrix_normalizes_and_protects():
    s = StochasticMatrix([[0.7, 0.2], [0.3, 0.8]])
    assert s.k == 2
    assert np.allclose(s.entries.sum(axis=0), 1.0, atol=1e-15)
    # near-1 column sums are renormalized, tiny negatives clipped
    s2 = StochasticMatrix([[0.7 + 3e-10, -1e-13], [0.3, 1.0]])
    assert np.all(s2.entries >= 0.0)
    assert np.allclose(s2.entries.sum(axis=0), 1.0, atol=1e-15)
    with pytest.raises(ValidationError):
        StochasticMatrix([[0.5, 0.5]])
    with pytest.raises(ValidationError):
        StochasticMatrix([[0.9, 0.2], [0.3, 0.8]])
    with pytest.raises(ValidationError):
        StochasticMatrix([[1.2, 0.2], [-0.2, 0.8]])
    with pytest.raises(ValidationError):
        Atomic([np.eye(2)], [0.9])


def test_stack_normalization_matches_one_matrix_at_a_time():
    gen = RngStream(8).generator()
    for k in (1, 2, 3, 5, 16):
        raw = gen.random((7, k, k)) + 1e-3
        raw[0, 0, 0] = 0.0 if k > 1 else 1.0
        raw /= raw.sum(axis=1, keepdims=True)
        raw[1, :, 0] += 4e-10 / k
        raw[2, 0, :] -= 5e-13
        stack = _column_stochastic(raw)
        for r, s in zip(raw, stack):
            assert StochasticMatrix(r).entries.tobytes() == s.tobytes()
    good = np.stack([np.eye(2)] * 3)
    for bad, text in ((np.nan, "finite"), (-1e-9, "negative"), (0.5, "column sums [1.5, 1.0]")):
        arr = good.copy()
        arr[1, 1, 0] = bad
        with pytest.raises(ValidationError, match=re.escape(text)):
            _column_stochastic(arr)


LAWS = [
    PointMass([[0.7, 0.2, 0.1], [0.3, 0.8, 0.0], [0.0, 0.0, 0.9]]),
    Atomic([np.eye(3), np.full((3, 3), 1 / 3), np.eye(3)[[1, 2, 0]]], [0.2, 0.5, 0.3]),
    PermutationMix(4),
    PermutationMix(3, [[2, 1, 3], [3, 1, 2]], [0.4, 0.6]),
    DirichletColumns([[1.0, 2.0, 0.5], [0.3, 1.0, 1.0], [2.0, 2.0, 2.0]]),
    SelfSimilar([0.5, 0.5]),
]


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
def test_sample_batch_is_the_draws_one_at_a_time(law):
    for m in (1, 2, 17):
        batched, single = RngStream(m).generator(), RngStream(m).generator()
        batch = law.sample_batch(batched, m)
        for drawn in batch:
            assert sample_S(law, single) == StochasticMatrix(drawn)
        assert batched.random() == single.random()
        one_by_one = RngStream(m).generator()
        raw = np.concatenate([law.sample_batch(one_by_one, 1) for _ in range(m)])
        assert raw.tobytes() == batch.tobytes()


def test_point_mass_sampling_is_exact():
    s = StochasticMatrix([[0.7, 0.2], [0.3, 0.8]])
    law = PointMass(s)
    assert sample_S(law, RngStream(1)) == s
    batch = law.sample_batch(RngStream(2), 5)
    assert batch.shape == (5, 2, 2)
    assert np.array_equal(batch[3], s.entries)


def test_atomic_frequencies_and_reproducibility():
    a = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
    b = uniform_matrix(2)
    law = Atomic([a, b], [0.3, 0.7])
    draws = law.sample_batch(RngStream(11), 100_000)
    freq = np.mean([np.array_equal(d, a.entries) for d in draws])
    sigma = math.sqrt(0.3 * 0.7 / 100_000)
    assert abs(freq - 0.3) < 3 * sigma
    again = law.sample_batch(RngStream(11), 100_000)
    assert np.array_equal(draws, again)
    other = law.sample_batch(RngStream(11).derive("replicate", 1), 100)
    assert not np.array_equal(draws[:100], other)


def test_dirichlet_means():
    law = SelfSimilar([1.0, 1.0, 1.0])
    draws = law.sample_batch(RngStream(21), 100_000)
    assert draws.shape == (100_000, 3, 3)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(draws >= 0.0)
    # Dirichlet(1,1,1) component variance is 1/18
    sigma = math.sqrt((1.0 / 18.0) / 100_000)
    assert np.max(np.abs(draws.mean(axis=0) - 1.0 / 3.0)) < 3 * sigma

    alpha_cols = [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.5, 1.0, 1.5]]
    law2 = DirichletColumns(alpha_cols)
    draws2 = law2.sample_batch(RngStream(22), 100_000)
    for j, alpha in enumerate(alpha_cols):
        alpha = np.array(alpha)
        a0 = alpha.sum()
        mean = alpha / a0
        var = alpha * (a0 - alpha) / (a0 * a0 * (a0 + 1.0))
        err = np.abs(draws2[:, :, j].mean(axis=0) - mean)
        assert np.all(err < 3 * np.sqrt(var / 100_000) + 1e-12)


def test_dirichlet_columns_that_underflow_land_on_a_vertex_at_the_right_rate():
    # every Gamma draw at parameters this small is exactly 0; such a column is
    # drawn as Gamma(a + 1) U^(1/a) in log space, which puts it on vertex i
    # with probability a_i / sum(a)
    law = DirichletColumns([[1e-300, 3e-300], [1.0, 2.0]])
    reps = 20_000
    draws = law.sample_batch(RngStream(24), reps)
    assert np.allclose(draws.sum(axis=1), 1.0)
    assert np.all((draws[:, :, 0] == 0.0) | (draws[:, :, 0] == 1.0))
    freq = np.mean(draws[:, 0, 0] == 1.0)
    assert abs(freq - 0.25) < 5 * math.sqrt(0.25 * 0.75 / reps)
    # parameters down to the smallest subnormal keep every entry finite
    tiny = DirichletColumns([[5e-324, 1e-310, 1e-300]] * 3).sample_batch(RngStream(25), 100)
    assert np.all(np.isfinite(tiny)) and np.allclose(tiny.sum(axis=1), 1.0)


def test_a_block_of_draws_is_single_draws_unless_columns_underflow():
    # sample_batch redraws underflowed columns after the whole batch, so
    # only then does a block of steps read the stream in another order than
    # one draw per step
    def differing(law):
        count = 0
        for seed in range(50):
            block = law.sample_batch(RngStream(seed).generator(), 4)
            gen = RngStream(seed).generator()
            singles = np.concatenate([law.sample_batch(gen, 1) for _ in range(4)])
            count += not np.array_equal(block, singles)
        return count

    assert differing(SelfSimilar([1e-3, 1e-3])) == 40
    assert differing(SelfSimilar([1.0, 1.0])) == 0
    assert differing(DirichletColumns([[0.5, 2.0], [1.0, 3.0]])) == 0


def test_dirichlet_draws_without_underflow_are_normalized_gammas():
    alpha_cols = [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.5, 1.0, 1.5]]
    law = DirichletColumns(alpha_cols)
    raw = RngStream(23).generator().standard_gamma(law.alpha, size=(50, 3, 3))
    assert np.array_equal(law.sample_batch(RngStream(23), 50), raw / raw.sum(axis=1, keepdims=True))


def test_permutation_mix_sampling():
    law = PermutationMix(3)
    draws = law.sample_batch(RngStream(31), 60_000)
    assert np.all(draws.sum(axis=1) == 1.0)
    assert np.all(draws.sum(axis=2) == 1.0)
    # all 6 permutations appear with frequency ~ 1/6
    keys = {}
    for d in draws:
        keys[d.argmax(axis=0).tobytes()] = keys.get(d.argmax(axis=0).tobytes(), 0) + 1
    assert len(keys) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) / 60_000)
    for count in keys.values():
        assert abs(count / 60_000 - 1 / 6) < 4 * sigma

    law2 = PermutationMix(2, perms=[[2, 1]])
    d2 = law2.sample_batch(RngStream(32), 4)
    assert np.array_equal(d2[0], [[0.0, 1.0], [1.0, 0.0]])


def test_rce_decisions():
    assert SelfSimilar([1.0, 1.0, 1.0, 1.0]).is_rce().value is True
    assert SelfSimilar([1.0, 2.0]).is_rce().value is False
    assert DirichletColumns([[2.0, 2.0], [2.0, 2.0]]).is_rce().value is True
    assert DirichletColumns([[1.0, 2.0], [1.0, 2.0]]).is_rce().value is False
    assert DirichletColumns([[1.0, 1.0], [2.0, 2.0]]).is_rce().value is False

    assert PointMass(uniform_matrix(3)).is_rce().value is True
    assert PointMass(np.eye(2)).is_rce().value is False

    ident = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert Atomic([ident, swap], [0.5, 0.5]).is_rce().value is True
    assert Atomic([ident, swap], [0.3, 0.7]).is_rce().value is False
    # duplicated atoms merge before the closure check
    assert Atomic([ident, swap, ident], [0.25, 0.5, 0.25]).is_rce().value is True

    assert PermutationMix(4).is_rce().value is True
    full = PermutationMix(3).as_atomic()
    assert len(full.atoms) == 6
    assert full.is_rce().value is True
    assert PermutationMix(2, perms=[[1, 2]]).is_rce().value is False

    assert bool(PointMass(np.eye(2)).is_rce()) is False
    assert bool(PermutationMix(4).is_rce()) is True


@st.composite
def _near_closed_atom_sets(draw):
    """Orbits of one to three random atoms under every row and column
    permutation, or under some of them, a fifth of the atoms listed three
    times at a third of the weight, and a third moved by about _ATOM_TOL in
    their entries, so that some lie within _ATOM_TOL of two representatives,
    or by up to a few _WEIGHT_TOL in their weights."""
    k = draw(st.integers(2, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atom_noise = draw(st.sampled_from([0.0, 4e-13, 7e-13, 3e-12]))
    weight_noise = draw(st.sampled_from([0.0, 3e-10, 3e-9]))
    perms = list(itertools.permutations(range(k)))
    mats, weights = [], []
    for base in gen.dirichlet(np.ones(k), size=(draw(st.integers(1, 3)), k)).transpose(0, 2, 1):
        w, closed = gen.random() + 0.1, gen.random() < 0.7
        for p, q in itertools.product(perms, perms):
            if closed or gen.random() < 0.5:
                copies = 3 if gen.random() < 0.2 else 1
                for _ in range(copies):
                    moved = gen.random() < 0.3
                    mats.append(base[list(p)][:, list(q)] + moved * atom_noise * gen.standard_normal((k, k)))
                    weights.append(w / copies + moved * weight_noise)
    assume(mats)
    return np.stack(mats), np.array(weights), k


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_near_closed_atom_sets())
def test_atom_set_closure_matches_the_pairwise_loop(case):
    mats, weights, k = case
    verdict, where, wts = atomic_rce_loop(mats, weights, k)
    got = _atomic_rce(mats, weights, k)
    assert got.value is verdict
    if where is not None:
        assert got.reason == f"atom set not closed under swapping {where[0]} {where[1] + 1},{where[1] + 2}"
    assert _merge_atoms(mats, weights)[1].tolist() == wts


def test_smooth_density_flags():
    assert SelfSimilar([0.5, 0.5]).has_smooth_density
    assert DirichletColumns([[1.0, 2.0], [3.0, 4.0]]).has_smooth_density
    assert not PointMass(np.eye(2)).has_smooth_density
    assert not Atomic([np.eye(2)], [1.0]).has_smooth_density
    assert not PermutationMix(2).has_smooth_density


def test_config_round_trips():
    laws = [
        PointMass(StochasticMatrix([[0.7, 0.2], [0.3, 0.8]])),
        Atomic([np.eye(2), uniform_matrix(2).entries], [0.4, 0.6]),
        DirichletColumns([[1.0, 2.0], [0.5, 1.5]]),
        SelfSimilar([2.0, 1.0, 0.5]),
        PermutationMix(3),
        PermutationMix(2, perms=[[2, 1], [1, 2]], weights=[0.25, 0.75]),
    ]
    for law in laws:
        cfg = law.config()
        rebuilt = law_from_config(cfg)
        assert type(rebuilt) is type(law)
        assert rebuilt.k == law.k
        assert rebuilt.config() == cfg
        a = law.sample_batch(RngStream(99), 8)
        b = rebuilt.sample_batch(RngStream(99), 8)
        assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        law_from_config({"kind": "mystery"})
    with pytest.raises(ValidationError):
        law_from_config({"kind": "atomic", "atoms": [np.eye(2).tolist()]})
    with pytest.raises(ValidationError):
        law_from_config([1, 2])


@pytest.mark.parametrize("cfg,field", [
    ({"kind": "atomic", "atoms": [[[1.0]], [[0.5, 0.5]]], "weights": [0.5, 0.5]}, "atoms"),
    ({"kind": "point_mass", "matrix": [[0.5, 0.5], [0.4, 0.5]]}, "matrix"),
    ({"kind": "self_similar", "nu": [1.0, -1.0]}, "nu"),
    ({"kind": "dirichlet_columns"}, "alpha_columns"),
    ({"kind": "mystery"}, "kind"),
    ({"kind": ["atomic"]}, "kind"),
    ([1, 2], None),
])
def test_law_config_errors_name_the_config_key(cfg, field):
    with pytest.raises(ValidationError) as exc:
        law_from_config(cfg)
    assert exc.value.field == field


def test_sample_m_identity():
    s = StochasticMatrix(np.eye(3))
    m = sample_M_given_S(s, 9, RngStream(41))
    assert m == identity_matrix(9, 3)


def test_sample_m_binomial_counts():
    s = StochasticMatrix([[0.3, 0.9], [0.7, 0.1]])
    gen = RngStream(42).generator()
    sizes = []
    for _ in range(300):
        m = sample_M_given_S(s, 1000, gen)
        sizes.append(bin(m.cells[0][0]).count("1"))
    mean = np.mean(sizes)
    sigma = math.sqrt(1000 * 0.3 * 0.7 / 300)
    assert abs(mean - 300.0) < 3 * sigma


def test_sample_m_exact_distribution_small():
    # n=2, k=2: all 16 partition matrices, P(M|s) = prod over columns and sites
    s = StochasticMatrix([[0.7, 0.2], [0.3, 0.8]])
    gen = RngStream(43).generator()
    counts = {}
    reps = 100_000
    for _ in range(reps):
        m = sample_M_given_S(s, 2, gen)
        counts[m.cells] = counts.get(m.cells, 0) + 1
    assert len(counts) == 16
    for cells, c in counts.items():
        p = 1.0
        for j in range(2):
            for site in (1, 2):
                row = 0 if site in mask_to_sites(cells[0][j]) else 1
                p *= s.entries[row, j]
        sigma = math.sqrt(p * (1 - p) / reps)
        assert abs(c / reps - p) < 4.5 * sigma


def test_marginal_row_probabilities():
    s = StochasticMatrix([[0.5, 0.1, 0.3], [0.2, 0.6, 0.3], [0.3, 0.3, 0.4]])
    gen = RngStream(44).generator()
    reps = 400
    n = 500
    hits = np.zeros((3, 3))
    for _ in range(reps):
        m = sample_M_given_S(s, n, gen)
        for r in range(3):
            for j in range(3):
                hits[r, j] += bin(m.cells[r][j]).count("1")
    freq = hits / (reps * n)
    sigma = np.sqrt(s.entries * (1 - s.entries) / (reps * n))
    assert np.all(np.abs(freq - s.entries) < 4 * sigma)


def test_listed_permutations_draw_as_the_index_sampler():
    gen = RngStream(51).generator()
    k = 4
    for r in (2, 3, 6, 7):
        perms = [tuple(int(c) for c in gen.permutation(k)) for _ in range(r)]
        raw = gen.random(r) + 0.05
        for given_weights in (None, (raw / raw.sum()).tolist()):
            law = PermutationMix(k, [[c + 1 for c in p] for p in perms], given_weights)
            weights = np.full(r, 1.0 / r) if given_weights is None else given_weights
            for seed in range(10):
                want = listed_permutation_draws(perms, weights, k, RngStream(seed).generator(), 2000)
                assert law.sample_batch(RngStream(seed), 2000).tobytes() == want.tobytes()


def test_listed_permutation_exchangeability_matches_the_permutation_oracle():
    gen = RngStream(52).generator()
    verdicts = []
    for _ in range(300):
        k = int(gen.integers(2, 5))
        every = list(itertools.permutations(range(k)))
        if gen.random() < 0.5:
            # all of S_k at equal weight, two listed twice with the weight split
            twice = [every[i] for i in gen.choice(len(every), 2, replace=False)]
            perms = every + twice
            weights = [(0.5 if p in twice else 1.0) / len(every) for p in perms]
        else:
            perms = [every[i] for i in gen.choice(len(every), int(gen.integers(1, 8)))]
            weights = [1.0 / len(perms)] * len(perms)
        if gen.random() < 0.3:
            raw = gen.random(len(perms)) + 0.1
            weights = (raw / raw.sum()).tolist()
        law = PermutationMix(k, [[c + 1 for c in p] for p in perms], weights)
        want = permutation_set_rce(perms, law.as_atomic().weights, k)
        assert law.is_rce().value is want
        verdicts.append(want)
    assert 50 < sum(verdicts) < 250


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build,field", [
    (lambda x: StochasticMatrix([[x, 0.5], [1.0, 0.5]]), "entries"),
    (lambda x: Atomic([np.eye(2), np.eye(2)], [x, 1.0]), "weights"),
    (lambda x: PermutationMix(2, [[1, 2], [2, 1]], [x, 1.0]), "weights"),
    (lambda x: law_from_config({"kind": "permutation_mix", "k": 2, "perms": [[1, 2], [2, 1]],
                                "weights": [x, 1.0]}), "weights"),
    (lambda x: ProductMultinomialLaw(((3, [x, 1.0]),)), "blocks"),
], ids=["matrix", "atomic", "perms", "perms-config", "blocks"])
def test_every_probability_vector_refuses_non_finite_values(build, field, bad):
    with pytest.raises(ValidationError) as exc:
        build(bad)
    assert exc.value.field == field


_ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, -1e-13, -1e-9, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    arr=arrays(np.float64, array_shapes(min_dims=2, max_dims=3, max_side=4), elements=_ENTRIES),
    normalize=st.booleans(),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    field=st.sampled_from(["entries", "weights", "coords"]),
)
def test_column_stochastic_refuses_or_returns_probability_columns(arr, normalize, tol, field):
    if normalize:
        with np.errstate(all="ignore"):
            arr = arr / arr.sum(axis=-2, keepdims=True)
    try:
        out = _column_stochastic(arr, field, tol)
    except ValidationError as e:
        assert e.field == field
        return
    assert out.shape == arr.shape
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0.0)
    assert np.all(np.abs(out.sum(axis=-2) - 1.0) <= 1e-12)
