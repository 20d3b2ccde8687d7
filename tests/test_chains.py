import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpaste import chains
from cutpaste.chains import (
    EhrenfestParams,
    run_efcp_coordinate,
    run_efcp_matrix,
    run_ehrenfest,
    standard_ehrenfest,
)
from cutpaste.errors import ValidationError
from cutpaste.paintbox import (
    Atomic,
    DirichletColumns,
    PermutationMix,
    PointMass,
    SelfSimilar,
    StochasticMatrix,
)
from cutpaste.partitions import Coloring, act
from cutpaste.rng import RngStream

from _oracles import (
    ScriptedLaw,
    efcp_by_column,
    ehrenfest_by_site,
    matrix_enumeration_kernel,
    mixture_step_kernel,
    product_step_kernel,
    sample_M_given_S,
    sample_S,
    state_index,
    words_array,
)


def random_stochastic(gen, k):
    m = gen.random((k, k)) + 0.05
    return StochasticMatrix(m / m.sum(axis=0))


def test_product_kernel_matches_matrix_enumeration():
    # the one-step conditional kernel given the paintbox must agree between
    # the per-coordinate product form and literal enumeration of all
    # partition matrices with their product weights
    gen = RngStream(101).generator()
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for _ in range(3):
            s = random_stochastic(gen, k)
            ours = product_step_kernel(s.entries, n)
            brute = matrix_enumeration_kernel(s.entries, n)
            assert np.max(np.abs(ours - brute)) < 1e-12


def _empirical_one_step(runner, law, x0, reps, stream):
    k_pow = law.k ** x0.n
    counts = np.zeros(k_pow)
    for rep in range(reps):
        run = runner(law, x0, 1, stream.derive("rep", rep))
        counts[state_index(run.final)] += 1
    return counts / reps


@pytest.mark.parametrize("runner", [run_efcp_matrix, run_efcp_coordinate])
def test_one_step_empirical_matches_exact_kernel(runner):
    atoms = [
        StochasticMatrix([[0.8, 0.3], [0.2, 0.7]]),
        StochasticMatrix([[0.4, 0.9], [0.6, 0.1]]),
    ]
    law = Atomic(atoms, [0.35, 0.65])
    x0 = Coloring(3, 2, (1, 2, 1))
    row = mixture_step_kernel(law, 3)[state_index(x0)]
    reps = 40_000
    freq = _empirical_one_step(runner, law, x0, reps, RngStream(7))
    sigma = np.sqrt(np.clip(row * (1 - row), 1e-12, None) / reps)
    assert np.all(np.abs(freq - row) < 5 * sigma + 1e-9)


def test_constructions_agree_given_fixed_paintbox():
    gen = RngStream(55).generator()
    s1 = random_stochastic(gen, 2)
    s2 = random_stochastic(gen, 2)
    n = 3
    x0 = Coloring(n, 2, (1, 1, 2))

    # conditional two-step law equals the product over sites of the
    # composed one-color-at-a-time kernel, exactly
    joint = product_step_kernel(s1.entries, n) @ product_step_kernel(s2.entries, n)
    q2 = s2.entries @ s1.entries
    w = words_array(n, 2)
    x_idx = state_index(x0)
    expected = np.ones(2**n)
    for i in range(n):
        expected *= q2[w[:, i], x0.word[i] - 1]
    assert np.max(np.abs(joint[x_idx] - expected)) < 1e-12

    # and both simulators, driven by that same fixed paintbox sequence,
    # land on it empirically
    reps = 30_000
    for runner in (run_efcp_matrix, run_efcp_coordinate):
        counts = np.zeros(2**n)
        stream = RngStream(90 if runner is run_efcp_matrix else 91)
        for rep in range(reps):
            run = runner(ScriptedLaw([s1, s2]), x0, 2, stream.derive("rep", rep))
            counts[state_index(run.final)] += 1
        freq = counts / reps
        sigma = np.sqrt(np.clip(expected * (1 - expected), 1e-12, None) / reps)
        assert np.all(np.abs(freq - expected) < 5 * sigma + 1e-9)


@pytest.mark.parametrize("fixed", [False, True], ids=["drawn", "injected"])
def test_matrix_construction_replays_partition_matrices(fixed):
    # the matrix construction applies its draw site by site; replaying the
    # same streams through whole partition matrices must give the same path
    law = DirichletColumns([[1.0, 2.0, 1.5], [2.0, 1.0, 0.5], [1.0, 1.0, 1.0]])
    x0 = Coloring(11, 3, (1, 2, 3, 1, 1, 2, 3, 3, 2, 1, 2))
    steps = 12
    stream = RngStream(12)
    gen = RngStream(13).generator()
    seq = [random_stochastic(gen, 3) for _ in range(steps)]

    def fresh_law():
        # a scripted law hands out each paintbox once, so every run reads its own
        return ScriptedLaw(seq) if fixed else law

    gen_s = stream.derive("efcp-matrix-paintbox").generator()
    gen_m = stream.derive("efcp-matrix-moves").generator()
    x, want, replayed = x0, [x0], fresh_law()
    for _ in range(steps):
        x = act(sample_M_given_S(sample_S(replayed, gen_s), x0.n, gen_m), x)
        want.append(x)
    full = run_efcp_matrix(fresh_law(), x0, steps, stream, thin=1)
    assert full.trajectory == tuple(want)
    ends = run_efcp_matrix(fresh_law(), x0, steps, stream)
    assert ends.trajectory == (x0, want[-1])


def test_coordinate_frequencies_track_matrix_power():
    s = np.array([
        [0.6, 0.2, 0.1],
        [0.3, 0.5, 0.4],
        [0.1, 0.3, 0.5],
    ])
    law = PointMass(s)
    n = 100_000
    m = 4
    x0 = Coloring.constant(n, 3, 1)
    run = run_efcp_coordinate(law, x0, m, RngStream(17))
    freq = np.array(run.final.counts()) / n
    target = np.linalg.matrix_power(s, m)[:, 0]
    sigma = np.sqrt(target * (1 - target) / n)
    assert np.all(np.abs(freq - target) < 5 * sigma)


def test_ehrenfest_replay_and_coupling():
    params = EhrenfestParams(10, 0.3)
    assert params.batch_size == 3
    x0 = Coloring.constant(10, 2, 1)
    base = run_ehrenfest(params, x0, 40, RngStream(23), thin=1)
    # the site-mask oracle replays the run from the stream the runner derives
    want, moves = ehrenfest_by_site(10, 3, x0.word, 40, RngStream(23).derive("ehrenfest").generator())
    assert [x.word for x in base.trajectory] == want

    # a chain started anywhere else on the same seed shares every refresh,
    # so the two couple once the refreshes have covered [n]
    other = run_ehrenfest(params, Coloring.constant(10, 2, 2), 40, RngStream(23), thin=1)
    covered = 0
    coupling_time = None
    for t, (mask, _) in enumerate(moves, start=1):
        covered |= mask
        if covered == (1 << 10) - 1:
            coupling_time = t
            break
    assert coupling_time is not None
    assert other.trajectory[coupling_time - 1] != base.trajectory[coupling_time - 1]
    for t in range(coupling_time, 41):
        assert other.trajectory[t] == base.trajectory[t]


def test_ehrenfest_two_steps_match_exhaustive_kernel():
    n, a = 4, 2
    params = EhrenfestParams(n, 0.5)
    x0 = Coloring.constant(n, 2, 1)
    kernel, _ = ehrenfest_kernel_cached(n, a)
    exact = np.zeros(2**n)
    exact[0] = 1.0
    exact = exact @ kernel @ kernel
    reps = 30_000
    counts = np.zeros(2**n)
    stream = RngStream(31)
    for rep in range(reps):
        run = run_ehrenfest(params, x0, 2, stream.derive("rep", rep))
        counts[state_index(run.final)] += 1
    freq = counts / reps
    sigma = np.sqrt(np.clip(exact * (1 - exact), 1e-12, None) / reps)
    assert np.all(np.abs(freq - exact) < 5 * sigma + 1e-9)


_KERNELS = {}


def ehrenfest_kernel_cached(n, a):
    if (n, a) not in _KERNELS:
        from _oracles import ehrenfest_exhaustive_kernel

        _KERNELS[(n, a)] = ehrenfest_exhaustive_kernel(n, a)
    return _KERNELS[(n, a)]


def test_standard_variant_has_batch_size_one_for_every_n():
    # floor((1/n) * n) rounds to 0 at 91 of these n (49, 98, 103, ...)
    assert all(standard_ehrenfest(n).batch_size == 1 for n in range(2, 1101))
    assert EhrenfestParams(50, 0.5).batch_size == 25


def test_standard_variant_is_single_site():
    params = standard_ehrenfest(12)
    assert params.batch_size == 1
    x0 = Coloring.constant(12, 2, 1)
    run = run_ehrenfest(params, x0, 25, RngStream(5), thin=1)
    _, moves = ehrenfest_by_site(12, 1, x0.word, 25, RngStream(5).derive("ehrenfest").generator())
    for (mask, color), before, after in zip(moves, run.trajectory, run.trajectory[1:]):
        assert bin(mask).count("1") == 1
        site = mask.bit_length() - 1
        assert after.word[site] == color
        for i in range(12):
            if i != site:
                assert after.word[i] == before.word[i]


def test_thinning_and_reproducibility():
    law = DirichletColumns([[1.0, 1.0], [1.0, 1.0]])
    x0 = Coloring.constant(5, 2, 1)
    full = run_efcp_matrix(law, x0, 10, RngStream(40), thin=1)
    assert len(full.trajectory) == 11
    assert full.trajectory[0] == x0
    sparse = run_efcp_matrix(law, x0, 10, RngStream(40), thin=3)
    assert sparse.trajectory == tuple(full.trajectory[t] for t in (0, 3, 6, 9, 10))
    ends = run_efcp_matrix(law, x0, 10, RngStream(40))
    assert ends.trajectory == (x0, full.trajectory[10])
    # a derived stream draws different paintboxes: read them from the stream
    # the runner derives
    a, b = (law.sample_batch(seed.derive("efcp-matrix-paintbox").generator(), 1)[0]
            for seed in (RngStream(40), RngStream(40).derive("x", 1)))
    assert np.max(np.abs(a - b)) > 1e-6


def test_run_validation():
    law = PointMass(np.eye(2))
    with pytest.raises(ValidationError):
        run_efcp_matrix(law, Coloring.constant(3, 3, 1), 2, RngStream(0))
    with pytest.raises(ValidationError):
        run_efcp_matrix(law, Coloring.constant(3, 2, 1), -1, RngStream(0))
    with pytest.raises(ValidationError):
        run_ehrenfest(EhrenfestParams(3, 0.5), Coloring.constant(3, 3, 1), 2, RngStream(0))
    with pytest.raises(ValidationError):
        EhrenfestParams(10, 0.05)
    with pytest.raises(ValidationError):
        EhrenfestParams(10, 1.5)
    with pytest.raises(ValidationError):
        EhrenfestParams(0, 0.5)
    with pytest.raises(ValidationError):
        EhrenfestParams(4, 0.5, variant="weird")
    with pytest.raises(ValidationError) as err:
        run_ehrenfest(EhrenfestParams(6, 0.5), Coloring.constant(6, 2, 1), 5, 1, thin=-3)
    assert err.value.field == "thin"


# ------------------------------------------- stacked step against its oracle

_STREAMS = {
    run_efcp_matrix: ("efcp-matrix-paintbox", "efcp-matrix-moves"),
    run_efcp_coordinate: ("efcp-coordinate-paintbox", "efcp-coordinate-jumps"),
}


def _law(kind, k, gen):
    if kind == "point_mass":
        return PointMass(random_stochastic(gen, k))
    if kind == "atomic":
        return Atomic([random_stochastic(gen, k) for _ in range(3)], [0.2, 0.5, 0.3])
    if kind == "permutation_mix":
        return PermutationMix(k)
    if kind == "permutation_mix_perms":
        perms = [tuple(gen.permutation(k) + 1) for _ in range(3)]
        return PermutationMix(k, perms, [0.25, 0.25, 0.5])
    if kind == "dirichlet_columns":
        return DirichletColumns(gen.random((k, k)) + 0.3)
    return SelfSimilar(np.full(k, 0.7))


LAW_KINDS = ["point_mass", "atomic", "permutation_mix", "permutation_mix_perms",
             "dirichlet_columns", "self_similar"]


def _assert_matches_oracle(runner, law, x0, m_steps, seed, thin, sequence=None):
    """The run against the column oracle, on the paintboxes the oracle
    redraws from the runner's stream, or on a scripted sequence of them in
    place of law."""
    names = _STREAMS[runner]
    if sequence is None:
        gen_s = seed.derive(names[0]).generator()
        boxes = [law.sample_batch(gen_s, 1)[0] for _ in range(m_steps)]
    else:
        law = ScriptedLaw(sequence)
        boxes = law.matrices
    run = runner(law, x0, m_steps, seed, thin=thin)
    want = efcp_by_column(boxes, x0.word, x0.k, m_steps, seed.derive(names[1]).generator(),
                          thin, runner is run_efcp_matrix)
    assert [x.word for x in run.trajectory] == want
    assert run.final.word == want[-1]


def _block(runner, n, k):
    width = n * k if runner is run_efcp_matrix else n
    return max(1, chains._UNIFORM_BUDGET // width)


@pytest.mark.parametrize("runner", [run_efcp_matrix, run_efcp_coordinate])
@pytest.mark.parametrize("kind", LAW_KINDS)
def test_stacked_step_matches_column_oracle(monkeypatch, runner, kind):
    # a small block budget makes every size cross block boundaries
    monkeypatch.setattr(chains, "_UNIFORM_BUDGET", 96)
    gen = RngStream(71).derive(kind).generator()
    for k in (1, 2, 3, 5):
        law = _law(kind, k, gen)
        for n in (1, 7, 700):
            x0 = Coloring(n, k, tuple(int(c) + 1 for c in gen.integers(0, k, n)))
            for m_steps in (0, 1, _block(runner, n, k) + 1):
                for thin in (0, 1, 3):
                    seed = RngStream(1000 * k + n).derive(kind, 10 * m_steps + thin)
                    _assert_matches_oracle(runner, law, x0, m_steps, seed, thin)


@pytest.mark.parametrize("runner", [run_efcp_matrix, run_efcp_coordinate])
@pytest.mark.parametrize("k", [2, 5])
def test_stacked_step_matches_column_oracle_at_the_block_budget(runner, k):
    gen = RngStream(72).derive("budget", k).generator()
    n = 700
    x0 = Coloring(n, k, tuple(int(c) + 1 for c in gen.integers(0, k, n)))
    for kind in LAW_KINDS:
        m_steps = _block(runner, n, k) + 1
        _assert_matches_oracle(runner, _law(kind, k, gen), x0, m_steps, RngStream(k), 3)


@pytest.mark.parametrize("runner", [run_efcp_matrix, run_efcp_coordinate])
def test_stacked_step_matches_column_oracle_on_exact_zeros_and_ones(monkeypatch, runner):
    # scripted paintboxes with exact 0/1 entries: uniforms never reach a
    # zero-width row, and a column with a single 1 moves every site to it
    monkeypatch.setattr(chains, "_UNIFORM_BUDGET", 40)
    sequence = [
        np.eye(3),
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]],
        StochasticMatrix([[0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, 0.0]]),
        [[0.0, 0.0, 0.25], [1.0, 0.0, 0.25], [0.0, 1.0, 0.5]],
        [[0.2, 0.0, 1.0], [0.0, 1.0, 0.0], [0.8, 0.0, 0.0]],
    ] * 3
    for n in (1, 7, 20):
        x0 = Coloring(n, 3, tuple(i % 3 + 1 for i in range(n)))
        for thin in (0, 1, 3):
            for m_steps in (0, 1, len(sequence)):
                _assert_matches_oracle(runner, None, x0, m_steps, RngStream(n), thin, sequence)


# ------------------------------------------- one seed couples every start

_COUPLED = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def _two_starts(data, n, k):
    return [Coloring(n, k, tuple(data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))))
            for _ in range(2)]


def _assert_agreement_persists(a, b):
    """A site where two runs on one seed agree still agrees a step later."""
    for x, y, x1, y1 in zip(a.trajectory, b.trajectory, a.trajectory[1:], b.trajectory[1:]):
        for i in range(x.n):
            if x.word[i] == y.word[i]:
                assert x1.word[i] == y1.word[i]


@_COUPLED
@given(data=st.data())
@pytest.mark.parametrize("runner", [run_efcp_matrix, run_efcp_coordinate])
@pytest.mark.parametrize("kind", LAW_KINDS)
def test_one_seed_couples_two_paintbox_runs(runner, kind, data):
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 10))
    seed = RngStream(data.draw(st.integers(0, 2**32)))
    law = _law(kind, k, seed.derive("law").generator())
    x, y = _two_starts(data, n, k)
    _assert_agreement_persists(runner(law, x, 12, seed, thin=1), runner(law, y, 12, seed, thin=1))


@_COUPLED
@given(data=st.data())
def test_one_seed_couples_two_batch_refresh_runs(data):
    n = data.draw(st.integers(1, 10))
    a = data.draw(st.integers(1, n))
    # (a + 0.5) / n keeps floor(alpha * n) = a clear of rounding
    params = EhrenfestParams(n, 1.0 if a == n else (a + 0.5) / n)
    assert params.batch_size == a
    seed = RngStream(data.draw(st.integers(0, 2**32)))
    x, y = _two_starts(data, n, 2)
    _assert_agreement_persists(run_ehrenfest(params, x, 12, seed, thin=1),
                               run_ehrenfest(params, y, 12, seed, thin=1))


@pytest.mark.parametrize("params,x0", [
    (EhrenfestParams(10, 0.3), (1,) * 10),
    (standard_ehrenfest(1), (2,)),
    (EhrenfestParams(13, 0.5), (1, 2) * 6 + (1,)),
    (EhrenfestParams(70, 0.2), (2,) * 70),
])
def test_ehrenfest_matches_site_mask_oracle(params, x0):
    x0 = Coloring(params.n, 2, x0)
    steps = 30
    seed = RngStream(params.n)
    run = run_ehrenfest(params, x0, steps, seed, thin=1)
    want, _ = ehrenfest_by_site(params.n, params.batch_size, x0.word, steps,
                                seed.derive("ehrenfest").generator())
    assert [x.word for x in run.trajectory] == want
    assert run_ehrenfest(params, x0, steps, seed).trajectory == (x0, run.final)
