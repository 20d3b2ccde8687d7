import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    collapse_counts,
    fraction_det,
    lyapunov_per_replicate,
    lyapunov_trace_steps,
    new_product_state,
    singular_values_on_mean_zero,
    step,
)
from cutpaste.errors import ValidationError
from cutpaste.paintbox import (
    Atomic,
    PermutationMix,
    PointMass,
    SelfSimilar,
    StochasticMatrix,
)
from cutpaste.products import (
    _LOG_BLOCK_COND,
    CollapseReport,
    _block_length,
    _block_log_r,
    _collapse_scan,
    collapse_diagnostic,
    estimate_lyapunov,
    helmert_basis,
    log_abs_det_on_V,
    lyapunov_trace,
    restrict_to_V,
    simplex_diameter,
    singular_values_on_V,
    top_singular_on_V,
)
from cutpaste.rng import RngStream, as_stream


def random_stochastic(rng, k):
    arr = rng.random((k, k)) + 1e-3
    return StochasticMatrix(arr / arr.sum(axis=0))


def blend(rng, k, c=0.2):
    """A stochastic matrix near the identity, so its restriction to V is
    well conditioned and the kernel takes blocks longer than one step."""
    return (1.0 - c) * np.eye(k) + c * random_stochastic(rng, k).entries


def test_helmert_basis_is_orthonormal_and_mean_free():
    for k in range(2, 9):
        h = helmert_basis(k)
        assert h.shape == (k, k - 1)
        assert np.allclose(h.T @ h, np.eye(k - 1), atol=1e-14)
        assert np.allclose(h.sum(axis=0), 0.0, atol=1e-14)


def test_singular_values_match_svd():
    rng = np.random.default_rng(6)
    for k in range(2, 7):
        for _ in range(20):
            q = random_stochastic(rng, k)
            got = singular_values_on_V(q)
            want = singular_values_on_mean_zero(q.entries)
            assert np.allclose(got, want, atol=1e-10)
            assert got[0] <= 1.0 + 1e-10


def test_top_singular_special_cases():
    assert abs(top_singular_on_V(np.eye(4)) - 1.0) < 1e-12
    rank1 = np.tile([[0.2], [0.5], [0.3]], (1, 3))
    assert top_singular_on_V(rank1) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_stochastic(rng, 2)
        want = abs(q.entries[0, 0] + q.entries[1, 1] - 1.0)
        assert abs(top_singular_on_V(q) - want) < 1e-12


def test_simplex_diameter():
    assert abs(simplex_diameter(np.eye(3)) - math.sqrt(2)) < 1e-12
    rank1 = np.tile([[0.2], [0.5], [0.3]], (1, 3))
    assert simplex_diameter(rank1) == 0.0
    # the image of the simplex is the hull of the columns, and a fine grid of
    # simplex points contains the vertices, so the grid brute force is exact
    rng = np.random.default_rng(8)
    g = 24
    grid = np.array(
        [(i / g, j / g, (g - i - j) / g) for i in range(g + 1) for j in range(g + 1 - i)]
    )
    for _ in range(10):
        q = random_stochastic(rng, 3)
        img = grid @ q.entries.T
        best = 0.0
        for a, b in itertools.combinations(range(len(img)), 2):
            best = max(best, float(np.linalg.norm(img[a] - img[b])))
        assert abs(simplex_diameter(q) - best) < 1e-12


def test_step_identity_and_2x2_rate():
    state = new_product_state(3)
    state = step(state, np.eye(3))
    assert np.allclose(state.q, np.eye(3))
    assert np.allclose(state.log_r_sums, 0.0, atol=1e-15)
    assert state.m == 1

    s = StochasticMatrix([[0.8, 0.3], [0.2, 0.7]])
    state = new_product_state(2)
    for _ in range(40):
        state = step(state, s)
    assert abs(state.log_r_sums[0] / 40 - math.log(0.5)) < 1e-12


def test_qr_telescoping_identity():
    # sum of accumulated log diagonals = log |det(Q_m|V)|; the determinant of
    # the restricted product factors per step, which stays well-conditioned at
    # any m, while the direct restriction of Q_m is reliable only while the
    # smallest singular value is far above float noise (checked at small m)
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        state = new_product_state(k)
        per_step = 0.0
        for t in range(50):
            s = random_stochastic(rng, k)
            state = step(state, s)
            per_step += log_abs_det_on_V(s)
            if t == 2:
                assert abs(float(state.log_r_sums.sum()) - log_abs_det_on_V(state.q)) < 1e-8
        assert abs(float(state.log_r_sums.sum()) - per_step) < 1e-8


def test_diameter_monotone_along_products():
    rng = np.random.default_rng(10)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        state = new_product_state(k)
        last = simplex_diameter(state.q)
        for _ in range(30):
            state = step(state, random_stochastic(rng, k))
            cur = simplex_diameter(state.q)
            assert cur <= last + 1e-12
            last = cur


def test_lyapunov_point_mass_2x2_exact():
    law = PointMass(StochasticMatrix([[0.8, 0.3], [0.2, 0.7]]))
    est = estimate_lyapunov(law, m=200, replicates=2, seed=1)
    assert abs(est.lambda1 - 0.5) < 1e-10
    assert est.flags == ()
    assert est.std_error == 0.0
    assert abs(est.kappa_hat - math.log(0.5)) < 1e-12


def test_lyapunov_point_mass_matches_eigen_oracle():
    # the running-mean exponent carries an O(1/m) transient, plus a slowly
    # equidistributing oscillation when the second eigenvalue is a complex
    # pair, so the tolerance has an additive floor
    rng = np.random.default_rng(11)
    for k in (3, 4):
        for _ in range(3):
            s = random_stochastic(rng, k)
            eigs = np.sort(np.abs(np.linalg.eigvals(s.entries)))[::-1]
            est1 = estimate_lyapunov(PointMass(s), m=1000, replicates=1, seed=3)
            est2 = estimate_lyapunov(PointMass(s), m=8000, replicates=1, seed=3)
            err1 = abs(math.log(est1.lambda1) - math.log(eigs[1]))
            err2 = abs(math.log(est2.lambda1) - math.log(eigs[1]))
            assert err2 < 2e-3
            assert err2 < 0.35 * err1 + 2e-5


def test_lyapunov_spectrum_determinant_consistency():
    law = SelfSimilar([1.0, 1.0, 1.0])
    est = estimate_lyapunov(law, m=300, replicates=20, seed=4)
    prod = float(np.prod(est.spectrum))
    assert abs(prod - math.exp(est.kappa_hat)) < 1e-9
    assert 0.0 < est.lambda1 < 1.0
    assert est.spectrum[0] == est.lambda1
    assert list(est.spectrum) == sorted(est.spectrum, reverse=True)


def test_lyapunov_rank1_collapse_flag():
    rank1 = np.tile([[0.6], [0.4]], (1, 2))
    law = Atomic([rank1, np.eye(2)], [0.5, 0.5])
    est = estimate_lyapunov(law, m=60, replicates=5, seed=5)
    assert est.lambda1 == 0.0
    assert "super_exponential_collapse" in est.flags


def test_lyapunov_trace_converges_to_estimate():
    law = PointMass(StochasticMatrix([[0.8, 0.3], [0.2, 0.7]]))
    trace = lyapunov_trace(law, 50, seed=6)
    assert trace.shape == (50, 1)
    assert abs(trace[-1, 0] - math.log(0.5)) < 1e-12


def test_lyapunov_validation():
    law = SelfSimilar([1.0, 1.0])
    with pytest.raises(ValidationError):
        estimate_lyapunov(law, m=0, replicates=1, seed=0)
    with pytest.raises(ValidationError):
        estimate_lyapunov(law, m=10, replicates=0, seed=0)
    with pytest.raises(ValidationError):
        estimate_lyapunov(SelfSimilar([1.0]), m=10, replicates=1, seed=0)


def test_collapse_diagnostic_verdicts():
    perms = PermutationMix(3)
    rep = collapse_diagnostic(perms, m_max=8, replicates=50, seed=7)
    assert isinstance(rep, CollapseReport)
    assert rep.verdict == "undetermined"
    assert max(rep.p_contract) == 0.0
    assert max(rep.p_positive) == 0.0

    dirichlet = SelfSimilar([1.0, 1.0, 1.0])
    rep2 = collapse_diagnostic(dirichlet, m_max=4, replicates=50, seed=8)
    assert rep2.verdict == "yes"
    assert rep2.first_positivity_m == 1
    assert rep2.p_positive[0] == 1.0

    a = StochasticMatrix([[0.8, 0.3], [0.2, 0.7]])
    b = StochasticMatrix([[0.6, 0.45], [0.4, 0.55]])
    rep3 = collapse_diagnostic(Atomic([a, b], [0.5, 0.5]), m_max=4, replicates=20, seed=9)
    assert rep3.verdict == "yes"
    assert rep3.first_contraction_m == 1

    # reproducibility of the whole report
    rep4 = collapse_diagnostic(dirichlet, m_max=4, replicates=50, seed=8)
    assert rep4 == rep2


def test_restriction_helpers_broadcast_over_stacks():
    rng = np.random.default_rng(12)
    for k in (1, 2, 3, 5):
        stack = np.stack([random_stochastic(rng, k).entries for _ in range(6)]).reshape(2, 3, k, k)
        assert restrict_to_V(stack).shape == (2, 3, k - 1, k - 1)
        tops = top_singular_on_V(stack)
        logdets = log_abs_det_on_V(stack)
        assert tops.shape == logdets.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            assert np.allclose(restrict_to_V(stack)[i, j], restrict_to_V(stack[i, j]), atol=1e-15)
            assert abs(tops[i, j] - top_singular_on_V(stack[i, j])) < 1e-14
            assert abs(logdets[i, j] - log_abs_det_on_V(stack[i, j])) < 1e-12
    singular = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert log_abs_det_on_V(singular) == -math.inf
    assert isinstance(top_singular_on_V(np.eye(1)), float)


def test_stacked_step_matches_per_replicate_steps():
    rng = np.random.default_rng(13)
    for k in (2, 3, 4):
        draws = np.stack([[random_stochastic(rng, k).entries for _ in range(3)] for _ in range(25)])
        stacked = new_product_state(k)
        singles = [new_product_state(k) for _ in range(3)]
        for t in range(25):
            stacked = step(stacked, draws[t])
            singles = [step(st, draws[t, r]) for r, st in enumerate(singles)]
        assert stacked.m == 25
        for r, st in enumerate(singles):
            assert np.allclose(stacked.q[r], st.q, atol=1e-14)
            assert np.allclose(stacked.frame[r], st.frame, atol=1e-14)
            assert np.allclose(stacked.log_r_sums[r], st.log_r_sums, atol=1e-12)
        assert stacked.degenerate.shape == (3,) and not stacked.degenerate.any()


def _replicate_draws(law, seed, label, replicates, m):
    base = as_stream(seed)
    return np.stack([
        law.sample_batch(base.derive(label, rep).generator(), m) for rep in range(replicates)
    ])


_SINGULAR_ON_V = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
_ORACLE_CASES = {
    "self_similar_k2": (SelfSimilar([1.0, 1.0]), 40, 6),
    "self_similar_k3": (SelfSimilar([1.0, 1.0, 1.0]), 40, 6),
    "self_similar_k5": (SelfSimilar([0.7, 1.0, 1.3, 1.0, 0.5]), 30, 5),
    "rank1_atom": (Atomic([np.tile([[0.6], [0.4]], (1, 2)), np.eye(2)], [0.5, 0.5]), 20, 5),
    "singular_point_mass": (PointMass(_SINGULAR_ON_V), 10, 3),
    "identity_point_mass": (PointMass(np.eye(3)), 10, 3),
    "one_replicate_one_step": (SelfSimilar([1.0, 1.0, 1.0]), 1, 1),
    # two non-commuting atoms whose steps the kernel takes in blocks
    "near_identity_k3": (Atomic([blend(np.random.default_rng(16), 3),
                                 blend(np.random.default_rng(17), 3)], [0.5, 0.5]), 61, 3),
    "near_identity_k4": (Atomic([blend(np.random.default_rng(14), 4, 0.1),
                                 blend(np.random.default_rng(15), 4, 0.1)], [0.5, 0.5]), 61, 3),
    # the uniform atom maps V to 0: exactly singular, log |det| -inf
    "uniform_and_invertible_k5": (Atomic([np.full((5, 5), 0.2),
                                          blend(np.random.default_rng(18), 5)], [0.5, 0.5]), 12, 3),
    # two equal unit columns: the first frame direction collapses at once
    "two_unit_columns_k4": (PointMass([[1.0, 1.0, 0.2, 0.1], [0.0, 0.0, 0.3, 0.2],
                                       [0.0, 0.0, 0.4, 0.3], [0.0, 0.0, 0.1, 0.4]]), 10, 2),
}


def _assert_estimates_match(got, want, keys):
    """The keys of two Lyapunov estimates agree to 1e-12; spectrum entries
    that are None agree in place."""
    for key in keys:
        g, w = got[key], want[key]
        if key == "spectrum":
            assert [v is None for v in g] == [v is None for v in w]
            g, w = [v for v in g if v is not None], [v for v in w if v is not None]
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_estimate_lyapunov_matches_per_replicate_oracle(case):
    law, m, replicates = _ORACLE_CASES[case]
    est = estimate_lyapunov(law, m, replicates, seed=21)
    want = lyapunov_per_replicate(_replicate_draws(law, 21, "lyapunov-replicate", replicates, m))
    got = est.to_json()
    assert got["flags"] == want["flags"]
    _assert_estimates_match(got, want, ("lambda1", "spectrum", "kappa_hat", "std_error"))
    if case == "rank1_atom":
        assert est.flags == ("logdet_floored", "super_exponential_collapse")
        assert est.lambda1 == 0.0 and est.spectrum[-1] == 0.0
    if case == "uniform_and_invertible_k5":
        assert est.flags == ("logdet_floored", "super_exponential_collapse")
        assert est.spectrum == (0.0, None, None, None)
    if case == "two_unit_columns_k4":
        assert est.spectrum == (0.0, None, None)
    if case == "singular_point_mass":
        assert "logdet_floored" in est.flags
    if case == "identity_point_mass":
        assert abs(est.lambda1 - 1.0) < 1e-12 and est.flags == ()


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_lyapunov_trace_matches_the_step_oracle_at_every_step(case):
    law, m, _ = _ORACLE_CASES[case]
    got = lyapunov_trace(law, m, seed=23)
    want = lyapunov_trace_steps(_replicate_draws(law, 23, "lyapunov-replicate", 1, m)[0])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_lyapunov_trace_has_no_rate_after_a_collapsed_direction():
    # as in estimate_lyapunov's spectrum; the QR's choice of frame column
    # for the collapsed direction set the later rates (-0.599 and -1.441)
    law, m, _ = _ORACLE_CASES["two_unit_columns_k4"]
    last = lyapunov_trace(law, m, seed=23)[-1]
    assert last[0] == -np.inf and np.isnan(last[1:]).all()
    trace = lyapunov_trace(_ORACLE_CASES["self_similar_k3"][0], 40, seed=23)
    assert np.isfinite(trace).all()


# --------------------------------------------------- the block QR kernel


def _kernel_log_r_sums(draws):
    b = restrict_to_V(draws)
    return _block_log_r(b, _block_length(b, log_abs_det_on_V(draws))).sum(axis=-2)


def test_block_kernel_telescopes_to_the_restricted_determinant():
    # the kernel's counterpart of test_qr_telescoping_identity
    rng = np.random.default_rng(9)
    blocks = set()
    for trial in range(30):
        k = int(rng.integers(2, 6))
        draws = np.stack([blend(rng, k) if trial % 2 else random_stochastic(rng, k).entries
                          for _ in range(50)])[None]
        b = restrict_to_V(draws)
        blocks.add(_block_length(b, log_abs_det_on_V(draws)))
        per_step = float(np.sum(log_abs_det_on_V(draws)))
        assert abs(float(_kernel_log_r_sums(draws).sum()) - per_step) < 1e-8
        q = draws[0, 2] @ draws[0, 1] @ draws[0, 0]
        assert abs(float(_kernel_log_r_sums(draws[:, :3]).sum()) - log_abs_det_on_V(q)) < 1e-8
    assert 1 in blocks and max(blocks) >= 8


def test_block_kernel_stacked_matches_single_replicates():
    # the kernel's counterpart of test_stacked_step_matches_per_replicate_steps;
    # a single replicate may take longer blocks than the stack
    rng = np.random.default_rng(13)
    for k in (2, 3, 4):
        draws = np.stack([[blend(rng, k) for _ in range(25)] for _ in range(3)])
        stacked = _kernel_log_r_sums(draws)
        assert stacked.shape == (3, k - 1)
        for r in range(3):
            np.testing.assert_allclose(stacked[r], _kernel_log_r_sums(draws[r:r + 1])[0],
                                       rtol=0.0, atol=1e-12)


def _block_cond_logs(b, block):
    """log of the product of the 2-norm condition numbers of the steps of
    every aligned block of b (R, m, d, d)."""
    logs = np.log(np.linalg.cond(b))
    starts = np.arange(0, b.shape[1], block)
    return np.add.reduceat(logs, starts, axis=1)


_BLOCK_LAWS = {
    "self_similar_k2": (SelfSimilar([1.0, 1.0]), 300, 4),
    "self_similar_k3": (SelfSimilar([1.0, 1.0, 1.0]), 100, 4),
    "atomic_k3": (Atomic([[[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
                          [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]]],
                         [0.4, 0.6]), 200, 4),
    "identity_k3": (PointMass(np.eye(3)), 100, 2),
    "near_identity_k4": _ORACLE_CASES["near_identity_k4"],
    "rank1_atom": _ORACLE_CASES["rank1_atom"],
    "singular_point_mass": _ORACLE_CASES["singular_point_mass"],
}


@pytest.mark.parametrize("case", sorted(_BLOCK_LAWS))
def test_block_length_follows_the_conditioning_rule(case):
    law, m, replicates = _BLOCK_LAWS[case]
    draws = _replicate_draws(law, 31, "lyapunov-replicate", replicates, m)
    b = restrict_to_V(draws)
    block = _block_length(b, log_abs_det_on_V(draws))
    sigma_min = np.linalg.svd(b, compute_uv=False)[..., -1]
    assert block & (block - 1) == 0 and block < 2 * m
    if (sigma_min < 1e-13).any():
        assert block == 1
    else:
        # every aligned block's condition product is within the bound
        assert _block_cond_logs(b, block).max() <= _LOG_BLOCK_COND + 1e-9
    if case == "self_similar_k2":
        # 1 x 1 steps have condition 1: one block spans the path
        assert block == 512
    if case in ("rank1_atom", "singular_point_mass"):
        assert block == 1
    if case in ("identity_k3", "near_identity_k4"):
        assert block > 1

    # one step whose sigma_min on V is below 1e-13 makes every block one step
    k = law.k
    if k > 2 and block > 1:
        # two equal columns make S singular on V; a 1e-14 blend keeps it so
        # to within 1e-13
        singular = np.eye(k)[:, [0, 0, *range(2, k)]]
        spiked = draws.copy()
        spiked[0, m // 2] = (1 - 1e-14) * singular + 1e-14 * np.eye(k)
        spiked_b = restrict_to_V(spiked)
        assert np.linalg.svd(spiked_b[0, m // 2], compute_uv=False)[-1] < 1e-13
        assert _block_length(spiked_b, log_abs_det_on_V(spiked)) == 1


def _random_atom(data, k):
    kinds = ["near_identity", "dense", "permutation", "rank1", "singular"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "permutation":
        return np.eye(k)[:, data.draw(st.permutations(range(k)))]
    # generic entries: equal cells would make most atoms singular on V
    dense = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((k, k)) + 0.05
    dense /= dense.sum(axis=0)
    if kind == "near_identity":
        c = data.draw(st.floats(0.05, 0.3))
        return (1.0 - c) * np.eye(k) + c * dense
    if kind == "rank1":
        return np.tile(dense[:, :1], (1, k))
    if kind == "singular":
        dense[:, 1] = dense[:, 0]
    return dense


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_block_kernel_matches_the_step_oracle_on_random_atomic_laws(data):
    k = data.draw(st.integers(2, 5))
    count = data.draw(st.integers(1, 3))
    atoms = [_random_atom(data, k) for _ in range(count)]
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)))
    law = Atomic(atoms, weights / weights.sum())
    # path lengths that end on, just before and just past a power of two
    m = data.draw(st.sampled_from([64, 33, 31, 16, 8, 5, 3, 2, 1]))
    replicates = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 1000))
    got = estimate_lyapunov(law, m, replicates, seed).to_json()
    want = lyapunov_per_replicate(_replicate_draws(law, seed, "lyapunov-replicate", replicates, m))
    keys = ["lambda1", "std_error", "spectrum"]
    # the oracle's log |det| of an atom singular in exact arithmetic is -inf,
    # floored; float LU gives exactly -inf for only some of them (41-67% of
    # atoms with two equal columns, in 2000 draws for each k from 2 to 5) and
    # a finite rounding value for the rest, so kappa_hat and its floor flag
    # are compared only when every atom is invertible
    if all(fraction_det(a) != 0 for a in atoms):
        keys.append("kappa_hat")
        assert got["flags"] == want["flags"]
    collapse = "super_exponential_collapse"
    assert (collapse in got["flags"]) == (collapse in want["flags"])
    _assert_estimates_match(got, want, keys)


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_collapse_diagnostic_matches_per_replicate_oracle(case):
    law, m, replicates = _ORACLE_CASES[case]
    draws = _replicate_draws(law, 22, "collapse-replicate", replicates, m)
    # a coarse delta makes the contraction counts depend on each product
    for delta in (1e-6, 0.5):
        rep = collapse_diagnostic(law, m_max=m, replicates=replicates, seed=22, delta=delta)
        contract, positive = collapse_counts(draws, delta)
        assert rep.p_contract == tuple((contract / replicates).tolist())
        assert rep.p_positive == tuple((positive / replicates).tolist())
        assert rep.verdict == ("yes" if contract.any() or positive.any() else "undetermined")
    if case == "identity_point_mass":
        assert rep.verdict == "undetermined"


# ------------------------------------------------------- the collapse gate

_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_CONTRACTING = [[0.8, 0.3], [0.2, 0.7]]
# permutations never contract V nor turn positive, so a witness waits for
# the rare contracting atom: often past replicate 0 and past m = 1
_RARE_WITNESS = Atomic([_SWAP, np.eye(2), _CONTRACTING], [0.49, 0.49, 0.02])

_GATE_LAWS = {
    "permutation_mix_k2": PermutationMix(2),
    "permutation_mix_k3": PermutationMix(3),
    "identity_point_mass": PointMass(np.eye(3)),
    "dirichlet_k3": SelfSimilar([1.0, 1.0, 1.0]),
    "rare_witness": _RARE_WITNESS,
}


def _gate_agrees(law, m_max, replicates, seed, delta):
    """The gate is None exactly when the diagnostic says yes, and otherwise
    is the diagnostic."""
    gate = _collapse_scan(law, m_max, replicates, seed, delta, first_witness=True)
    report = collapse_diagnostic(law, m_max, replicates, seed, delta)
    if report.verdict == "yes":
        assert gate is None
    else:
        assert gate == report
    return report


@pytest.mark.parametrize("case", sorted(_GATE_LAWS))
def test_gate_stops_exactly_when_the_diagnostic_says_yes(case):
    law = _GATE_LAWS[case]
    verdicts = set()
    late = 0
    for (m_max, replicates), seed in itertools.product([(32, 200), (4, 5), (3, 1)], range(6)):
        report = _gate_agrees(law, m_max, replicates, seed, 1e-6)
        verdicts.add(report.verdict)
        draws = _replicate_draws(law, seed, "collapse-replicate", 1, m_max)
        contract, positive = collapse_counts(draws, 1e-6)
        first = min(m for m in (report.first_contraction_m, report.first_positivity_m, m_max + 1)
                    if m is not None)
        late += report.verdict == "yes" and not (contract.any() or positive.any()) and first > 1
    want = {"permutation_mix_k2": {"undetermined"}, "permutation_mix_k3": {"undetermined"},
            "identity_point_mass": {"undetermined"}, "dirichlet_k3": {"yes"},
            "rare_witness": {"yes", "undetermined"}}[case]
    assert verdicts == want
    if case == "rare_witness":
        # some scans found their first witness past replicate 0 and m = 1
        assert late > 0


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_gate_agrees_with_the_diagnostic_on_random_atomic_laws(data):
    k = data.draw(st.integers(2, 3))
    count = data.draw(st.integers(1, 3))
    atoms = []
    for _ in range(count):
        if data.draw(st.booleans()):
            perm = data.draw(st.permutations(range(k)))
            atoms.append(np.eye(k)[:, perm])
        else:
            m = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k)))
            m = m.reshape(k, k) + 1e-3
            atoms.append(m / m.sum(axis=0))
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)))
    law = Atomic(atoms, weights / weights.sum())
    m_max = data.draw(st.integers(1, 6))
    replicates = data.draw(st.integers(1, 6))
    delta = data.draw(st.sampled_from([1e-6, 0.1, 0.5]))
    _gate_agrees(law, m_max, replicates, data.draw(st.integers(0, 50)), delta)


@pytest.mark.parametrize("key,value", [
    ("m_max", 0), ("m_max", -2), ("replicates", 0), ("replicates", -1),
    ("delta", -1.0), ("delta", 0.0), ("delta", 1.0), ("delta", 2.0),
    ("delta", math.nan), ("delta", math.inf), ("delta", -math.inf),
])
def test_collapse_scan_names_a_bad_setting(key, value):
    kwargs = {"m_max": 4, "replicates": 3, "seed": 0, "delta": 1e-6, key: value}
    for scan in (collapse_diagnostic, lambda law, **kw: _collapse_scan(law, **kw, first_witness=True)):
        with pytest.raises(ValidationError) as exc:
            scan(PermutationMix(2), **kwargs)
        assert exc.value.field == key
