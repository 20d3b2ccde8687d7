import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _covering_stationary,
    _covering_weights,
    block_statistic_pmf_fraction,
    block_statistic_pmfs,
    dense_gth_stationary,
    ehrenfest_covering_tvs,
    ehrenfest_dense_kernel,
    ehrenfest_exhaustive_kernel,
    ehrenfest_exhaustive_tv,
    ehrenfest_fraction_tvs,
    mixing_search_redraw,
    product_step_kernel,
    tv_distance,
    tv_lower_reference,
    words_array,
)
from cutpaste.chains import EhrenfestParams, standard_ehrenfest
from cutpaste.errors import BudgetRefusal, InconclusiveRefusal, TheoryRefusal, ValidationError
from cutpaste.paintbox import (
    Atomic,
    DirichletColumns,
    PermutationMix,
    PointMass,
    SelfSimilar,
    StochasticMatrix,
)
from cutpaste.partitions import Coloring
from cutpaste.tvlab import (
    MixingProfile,
    ProductMultinomialLaw,
    TVEstimate,
    batched_products,
    coupling_upper,
    cutoff_experiment,
    ehrenfest_bounds,
    ehrenfest_mixing_time,
    ehrenfest_tv_profile,
    loglog_schedule,
    make_constant_pair,
    make_test_pair,
    mixing_time,
    tv_exact_atomic,
    tv_exact_product_multinomial,
    tv_lower_mc,
    tv_upper_mc,
)
from cutpaste.products import collapse_diagnostic, estimate_lyapunov
from cutpaste.rng import RngStream, as_stream
from cutpaste.tvlab import mixing as mixing_module
from cutpaste import lumped
from cutpaste.lumped import _stationary, _sweep
from cutpaste.tvlab.ehrenfest import _block_length, _count_moves, _one_count_chain
from cutpaste.tvlab.exact import _CACHE_BUDGET, _conditional_tvs
from cutpaste.products import _products
from cutpaste.tvlab.mc import (
    _power,
    _spectrum_buffers,
    _statistic_spectra,
)
from cutpaste.tvlab.mixing import designed_pairs


def random_stochastic(rng, k):
    arr = rng.random((k, k)) + 1e-3
    return arr / arr.sum(axis=0)


def conditional_tv(q, x, y) -> float:
    """The exact TV between the chains from the distinct starts x and y
    given the composed paintbox q: the kernel of tv_upper_mc on a one-row
    stack."""
    return float(_conditional_tvs(np.asarray(q, dtype=float)[None], x, y)[0])


def configuration_tv(blocks_p, blocks_q):
    """TV between two product laws over colorings by summing all k^n words.

    blocks_*: list of (size, cell distribution). Site colors are drawn
    independently, block by block, so each word's probability is a plain
    product. No count statistic anywhere: this is the full configuration
    space.
    """
    k = len(blocks_p[0][1])
    n = sum(size for size, _ in blocks_p)
    words = words_array(n, k)
    site_p = np.concatenate([[list(s)] * size for size, s in blocks_p if size], axis=0)
    site_q = np.concatenate([[list(s)] * size for size, s in blocks_q if size], axis=0)
    mass_p = np.prod(site_p[np.arange(n)[None, :], words], axis=1)
    mass_q = np.prod(site_q[np.arange(n)[None, :], words], axis=1)
    return tv_distance(mass_p, mass_q)


# ---------------------------------------------------------------- exact TV


def test_a_report_json_holds_exactly_its_fields_in_order():
    # the reports whose JSON is their fields as they are
    law = PointMass([[0.9, 0.2], [0.1, 0.8]])
    params = EhrenfestParams(64, 0.25)
    for report in (
        TVEstimate(0.5, "upper_bound", 0.01, 100),
        ehrenfest_bounds(params, t=3.0),
        ehrenfest_bounds(params, t=3.0, beta=1.0),
        loglog_schedule(64, 0.5),
        estimate_lyapunov(law, 4, 2, 0),
        collapse_diagnostic(law, 4, 3, 0),
    ):
        fields = [f.name for f in dataclasses.fields(report)]
        assert list(report.to_json()) == fields
        for name, value in report.to_json().items():
            assert not isinstance(value, tuple)
            want = getattr(report, name)
            assert value == (list(want) if isinstance(want, tuple) else want)


def test_tv_estimate_validation():
    est = TVEstimate(0.5, "upper_bound", 0.01, 100)
    assert est.to_json() == {
        "value": 0.5,
        "kind": "upper_bound",
        "mc_std_error": 0.01,
        "replicates": 100,
    }
    assert TVEstimate(1.0 + 5e-10, "exact").value == 1.0
    assert TVEstimate(-5e-10, "exact").value == 0.0
    with pytest.raises(RuntimeError):
        TVEstimate(0.5, "approximate")
    # a value outside [0, 1] can only come from the program itself
    for value in (1.2, -0.1, math.nan):
        with pytest.raises(FloatingPointError):
            TVEstimate(value, "exact")
    with pytest.raises(RuntimeError):
        TVEstimate(0.5, "exact", mc_std_error=0.1)
    with pytest.raises(RuntimeError):
        TVEstimate(0.5, "upper_bound", mc_std_error=-0.1)


def test_product_multinomial_law_validation():
    law = ProductMultinomialLaw(((3, (0.2, 0.8)), (2, (0.5, 0.5))))
    assert law.k == 2
    assert law.n == 5
    with pytest.raises(ValidationError):
        ProductMultinomialLaw(())
    with pytest.raises(ValidationError):
        ProductMultinomialLaw(((2, (0.2, 0.9)),))
    with pytest.raises(ValidationError):
        ProductMultinomialLaw(((-1, (0.5, 0.5)),))
    with pytest.raises(ValidationError):
        ProductMultinomialLaw(((2, (0.5, 0.5)), (1, (0.2, 0.3, 0.5))))


def test_tv_exact_identical_laws_is_zero():
    law = ProductMultinomialLaw(((4, (0.1, 0.6, 0.3)), (2, (0.4, 0.4, 0.2))))
    est = tv_exact_product_multinomial(law, law)
    assert est.kind == "exact"
    assert est.value == 0.0


def test_tv_exact_bernoulli_single_site():
    for p1, q1 in [(0.3, 0.8), (0.5, 0.5), (0.0, 1.0), (0.25, 0.3)]:
        p = ProductMultinomialLaw(((1, (p1, 1 - p1)),))
        q = ProductMultinomialLaw(((1, (q1, 1 - q1)),))
        assert abs(tv_exact_product_multinomial(p, q).value - abs(p1 - q1)) < 1e-12


def test_tv_exact_two_blocks_vs_configuration_oracle():
    blocks_p = [(3, (0.2, 0.8)), (2, (0.7, 0.3))]
    blocks_q = [(3, (0.45, 0.55)), (2, (0.7, 0.3))]
    got = tv_exact_product_multinomial(
        ProductMultinomialLaw(tuple(blocks_p)), ProductMultinomialLaw(tuple(blocks_q))
    )
    assert abs(got.value - configuration_tv(blocks_p, blocks_q)) < 1e-12


def test_tv_exact_structure_mismatch_rejected():
    p = ProductMultinomialLaw(((2, (0.5, 0.5)),))
    with pytest.raises(ValidationError):
        tv_exact_product_multinomial(p, ProductMultinomialLaw(((3, (0.5, 0.5)),)))
    with pytest.raises(ValidationError):
        tv_exact_product_multinomial(
            p, ProductMultinomialLaw(((2, (0.5, 0.5)), (1, (1.0, 0.0))))
        )


def test_count_statistic_matches_configuration_space():
    # sufficiency: the per-block count vectors lose nothing for this pair
    rng = np.random.default_rng(20)
    for _ in range(30):
        k = int(rng.integers(2, 4))
        sizes = []
        while sum(sizes) < 2 or k ** sum(sizes) > 4096:
            sizes = list(rng.integers(1, 5, size=rng.integers(1, 4)))
            if k ** sum(sizes) > 4096:
                sizes = []
        blocks_p = [(s, tuple(rng.dirichlet(np.ones(k)))) for s in sizes]
        blocks_q = [(s, tuple(rng.dirichlet(np.ones(k)))) for s in sizes]
        got = tv_exact_product_multinomial(
            ProductMultinomialLaw(tuple(blocks_p)), ProductMultinomialLaw(tuple(blocks_q))
        ).value
        assert abs(got - configuration_tv(blocks_p, blocks_q)) < 1e-10


def test_tv_axioms_on_exact_values():
    rng = np.random.default_rng(21)
    make = lambda: ProductMultinomialLaw(
        ((3, tuple(rng.dirichlet([1, 1]))), (2, tuple(rng.dirichlet([1, 1]))))
    )
    for _ in range(25):
        a, b, c = make(), make(), make()
        d_ab = tv_exact_product_multinomial(a, b).value
        d_ba = tv_exact_product_multinomial(b, a).value
        d_bc = tv_exact_product_multinomial(b, c).value
        d_ac = tv_exact_product_multinomial(a, c).value
        assert abs(d_ab - d_ba) < 1e-12
        assert 0.0 <= d_ab <= 1.0
        assert d_ac <= d_ab + d_bc + 1e-12


def test_tv_exact_budget_refusal(enumeration_budget):
    p = ProductMultinomialLaw(((30, (0.3, 0.3, 0.2, 0.2)),))
    q = ProductMultinomialLaw(((30, (0.25, 0.25, 0.25, 0.25)),))
    enumeration_budget(100)
    with pytest.raises(BudgetRefusal) as exc:
        tv_exact_product_multinomial(p, q)
    assert exc.value.details["required"] > 100


# ----------------------------------------------------- conditional / atomic


def test_tv_conditional_rank_one_matrix_zero():
    rank1 = StochasticMatrix([[0.3, 0.3], [0.7, 0.7]])
    rng = np.random.default_rng(3)
    for _ in range(10):
        w1 = tuple(int(c) for c in rng.integers(1, 3, size=5))
        w2 = tuple(int(c) for c in rng.integers(1, 3, size=5))
        assert conditional_tv(rank1.entries, Coloring(5, 2, w1), Coloring(5, 2, w2)) < 1e-12


def test_tv_conditional_matches_exhaustive_enumeration():
    rng = np.random.default_rng(4)
    for n, k in [(4, 2), (5, 2), (4, 3)]:
        kernels = {}
        for _ in range(8):
            s = random_stochastic(rng, k)
            key = s.tobytes()
            if key not in kernels:
                kernels[key] = product_step_kernel(s, n)
            kernel = kernels[key]
            w1 = tuple(int(c) for c in rng.integers(1, k + 1, size=n))
            w2 = tuple(int(c) for c in rng.integers(1, k + 1, size=n))
            x1, x2 = Coloring(n, k, w1), Coloring(n, k, w2)
            if x1 == x2:
                # equal starts never reach the kernel: tv_upper_mc answers
                # 0 first (test_tv_upper_equal_states_is_exact_zero)
                continue
            got = conditional_tv(s, x1, x2)
            place = k ** np.arange(n - 1, -1, -1)
            i1 = int(((np.array(w1) - 1) * place).sum())
            i2 = int(((np.array(w2) - 1) * place).sum())
            assert abs(got - tv_distance(kernel[i1], kernel[i2])) < 1e-10


def test_tv_atomic_m0_is_indicator():
    law = Atomic([np.eye(2), [[0.5, 0.5], [0.5, 0.5]]], [0.5, 0.5])
    x = Coloring.constant(4, 2, 1)
    y = Coloring.constant(4, 2, 2)
    assert tv_exact_atomic(law, x, y, 0).value == 1.0
    assert tv_exact_atomic(law, x, x, 0).value == 0.0


def test_tv_atomic_single_atom_equals_conditional_power():
    s = np.array([[0.8, 0.3], [0.2, 0.7]])
    law = Atomic([s], [1.0])
    x = Coloring(4, 2, (1, 1, 2, 2))
    y = Coloring(4, 2, (1, 2, 1, 2))
    for m in range(1, 5):
        got = tv_exact_atomic(law, x, y, m).value
        want = conditional_tv(np.linalg.matrix_power(s, m), x, y)
        assert abs(got - want) < 1e-12


def test_tv_atomic_matches_full_state_brute_force():
    atoms = [
        np.array([[0.8, 0.3], [0.2, 0.7]]),
        np.array([[0.4, 0.9], [0.6, 0.1]]),
    ]
    weights = [0.3, 0.7]
    law = Atomic(atoms, weights)
    n, k = 4, 2
    one_step = weights[0] * product_step_kernel(atoms[0], n) + weights[1] * product_step_kernel(atoms[1], n)
    x = Coloring(n, k, (1, 1, 1, 2))
    y = Coloring(n, k, (2, 1, 2, 2))
    place = k ** np.arange(n - 1, -1, -1)
    ix = int(((np.array(x.word) - 1) * place).sum())
    iy = int(((np.array(y.word) - 1) * place).sum())
    kernel = np.eye(k**n)
    for m in range(1, 4):
        kernel = kernel @ one_step
        got = tv_exact_atomic(law, x, y, m).value
        assert abs(got - tv_distance(kernel[ix], kernel[iy])) < 1e-12


def test_tv_atomic_gates(enumeration_budget):
    law = Atomic([np.eye(2), [[0.5, 0.5], [0.5, 0.5]]], [0.5, 0.5])
    x, y = make_constant_pair(6, 2)
    enumeration_budget(10)
    with pytest.raises(BudgetRefusal) as exc:
        tv_exact_atomic(law, x, y, 5)
    assert exc.value.details["required"] > 10
    with pytest.raises(TheoryRefusal):
        tv_exact_atomic(DirichletColumns(np.ones((2, 2))), x, y, 2)
    with pytest.raises(ValidationError):
        tv_exact_atomic(law, x, y, -1)


# ------------------------------------------------------------ MC estimators


def test_tv_upper_equal_states_is_exact_zero():
    law = SelfSimilar([1.0, 1.0])
    x = Coloring(4, 2, (1, 2, 1, 2))
    est = tv_upper_mc(law, x, x, m=3, replicates=50, seed=1)
    assert est.value == 0.0
    assert est.mc_std_error == 0.0
    assert est.kind == "upper_bound"


def test_tv_upper_point_mass_equals_exact():
    s = np.array([[0.85, 0.25], [0.15, 0.75]])
    law = PointMass(s)
    x, y = make_constant_pair(10, 2)
    for m in (1, 3, 6):
        up = tv_upper_mc(law, x, y, m, replicates=7, seed=3)
        ex = tv_exact_atomic(law, x, y, m)
        assert up.mc_std_error < 1e-15
        assert abs(up.value - ex.value) < 1e-10


def test_tv_upper_point_mass_general_pair_uses_cell_kernel():
    # three informative cells at k=3 exercises the per-replicate path
    s = random_stochastic(np.random.default_rng(9), 3)
    law = PointMass(s)
    x = Coloring(6, 3, (1, 1, 2, 2, 3, 3))
    y = Coloring(6, 3, (1, 2, 3, 2, 1, 3))
    up = tv_upper_mc(law, x, y, m=2, replicates=4, seed=0)
    ex = tv_exact_atomic(law, x, y, 2)
    assert abs(up.value - ex.value) < 1e-10


def test_tv_upper_dominates_exact_for_atomic_law():
    law = Atomic(
        [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]]], [0.5, 0.5]
    )
    x, y = make_constant_pair(8, 2)
    for m in (1, 2, 3):
        ex = tv_exact_atomic(law, x, y, m)
        up = tv_upper_mc(law, x, y, m, replicates=400, seed=11)
        assert up.value + 3.0 * up.mc_std_error >= ex.value - 1e-12


def test_tv_upper_pathwise_monotone_in_m():
    # same seed shares the paintbox prefix, so the coupling mean cannot rise
    law = SelfSimilar([1.0, 1.0])
    x, y = make_constant_pair(12, 2)
    values = [tv_upper_mc(law, x, y, m, replicates=60, seed=5).value for m in range(1, 7)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_tv_upper_collapsing_law_drives_to_zero():
    law = SelfSimilar([1.0, 1.0])
    x, y = make_constant_pair(16, 2)
    early = tv_upper_mc(law, x, y, 1, replicates=300, seed=2)
    late = tv_upper_mc(law, x, y, 10, replicates=300, seed=2)
    assert late.value < 0.02
    assert late.value < early.value


def test_make_test_pair_layout():
    x, y = make_test_pair(8, 2)
    assert x.word == (1, 1, 1, 1, 2, 2, 2, 2)
    assert y.word == (1, 1, 2, 2, 2, 2, 1, 1)
    x3, y3 = make_test_pair(24, 3)
    assert x3.word[:4] == (1, 1, 1, 1) and y3.word[:4] == (1, 1, 2, 2)
    # every color pair shows up as a refinement cell once blocks merge
    assert x3.n == 24 and len(set(zip(x3.word, y3.word))) == 9
    with pytest.raises(ValidationError):
        make_test_pair(10, 2)
    with pytest.raises(ValidationError):
        make_test_pair(8, 1)


def test_tv_lower_m0_distinct_designs():
    law = SelfSimilar([1.0, 1.0])
    x, y = make_test_pair(8, 2)
    est = tv_lower_mc(law, x, y, m=0, replicates=20, seed=0)
    assert est.value == 1.0
    assert est.mc_std_error == 0.0
    assert est.kind == "lower_bound"


def binom_pmf(n, p):
    return np.array([math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)])


def test_tv_lower_point_mass_matches_convolution_oracle():
    s = np.array([[0.8, 0.35], [0.2, 0.65]])
    law = PointMass(s)
    n_prime = 3
    x, y = make_test_pair(4 * n_prime, 2)
    for m in (1, 2, 4):
        q = np.linalg.matrix_power(s, m)
        pmf_p = np.convolve(binom_pmf(n_prime, q[1, 0]), binom_pmf(n_prime, q[0, 1]))
        pmf_q = np.convolve(binom_pmf(n_prime, q[1, 1]), binom_pmf(n_prime, q[0, 0]))
        want = tv_distance(pmf_p, pmf_q)
        est = tv_lower_mc(law, x, y, m, replicates=5, seed=7)
        assert est.mc_std_error < 1e-14
        assert abs(est.value - want) < 1e-10


ATOMIC_K2 = Atomic([[[0.9, 0.2], [0.1, 0.8]], [[0.7, 0.05], [0.3, 0.95]]], [0.5, 0.5])
ATOMIC_K3 = Atomic(
    [
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ],
    [0.4, 0.6],
)


def assert_lower_matches_reference(law, n_prime, m, replicates, seed):
    k = law.k
    x, y = make_test_pair(2 * k * (k - 1) * n_prime, k)
    est = tv_lower_mc(law, x, y, m, replicates, seed)
    qs = batched_products(law, m, replicates, seed)
    value, se = tv_lower_reference(qs, k, n_prime)
    assert abs(est.value - value) <= 1e-12
    assert abs(est.mc_std_error - se) <= 1e-12
    return est


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n_prime", [1, 3, 17, 256])
def test_tv_lower_matches_per_row_pmf_reference(k, n_prime):
    # the Dirichlet law draws a fresh paintbox per replicate; the atomic one
    # keeps the bound well above 0, where it is not floored
    values = []
    for law in (SelfSimilar([1.0] * k), ATOMIC_K2 if k == 2 else ATOMIC_K3):
        for m, replicates in ((1, 50), (2, 97)):
            values.append(assert_lower_matches_reference(law, n_prime, m, replicates, 11).value)
    assert max(values) > 0.2


@pytest.mark.parametrize("k, n_prime", [(2, 1), (2, 7), (2, 12), (3, 1), (3, 4)])
def test_statistic_spectra_invert_to_exact_convolutions(k, n_prime):
    rng = np.random.default_rng(5)
    qs = np.stack(
        [random_stochastic(rng, k) for _ in range(4)]
        + [np.eye(k), np.eye(k)[::-1], np.full((k, k), 1.0 / k)]
    )
    length = k * (k - 1) * n_prime + 1
    for tilde in (False, True):
        buffers = _spectrum_buffers(len(qs), length // 2 + 1)
        pmfs = np.fft.irfft(_statistic_spectra(qs, k, n_prime, tilde, buffers), length, axis=1)
        for q, pmf in zip(qs, pmfs):
            want = block_statistic_pmf_fraction(q, k, n_prime, tilde)
            assert np.max(np.abs(pmf - want)) <= 1e-14
        assert np.max(np.abs(block_statistic_pmfs(qs, k, n_prime, tilde) - pmfs)) <= 1e-14


@pytest.mark.parametrize("n_prime", [1, 2, 5])
def test_x0_tilde_statistic_law_is_the_x0_law_reversed_at_k2(n_prime):
    # exact rationals, on columns that sum to 1 exactly, with entries 0 and 1
    qs = [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 0.375], [0.0, 0.625]],
        [[0.25, 0.0], [0.75, 1.0]],
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.8125, 0.1875], [0.1875, 0.8125]],
    ]
    for q in np.array(qs):
        x0 = block_statistic_pmf_fraction(q, 2, n_prime, False)
        assert np.array_equal(block_statistic_pmf_fraction(q, 2, n_prime, True), x0[::-1])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_tv_lower_is_never_above_the_exact_value(entries, weight, n_prime, m):
    # the bound projects the replicates' own mixture, so it is compared with
    # that mixture's exact TV: one step of the law whose atoms are the drawn
    # products, weighted by their counts. Against the sampled law it holds
    # only with high probability: at weights 1e-5 and 1 - 1e-5 on the atoms
    # [[0, 0], [1, 1]] and [[0, 1], [1, 0]] (n' = 1, m = 1) no replicate of
    # 2000 draws the rare one, and the bound reads 1.0 with error 0 against
    # the exact 0.99999
    a, b, c, d = entries
    law = Atomic([[[a, b], [1.0 - a, 1.0 - b]], [[c, d], [1.0 - c, 1.0 - d]]], [weight, 1.0 - weight])
    x, y = make_test_pair(4 * n_prime, 2)
    lower = tv_lower_mc(law, x, y, m, replicates=200, seed=0)
    products, counts = np.unique(batched_products(law, m, 200, 0), axis=0, return_counts=True)
    drawn = Atomic(list(products), counts / 200)
    assert lower.value <= tv_exact_atomic(drawn, x, y, 1).value + 1e-12


def test_power_matches_repeated_products_and_keeps_powers_of_two_in_place():
    z = np.exp(1j * np.linspace(0.0, 3.0, 7)) * np.linspace(0.5, 1.0, 7)
    for e in range(1, 40):
        want = np.ones_like(z)
        for _ in range(e):
            want = want * z
        work = z.copy()
        got = _power(work, e, np.empty_like(work))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert (got is work) == (e & (e - 1) == 0)


@pytest.mark.parametrize("k, n_prime", [(2, 1), (2, 256), (3, 17), (3, 1000)])
def test_tv_lower_m0_is_exactly_one_in_every_chunking(k, n_prime):
    x, y = make_test_pair(2 * k * (k - 1) * n_prime, k)
    rows = _CACHE_BUDGET // (k * (k - 1) * n_prime // 2 + 1)
    for replicates in (1, 2, rows + 1, 2 * rows + 3):
        est = tv_lower_mc(SelfSimilar([1.0] * k), x, y, m=0, replicates=replicates, seed=0)
        assert est.value == 1.0
        assert est.mc_std_error == 0.0


@pytest.mark.parametrize(
    "matrix",
    [[[1.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.3], [0.0, 0.7]]],
)
def test_tv_lower_point_mass_with_zero_one_entries(matrix):
    law = PointMass(matrix)
    for m in (1, 2):
        est = assert_lower_matches_reference(law, 5, m, 9, 0)
        assert est.mc_std_error == 0.0


def test_tv_lower_single_replicate_and_ragged_chunks():
    est = assert_lower_matches_reference(SelfSimilar([1.0, 1.0]), 256, 1, 1, 3)
    assert est.mc_std_error == 0.0
    # several chunks, the last one partial
    rows = _CACHE_BUDGET // (2 * 256 // 2 + 1)
    assert_lower_matches_reference(ATOMIC_K2, 256, 3, 3 * rows + 11, 3)
    assert_lower_matches_reference(SelfSimilar([1.0, 1.0]), 256, 1, 3 * rows + 11, 3)


def test_tv_lower_peak_memory_stays_small(traced_peak):
    # holding every replicate's pmf, as a per-row FFT path does, peaks at
    # about 67 MiB here
    law = SelfSimilar([1.0, 1.0])
    x, y = make_test_pair(1024, 2)
    assert traced_peak(tv_lower_mc, law, x, y, m=1, replicates=2000, seed=0) <= 8 * 2**20


@pytest.mark.parametrize(
    "law, n, m, seed, value, se",
    [
        # the benchmark's tv_lower_block query: 16 chunks, mirrored spectra
        (SelfSimilar([1.0, 1.0]), 1024, 1, 11, 0.0020265041980914444, 0.01826626983338075),
        # the benchmark's k = 3 block pair: one chunk
        (ATOMIC_K3, 12, 2, 5, 0.24657556740701952, 0.001571647464738456),
        # k = 3 in two chunks, the last one partial
        (ATOMIC_K3, 120, 2, 5, 0.6651580427659598, 0.003014525635631758),
    ],
)
def test_tv_lower_is_pinned(law, n, m, seed, value, se):
    x, y = make_test_pair(n, law.k)
    est = tv_lower_mc(law, x, y, m, 2000, seed)
    assert est.value == value
    assert est.mc_std_error == se


def test_tv_lower_requires_block_design():
    law = SelfSimilar([1.0, 1.0])
    x, y = make_constant_pair(8, 2)
    with pytest.raises(TheoryRefusal):
        tv_lower_mc(law, x, y, m=1, replicates=10, seed=0)
    with pytest.raises(TheoryRefusal):
        # right n, wrong words
        a, b = make_test_pair(8, 2)
        tv_lower_mc(law, b, a, m=1, replicates=10, seed=0)
    with pytest.raises(TheoryRefusal):
        tv_lower_mc(law, Coloring.constant(10, 2, 1), Coloring.constant(10, 2, 2), 1)


def test_sandwich_lower_exact_upper():
    law = Atomic(
        [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]]], [0.4, 0.6]
    )
    x, y = make_test_pair(16, 2)
    for m in (1, 2):
        ex = tv_exact_atomic(law, x, y, m)
        lo = tv_lower_mc(law, x, y, m, replicates=500, seed=13)
        up = tv_upper_mc(law, x, y, m, replicates=500, seed=13)
        assert lo.value <= ex.value + 1e-9
        assert ex.value <= up.value + 3.0 * up.mc_std_error + 1e-9


# ------------------------------------------------------------ trend checks


def test_product_multinomial_tv_shrinks_with_subcritical_gap():
    # sup-norm gap n^(-0.6) beats the n^(-1/2) detection scale
    values = []
    for n in (10, 100, 1000):
        gap = n**-0.6
        p = ProductMultinomialLaw(((n, (0.5 + gap / 2, 0.5 - gap / 2)),))
        q = ProductMultinomialLaw(((n, (0.5 - gap / 2, 0.5 + gap / 2)),))
        values.append(tv_exact_product_multinomial(p, q).value)
    assert values[0] > values[1] > values[2]


def test_bernoulli_product_tv_grows_with_supercritical_gap():
    # per-coordinate gap m^(-0.4) loses to the sqrt(m) accumulation
    values = []
    for m in (10, 100, 1000):
        gap = m**-0.4
        p = ProductMultinomialLaw(((m, (0.5 + gap / 2, 0.5 - gap / 2)),))
        q = ProductMultinomialLaw(((m, (0.5 - gap / 2, 0.5 + gap / 2)),))
        values.append(tv_exact_product_multinomial(p, q).value)
    assert values[0] < values[1] < values[2]


# ------------------------------------------------------------- mixing time


def rank_one_plus_identity():
    return Atomic([[[1.0, 1.0], [0.0, 0.0]], np.eye(2)], [0.5, 0.5])


def slow_two_atom_law():
    return Atomic(
        [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]]], [0.5, 0.5]
    )


def test_mixing_profile_invariants():
    est = TVEstimate(0.4, "exact")
    with pytest.raises(RuntimeError):
        MixingProfile(4, (0.25,), ((3, est), (1, est)), {0.25: 3}, "exact_atomic")
    with pytest.raises(RuntimeError):
        MixingProfile(4, (0.25,), ((1, est),), {0.5: 1}, "exact_atomic")
    with pytest.raises(RuntimeError):
        MixingProfile(4, (0.5, 0.25), ((1, est),), {0.5: 3, 0.25: 1}, "exact_atomic")
    prof = MixingProfile(4, (0.5, 0.25), ((1, est), (2, est)), {0.5: 1, 0.25: 2}, "exact_atomic")
    assert dict(prof.estimates)[2] is est
    assert 7 not in dict(prof.estimates)
    blob = prof.to_json()
    assert blob["n"] == 4
    assert {row["epsilon"]: row["m"] for row in blob["t_mix"]} == {0.5: 1, 0.25: 2}


def test_mixing_time_rank_one_constant_in_n():
    law = rank_one_plus_identity()
    for n in (16, 64):
        prof = mixing_time(law, n, 2, epsilon=(0.75, 0.25), method="exact_atomic", seed=0)
        assert prof.t_mix[0.25] == 3
        assert prof.t_mix[0.75] == 1
        for m, est in prof.estimates:
            assert est.kind == "exact"
            assert abs(est.value - 0.5**m) < 1e-12


def test_mixing_time_methods_agree():
    law = slow_two_atom_law()
    exact = mixing_time(law, 12, 2, epsilon=0.25, method="exact_atomic", seed=0)
    mc = mixing_time(law, 12, 2, epsilon=0.25, method="mc_sandwich", seed=0, replicates=3000)
    assert exact.t_mix[0.25] is not None
    assert exact.t_mix[0.25] == mc.t_mix[0.25]


def test_mixing_time_epsilon_grid_monotone():
    law = slow_two_atom_law()
    prof = mixing_time(law, 32, 2, epsilon=(0.5, 0.25, 0.1), method="exact_atomic", seed=0)
    ts = [prof.t_mix[e] for e in (0.5, 0.25, 0.1)]
    assert all(t is not None for t in ts)
    assert ts[0] <= ts[1] <= ts[2]


def test_mixing_time_refuses_without_collapse_certificate():
    with pytest.raises(TheoryRefusal) as exc:
        mixing_time(PermutationMix(2), 8, 2, epsilon=0.25, method="exact_atomic", seed=0)
    assert "diagnostic" in exc.value.details


def test_mixing_time_budget_flags_inconclusive(enumeration_budget):
    law = slow_two_atom_law()
    # budget admits only m=1 (2 sequences x 9 counts); d-bar(1) is far above 1/4
    enumeration_budget(20)
    prof = mixing_time(law, 8, 2, epsilon=0.25, method="exact_atomic", seed=0)
    assert prof.t_mix[0.25] is None
    assert any("budget" in f for f in prof.flags)


def test_mixing_time_m_max_exhausted_flags():
    law = slow_two_atom_law()
    prof = mixing_time(law, 64, 2, epsilon=1e-9, method="exact_atomic", seed=0, m_max=2)
    assert prof.t_mix[1e-9] is None
    assert prof.flags


def test_mixing_time_validation():
    law = rank_one_plus_identity()
    with pytest.raises(ValidationError):
        mixing_time(law, 8, 2, epsilon=0.0, method="exact_atomic")
    with pytest.raises(ValidationError):
        mixing_time(law, 8, 2, epsilon=0.25, method="secret")
    with pytest.raises(ValidationError):
        mixing_time(law, 8, 3, epsilon=0.25, method="exact_atomic")


def test_mixing_time_mc_needs_two_replicates():
    law = slow_two_atom_law()
    for replicates in (1, 0, -3):
        with pytest.raises(ValidationError) as exc:
            mixing_time(law, 8, 2, epsilon=0.25, method="mc_sandwich", replicates=replicates)
        assert exc.value.field == "replicates"
    # refused before the gate, which would refuse this law
    with pytest.raises(ValidationError):
        mixing_time(PermutationMix(2), 8, 2, epsilon=0.25, replicates=1)
    # the exact search reads no replicates
    prof = mixing_time(law, 8, 2, epsilon=0.25, method="exact_atomic", replicates=1)
    assert prof.t_mix[0.25] is not None


def redraw_mixing_time(law, n, k, epsilon=0.25, method="mc_sandwich", seed=0,
                       replicates=2000, m_max=4096):
    """mixing_time with the full collapse diagnostic as its gate, then a
    forward search whose every probe is redrawn from step 1 by tv_upper_mc
    on the search's seed for every pair (or enumerated by
    tv_exact_atomic)."""
    try:
        epsilons = tuple(sorted({float(e) for e in epsilon}))
    except TypeError:
        epsilons = (float(epsilon),)
    stream = as_stream(seed)
    gate = collapse_diagnostic(law, seed=stream.derive("collapse-gate"))
    if gate.verdict != "yes":
        raise TheoryRefusal(
            "mixing-time search needs a certified collapsing product",
            diagnostic=gate.to_json(),
        )
    pairs = designed_pairs(n, k)

    def pair_estimates(m):
        for a, b in pairs:
            if method == "exact_atomic":
                yield tv_exact_atomic(law, a, b, m)
            else:
                yield tv_upper_mc(law, a, b, m, replicates, stream)

    estimates, t_mix, flags = mixing_search_redraw(
        pair_estimates, epsilons, m_max, method == "mc_sandwich", replicates
    )
    return MixingProfile(n, epsilons, tuple(estimates), t_mix, method, tuple(flags))


_SEARCH_CASES = {
    "two_atom_mc": (slow_two_atom_law(), 12, 2, dict(
        epsilon=(0.5, 0.25, 0.1), replicates=300, seed=3)),
    "two_atom_exact": (slow_two_atom_law(), 12, 2, dict(
        epsilon=(0.5, 0.25), method="exact_atomic", seed=3)),
    "two_atom_budget": (slow_two_atom_law(), 8, 2, dict(
        epsilon=0.25, method="exact_atomic")),
    # the k = 3 conditional TVs enumerate C(8, 2) = 28 > 20 count states
    "dirichlet_k3_mc_budget": (SelfSimilar([1.0, 1.0, 1.0]), 6, 3, dict(
        epsilon=0.25, replicates=50, seed=5)),
    "dirichlet_k2_cutoff_size": (SelfSimilar([1.0, 1.0]), 256, 2, dict(
        epsilon=(0.25, 0.75), replicates=400, m_max=64, seed=11)),
    "dirichlet_k3": (SelfSimilar([1.0, 1.0, 1.0]), 6, 3, dict(
        epsilon=(0.5, 0.25), replicates=200, seed=5)),
    "atomic_k3": (Atomic([
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ], [0.4, 0.6]), 5, 3, dict(epsilon=0.25, replicates=100, seed=8)),
    "m_max_exhausted_mc": (slow_two_atom_law(), 16, 2, dict(
        epsilon=1e-9, replicates=50, m_max=8, seed=2)),
    "two_replicates": (slow_two_atom_law(), 6, 2, dict(
        epsilon=(0.75, 0.3), replicates=2, m_max=32, seed=4)),
    # the first certified horizon is m_max itself, so the sweep ends there
    # with no flag
    "m_max_not_a_power_of_two": (Atomic([
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ], [0.4, 0.6]), 48, 3, dict(epsilon=0.5, method="exact_atomic", m_max=3)),
}


@pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
def test_mixing_time_matches_redraw_search(case, enumeration_budget):
    law, n, k, kwargs = _SEARCH_CASES[case]
    if case.endswith("_budget"):
        enumeration_budget(20)  # admits only m = 1 of two_atom_budget
    got = mixing_time(law, n, k, **kwargs).to_json()
    assert got == redraw_mixing_time(law, n, k, **kwargs).to_json()
    if case == "m_max_exhausted_mc":
        assert got["flags"] and all(row["m"] is None for row in got["t_mix"])
    if case == "two_atom_budget":
        assert any("budget" in f for f in got["flags"])
    if case == "dirichlet_k3_mc_budget":
        assert got["flags"] == ["enumeration budget reached at m=1 (28 needed)"]
        assert got["estimates"] == [] and got["t_mix"] == [{"epsilon": 0.25, "m": None}]
    if case == "m_max_not_a_power_of_two":
        assert got["t_mix"] == [{"epsilon": 0.5, "m": 3}] and not got["flags"]
    if not got["flags"]:
        # one forward sweep, to the last crossing and no further
        last = max(row["m"] for row in got["t_mix"])
        assert [e["m"] for e in got["estimates"]] == list(range(1, last + 1))


def test_mixing_time_stops_at_its_crossing_inside_the_enumeration_budget():
    # criterion 09's law at n = 1000: m = 9 enumerates 2^9 sequences of 1001
    # states, while a probe at m = 16 would need 2^16 * 1001 > 2e7
    law = slow_two_atom_law()
    prof = mixing_time(law, 1000, 2, epsilon=(0.01, 0.001), method="exact_atomic")
    assert prof.t_mix == {0.01: 7, 0.001: 9} and prof.flags == ()
    assert [m for m, _ in prof.estimates] == list(range(1, 10))
    x, y = make_constant_pair(1000, 2)
    for m, est in prof.estimates:
        assert est == tv_exact_atomic(law, x, y, m)
    values = dict(prof.estimates)
    for m, want in {6: 0.01819, 7: 0.005926, 8: 0.001924, 9: 0.0006250}.items():
        assert values[m].value == pytest.approx(want, rel=1e-3), m


@pytest.mark.parametrize("law", [PermutationMix(2), PermutationMix(3), PointMass(np.eye(2))])
def test_mixing_time_refusal_matches_redraw_search(law):
    with pytest.raises(TheoryRefusal) as got:
        mixing_time(law, 6, law.k, epsilon=0.25, seed=9)
    with pytest.raises(TheoryRefusal) as want:
        redraw_mixing_time(law, 6, law.k, epsilon=0.25, seed=9)
    assert got.value.reason == want.value.reason
    assert got.value.details == want.value.details
    diagnostic = collapse_diagnostic(law, seed=as_stream(9).derive("collapse-gate"))
    assert got.value.details["diagnostic"] == diagnostic.to_json()
    assert diagnostic.verdict == "undetermined"


def test_cutoff_experiment_matches_redraw_search(monkeypatch):
    law = SelfSimilar([1.0, 1.0])
    kwargs = dict(seed=7, replicates=200, m_max=64, lyapunov_m=200, lyapunov_replicates=4)
    got = cutoff_experiment(law, 2, (32, 64, 128), 0.25, **kwargs).to_json()
    monkeypatch.setattr(mixing_module, "mixing_time", redraw_mixing_time)
    want = cutoff_experiment(law, 2, (32, 64, 128), 0.25, **kwargs).to_json()
    assert got == want
    assert all(row["m"] is not None for p in got["profiles"] for row in p["t_mix"])


def test_cutoff_experiment_flags_a_size_past_the_budget(enumeration_budget):
    # the k = 3 conditional TVs enumerate C(6, 2) = 15 states at n = 4 and
    # C(42, 2) = 861 at n = 40: only the larger size is refused
    enumeration_budget(100)
    rep = cutoff_experiment(SelfSimilar([1.0, 1.0, 1.0]), 3, (4, 40), 0.25, seed=7,
                            replicates=50, m_max=64, lyapunov_m=50, lyapunov_replicates=4)
    assert rep.flags == ("n=40: enumeration budget reached at m=1 (861 needed)",)
    small, large = rep.profiles
    assert not small.flags and None not in small.t_mix.values()
    assert large.estimates == () and set(large.t_mix.values()) == {None}


def test_gate_draws_one_step_on_a_witness_first_law(monkeypatch):
    law = slow_two_atom_law()
    # every atom contracts V, so every replicate is a witness at m = 1
    sizes = []
    sample_batch = law.sample_batch

    def counted(rng, size):
        sizes.append(size)
        return sample_batch(rng, size)

    monkeypatch.setattr(law, "sample_batch", counted)
    mixing_time(law, 8, 2, epsilon=0.25, method="exact_atomic", seed=1)
    assert sizes == [200]
    sizes.clear()
    collapse_diagnostic(law, seed=as_stream(1).derive("collapse-gate"))
    assert sizes == [200] * 32


def test_each_sampled_path_builds_one_generator(monkeypatch):
    made = []
    generator = RngStream.generator

    def counted(self):
        made.append(self)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", counted)

    def built(run):
        made.clear()
        run()
        return len(made)

    law = SelfSimilar([1.0, 1.0, 1.0])
    x, y = make_constant_pair(6, 3)
    assert built(lambda: collapse_diagnostic(law, seed=3)) == 1
    assert built(lambda: estimate_lyapunov(law, 50, 8, 3)) == 1
    assert built(lambda: tv_upper_mc(law, x, y, 5, 40, 3)) == 1
    made.clear()
    with pytest.raises(TheoryRefusal):
        mixing_time(PermutationMix(3), 6, 3, epsilon=0.25, seed=3)
    assert len(made) == 1
    # the gate's path and the search's one path, however many horizons and
    # pairs (three at k = 3) the sweep scores
    made.clear()
    prof = mixing_time(law, 6, 3, epsilon=(0.5, 0.25), replicates=100, seed=5)
    assert len(made) == 2
    assert len(prof.estimates) > 1 and not prof.flags


@pytest.mark.parametrize("law", [
    slow_two_atom_law(),
    SelfSimilar([0.5, 2.0]),
    Atomic([
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ], [0.4, 0.6]),
    DirichletColumns(np.array([[1.0, 0.5, 2.0], [1.0, 1.0, 1.0], [0.3, 1.0, 1.0]])),
], ids=["atomic_k2", "dirichlet_k2", "atomic_k3", "dirichlet_columns_k3"])
def test_product_path_matches_fresh_products(law):
    # every product along one path, kept past the steps after it, has the
    # bits of a fresh composition from step 1
    path = list(itertools.islice(_products(law, 7, 42), 9))
    gen, k = as_stream(42).derive("paintbox-path").generator(), law.k
    q = np.broadcast_to(np.eye(k), (7, k, k))
    for m, got in enumerate(path):
        if m:
            q = law.sample_batch(gen, 7) @ q
        assert np.array_equal(got, q), m
        assert np.array_equal(got, batched_products(law, m, 7, 42)), m
    with pytest.raises(ValidationError):
        batched_products(law, -1, 7, 42)


# ------------------------------------------------------------------ cutoff


def test_cutoff_requires_smooth_family():
    with pytest.raises(TheoryRefusal):
        cutoff_experiment(PointMass(np.eye(2)), 2, (16, 32), epsilon=0.25, seed=0)
    with pytest.raises(TheoryRefusal):
        cutoff_experiment(rank_one_plus_identity(), 2, (16, 32), epsilon=0.25, seed=0)


def test_cutoff_validation():
    law = SelfSimilar([1.0, 1.0])
    with pytest.raises(ValidationError):
        cutoff_experiment(law, 2, (16, 32), epsilon=0.5, seed=0)
    with pytest.raises(ValidationError):
        cutoff_experiment(law, 2, (32, 16), epsilon=0.25, seed=0)
    with pytest.raises(ValidationError):
        cutoff_experiment(law, 2, (16,), epsilon=0.25, seed=0)


@pytest.mark.parametrize("settings,field", [
    ({"replicates": 1}, "replicates"), ({"m_max": 0}, "m_max"), ({"epsilon": 0.5}, "epsilon"),
    ({"k": 3}, "k"), ({"n_grid": (0, 32)}, "n_grid"), ({"lyapunov_m": 0}, "lyapunov_m"),
    ({"lyapunov_replicates": 0}, "lyapunov_replicates"),
])
def test_cutoff_names_its_own_setting_before_any_work(monkeypatch, settings, field):
    calls = []

    def recorded(*args):
        calls.append(args)
        return estimate_lyapunov(*args)

    monkeypatch.setattr(mixing_module, "estimate_lyapunov", recorded)
    kwargs = {"k": 2, "n_grid": (16, 32), "lyapunov_m": 10, "lyapunov_replicates": 2, **settings}
    with pytest.raises(ValidationError) as err:
        cutoff_experiment(SelfSimilar([1.0, 1.0]), **kwargs)
    assert err.value.field == field
    # only the estimate's own settings reach it, and it refuses them at once
    assert not calls or field.startswith("lyapunov_")


def test_cutoff_smoke_report_shape():
    law = SelfSimilar([1.0, 1.0])
    report = cutoff_experiment(
        law, 2, (16, 32, 64), epsilon=0.25, seed=4,
        replicates=400, m_max=64, lyapunov_m=400, lyapunov_replicates=16,
    )
    assert 0.0 < report.lambda1_hat < 1.0
    assert report.theta_hat > 0.0
    assert len(report.profiles) == 3
    assert len(report.window_ratios) == 3
    blob = report.to_json()
    assert blob["theta_hat"] == report.theta_hat
    assert len(blob["profiles"]) == 3


# --------------------------------------------------------------- Ehrenfest


def test_ehrenfest_exact_matches_exhaustive_oracle():
    for n, a in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        params = EhrenfestParams(n, a / n)
        assert params.batch_size == a
        for t in (0, 1, 2, 3, 5):
            (_, got), = ehrenfest_tv_profile(params, [t])
            want = ehrenfest_exhaustive_tv(n, a, t)
            assert abs(got.value - want) < 1e-10, (n, a, t)


@pytest.mark.parametrize("n,a", [(40, 10), (64, 1), (64, 16), (97, 33), (128, 8), (64, 64)])
def test_ehrenfest_profile_matches_covering_oracle(n, a):
    # the covering process tracks (covered, ones among covered); agreeing
    # with it checks the one-count lumping well past the 2^n oracle's reach
    params = EhrenfestParams(n, a / n)
    assert params.batch_size == a
    grid = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    got = [est.value for _, est in ehrenfest_tv_profile(params, grid)]
    want = ehrenfest_covering_tvs(n, a, grid)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 2e-11


@pytest.mark.parametrize("n,a", [(16, 1), (16, 4), (20, 5), (24, 3), (24, 24)])
def test_ehrenfest_profile_matches_exact_rational_oracle(n, a):
    grid = [0, 1, 2, 5, 10, 20]
    got = [est.value for _, est in ehrenfest_tv_profile(EhrenfestParams(n, a / n), grid)]
    want = ehrenfest_fraction_tvs(n, a, grid)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-13


def test_ehrenfest_t0_point_mass_vs_stationary():
    for n in (3, 6, 10):
        (_, est), = ehrenfest_tv_profile(standard_ehrenfest(n), [0])
        assert abs(est.value - (1.0 - 2.0**-n)) < 1e-12


@pytest.mark.parametrize("n", [1029, 1100])
def test_single_site_stationary_law_is_binomial_past_the_double_range(n):
    # for a = 1 the stationary one-count law is Binomial(n, 1/2); its
    # unnormalised back-substitution grows like C(n, j), past 2^1024 here
    pi = _stationary(_count_moves(n, 1))
    want = np.array([float(Fraction(math.comb(n, j), 2**n)) for j in range(n + 1)])
    # the ratio-recurrence weights j / n and (n - j) / n are correct to an
    # ulp; log-factorial weights rounded at ulp(log n!) ~ 9e-13 relative,
    # about 2e-14 at the binomial mode 0.024
    assert np.max(np.abs(pi - want)) < 1e-16
    # the chain's own law, eliminated on the n // 2 + 1 folded states
    _, folded, _, _ = _one_count_chain(standard_ehrenfest(n))
    assert np.max(np.abs(folded - want)) < 1e-16


def _fold_cases():
    for n in (1, 2, 3, 4, 7, 8, 33):
        for a in sorted({1, n // 2, n // 2 + 1, n - 1, n} - {0}):
            yield n, a


@pytest.mark.parametrize("n,a", list(_fold_cases()))
def test_the_folded_stationary_law_matches_the_covering_and_dense_oracles(n, a):
    params = EhrenfestParams(n, a / n)
    assert params.batch_size == a
    moves, pi, _, _ = _one_count_chain(params)
    assert np.max(np.abs(pi - _covering_stationary(n, a, _covering_weights(n, a)))) < 1e-14
    assert np.max(np.abs(pi - dense_gth_stationary(ehrenfest_dense_kernel(n, a)))) < 1e-14
    # the color swap: pi and every row but a middle one are mirrors, bit for bit
    assert np.array_equal(pi, pi[::-1])
    mirrored = np.arange(n + 1) != n / 2
    assert np.array_equal(moves[mirrored], moves[::-1, ::-1][mirrored])
    if n == 1:
        assert pi.tolist() == [0.5, 0.5]


def test_the_elimination_runs_on_the_folded_states(monkeypatch):
    # a profile and a mixing search each eliminate once, on n // 2 + 1
    # states, among them batches wider than the folded chain
    sizes = []
    gth = lumped._gth
    monkeypatch.setattr(lumped, "_gth", lambda g, band: sizes.append(len(g)) or gth(g, band))
    for n, a in [(1, 1), (9, 9), (320, 80), (256, 16), (320, 1), (33, 20)]:
        params = EhrenfestParams(n, a / n)
        assert params.batch_size == a
        sizes.clear()
        ehrenfest_tv_profile(params, [0, 3])
        ehrenfest_mixing_time(params, 0.25)
        assert sizes == [n // 2 + 1] * 2, (n, a)


def _assert_band_matches_dense(n, a):
    moves = _count_moves(n, a)
    kernel = ehrenfest_dense_kernel(n, a)
    assert np.max(np.abs(_stationary(moves) - dense_gth_stationary(kernel))) < 1e-14
    row = np.zeros(n + 1)
    row[n] = 1.0
    horizons = range(1, 2 * n // a + 4)
    # the chain's own block length, and blocks of 4 steps that the horizons
    # pass through at every offset
    for b in (_block_length(n, a), 4):
        want = row.copy()
        for _, law in _sweep(moves, row, horizons, b):
            want = want @ kernel
            assert np.max(np.abs(law - want)) < 1e-14


@pytest.mark.parametrize(
    "n,a", [(1, 1), (7, 3), (40, 10), (64, 1), (64, 32), (64, 63), (64, 64), (97, 33)]
)
def test_band_sweep_and_stationary_law_match_the_dense_oracle(n, a):
    _assert_band_matches_dense(n, a)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_band_matches_the_dense_oracle_for_every_batch(na):
    _assert_band_matches_dense(*na)


def test_band_step_memory_is_linear_in_the_band(traced_peak):
    # one (n+1)^2 kernel at n = 1100 alone is 9.3 MiB; the band sweep holds
    # the (n+1)(2a+1) incoming band, about 0.2 MiB here
    n, a = 1100, 11
    moves = _count_moves(n, a)
    row = np.zeros(n + 1)
    row[n] = 1.0

    def sweep():
        for _ in _sweep(moves, row, range(1, 101), 1):
            pass

    assert traced_peak(sweep) < 2**20


def test_ehrenfest_sweep_keeps_its_mass_over_long_horizons():
    # each step's moves sum to 1 per count; unnormalised lgamma weights
    # drifted the exact value linearly in t, to 5.4e-10 here
    (_, est), = ehrenfest_tv_profile(EhrenfestParams(64, 0.25), [20000])
    assert est.value <= 1e-12


def test_ehrenfest_profile_monotone_and_consistent():
    # t = 15 is a single step inside the first block, the last step of a
    # block and one step past a block end
    for n, batch, b in [(20, 4, 128), (200, 8, 8), (256, 16, 2)]:
        params = EhrenfestParams(n, batch / n)
        assert params.batch_size == batch and _block_length(n, batch) == b
        profile = ehrenfest_tv_profile(params, range(0, 26, 5))
        values = [est.value for _, est in profile]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        # the law at 15 has the same bits asked alone and in the mixing search
        (_, lone), (_, after) = ehrenfest_tv_profile(params, [15, 16])
        assert dict(profile)[15].value == lone.value
        assert after.value < lone.value
        assert ehrenfest_mixing_time(params, lone.value) == 16


def test_ehrenfest_exact_gates():
    with pytest.raises(BudgetRefusal):
        ehrenfest_tv_profile(EhrenfestParams(4000, 0.25), [3])
    params = EhrenfestParams(6, 0.5)
    with pytest.raises(ValidationError):
        ehrenfest_tv_profile(params, [])
    with pytest.raises(ValidationError):
        ehrenfest_tv_profile(params, [-1, 2])


@pytest.mark.parametrize("grid", [[2.7, 3], [True], [False, 2], [2, "x"]])
def test_ehrenfest_profile_refuses_a_horizon_that_is_not_a_whole_number(grid):
    # int() truncated 2.7 to 2 and read True as 1
    with pytest.raises(ValidationError) as exc:
        ehrenfest_tv_profile(EhrenfestParams(6, 0.5), grid)
    assert exc.value.field == "t_grid"
    # a whole number given as a float is that horizon
    params = EhrenfestParams(6, 0.5)
    assert ehrenfest_tv_profile(params, [3.0, 5]) == ehrenfest_tv_profile(params, [3, 5])


def test_ehrenfest_mixing_time_matches_brute_force_n12():
    n = 12
    total = 1 << n
    idx = np.arange(total)
    kernel = np.zeros((total, total))
    for i in range(n):
        bit = 1 << (n - 1 - i)
        for c in (0, 1):
            dest = np.where(c == 1, idx | bit, idx & ~bit)
            np.add.at(kernel, (idx, dest), 1.0 / (2 * n))
    # single-site refresh is doubly stochastic, so stationarity is uniform
    assert np.allclose(kernel.sum(axis=0), 1.0, atol=1e-12)
    pi = np.full(total, 1.0 / total)

    # one representative start per ones-count class (site relabeling symmetry)
    ones = np.array([bin(x).count("1") for x in range(total)])
    reps = [int(np.flatnonzero(ones == c)[0]) for c in range(n + 1)]
    dist = np.zeros((len(reps), total))
    for r, x in enumerate(reps):
        dist[r, x] = 1.0
    t = 0
    while True:
        t += 1
        dist = dist @ kernel
        if 0.5 * np.abs(dist - pi).sum(axis=1).max() < 0.25:
            break
    assert ehrenfest_mixing_time(standard_ehrenfest(n), 0.25) == t


@pytest.mark.parametrize(
    "n, a, epsilon",
    [
        (12, 1, 0.25),
        (64, 16, 0.01),
        (200, 1, 0.1),
        (101, 7, 1e-6),
        # epsilon set to the exact TV at t = 40: the first t below it is 41
        (96, 3, "profile"),
    ],
)
def test_ehrenfest_mixing_time_matches_the_profile(n, a, epsilon):
    params = EhrenfestParams(n, a / n)
    assert params.batch_size == a
    profile = [tv.value for _, tv in ehrenfest_tv_profile(params, range(4000))]
    exact_value = epsilon == "profile"
    if exact_value:
        epsilon = profile[40]
    want = next(t for t, tv in enumerate(profile) if tv < epsilon)
    assert ehrenfest_mixing_time(params, epsilon) == want
    if exact_value:
        assert want == 41


def test_ehrenfest_constant_start_extremal_only_for_single_site():
    # the exact profile tracks the constant start; for batch refreshes that
    # start is not worst-case, which is why the profile never claims max
    kernel, pi = ehrenfest_exhaustive_kernel(8, 1)
    p3 = np.linalg.matrix_power(kernel, 3)
    tvs = 0.5 * np.abs(p3 - pi).sum(axis=1)
    assert tvs[0] >= tvs.max() - 1e-12
    kernel2, pi2 = ehrenfest_exhaustive_kernel(8, 2)
    q3 = np.linalg.matrix_power(kernel2, 3)
    tvs2 = 0.5 * np.abs(q3 - pi2).sum(axis=1)
    assert tvs2[0] < tvs2.max() - 1e-3


def test_ehrenfest_mixing_time_budget():
    # the allowance is ceil(2 n log n) + 8 n = 478 steps at n = 32, a = 1
    with pytest.raises(InconclusiveRefusal) as exc:
        ehrenfest_mixing_time(standard_ehrenfest(32), 1e-9)
    assert exc.value.details == {"epsilon": 1e-9, "t_max": 478}
    for epsilon in (1.5, 1e-300):
        with pytest.raises(ValidationError):
            ehrenfest_mixing_time(standard_ehrenfest(8), epsilon)


def test_ehrenfest_bounds_and_schedule_gates():
    params = EhrenfestParams(64, 0.25)
    bounds = ehrenfest_bounds(params, t=10, beta=1.0)
    assert abs(bounds.upper_at_t - 64 * (1 - 16 / 64) ** 10) < 1e-12
    assert abs(coupling_upper(params, 0) - 64.0) < 1e-12
    uppers = [ehrenfest_bounds(params, beta=b).upper_at_schedule for b in (1.0, 2.0, 3.0)]
    assert uppers[0] > uppers[1] > uppers[2]
    with pytest.raises(ValidationError):
        ehrenfest_bounds(params)
    with pytest.raises(TheoryRefusal):
        ehrenfest_bounds(EhrenfestParams(64, 0.75), beta=1.0)


def test_loglog_schedule_hits_target_rate():
    for n, beta in [(100, 1.0), (1000, 3.0), (10**6, 2.0)]:
        sched = loglog_schedule(n, beta)
        assert sched.upper_rate <= float(n) ** -beta * (1 + 1e-12)
        assert sched.upper_batch >= sched.upper_rate - 1e-15
    with pytest.raises(ValidationError):
        loglog_schedule(2, 1.0)
    with pytest.raises(ValidationError):
        loglog_schedule(100, 0.0)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_schedules_refuse_a_beta_that_is_not_positive(beta):
    # at beta = -1 the lower schedule time came after the upper one
    params = standard_ehrenfest(64)
    for schedule in (lambda: ehrenfest_bounds(params, beta=beta),
                     lambda: ehrenfest_bounds(params, t=3.0, beta=beta),
                     lambda: loglog_schedule(64, beta)):
        with pytest.raises(ValidationError, match=r"^need beta > 0$") as exc:
            schedule()
        assert exc.value.field == "beta"


def test_schedules_refuse_a_beta_whose_schedule_time_overflows():
    params = EhrenfestParams(64, 0.25)
    for schedule in (lambda: ehrenfest_bounds(params, beta=1e308),
                     lambda: loglog_schedule(1000, 1e308)):
        with pytest.raises(ValidationError, match="overflows") as exc:
            schedule()
        assert exc.value.field == "beta"
    # schedules near the largest float still answer
    assert math.isfinite(ehrenfest_bounds(params, beta=1e306).t_upper_schedule)
    assert math.isfinite(loglog_schedule(1000, 1e307).t)


def test_coupling_upper_refuses_a_t_that_is_not_nonnegative():
    params = EhrenfestParams(64, 0.25)
    for t in (-1.0, math.nan):
        with pytest.raises(ValidationError) as exc:
            coupling_upper(params, t)
        assert exc.value.field == "t"
    assert coupling_upper(params, 1e308) == 0.0


def test_lower_schedule_is_unset_before_time_zero():
    # (n / 2a) log n - beta n / a < 0 exactly when beta > (log n) / 2
    params = EhrenfestParams(64, 0.25)
    late = ehrenfest_bounds(params, beta=100.0)
    assert late.t_lower_schedule is None and late.lower_at_schedule is None
    assert late.t_upper_schedule == pytest.approx(2 * math.log(64) + 400)
    edge = ehrenfest_bounds(params, beta=math.log(64) / 2)
    assert edge.t_lower_schedule is not None and edge.t_lower_schedule >= 0
    assert ehrenfest_bounds(params, beta=math.log(64) / 2 * (1 + 1e-12)).t_lower_schedule is None
