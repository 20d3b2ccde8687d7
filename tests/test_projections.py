import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cutpaste.chains import run_efcp_matrix
from cutpaste.errors import BudgetRefusal, TheoryRefusal, ValidationError
from cutpaste.paintbox import Atomic, PermutationMix, PointMass
from cutpaste.partitions import Coloring, project
from cutpaste import projections
from cutpaste.lumped import _count_kernels, _rank
from cutpaste.projections import projected_mixing_equivalence
from cutpaste.tvlab.mixing import mixing_time

from _oracles import (
    closed_classes,
    eig_stationary,
    enumerate_colorings,
    lumped_kernel_by_class,
    mixture_step_kernel,
    orbit_classes,
    product_step_kernel,
    state_index,
    worst_tv_profile_dense,
)
from _tables import lifted_stationary, table_chain_kernel, word_counts


def orbit_closure_law(base):
    """Atomic law made row-column exchangeable by symmetrizing one matrix
    over all row and column permutations."""
    base = np.asarray(base, dtype=float)
    k = base.shape[0]
    seen = {}
    for rows in itertools.permutations(range(k)):
        for cols in itertools.permutations(range(k)):
            mat = base[np.ix_(rows, cols)]
            seen.setdefault(mat.tobytes(), mat)
    atoms = list(seen.values())
    return Atomic(atoms, [1.0 / len(atoms)] * len(atoms))


RCE_BASE = [[0.8, 0.3], [0.2, 0.7]]


def test_orbit_closure_is_rce():
    law = orbit_closure_law(RCE_BASE)
    assert law.is_rce().value is True
    assert len(law.as_atomic().atoms) == 4


def test_projected_chain_is_empirically_markov():
    """Next projected state must be independent of the labeling of the
    current state, checked per orbit with a chi-square statistic on the
    transition table (transitions out of a state are i.i.d. given the visit
    count, so the classical contingency test applies)."""
    law = orbit_closure_law(RCE_BASE)
    n = 3
    run = run_efcp_matrix(law, Coloring(n, 2, (1, 1, 2)), 9000, seed=17, thin=1)
    labels, _ = orbit_classes(n, 2)
    seq = [state_index(x) for x in run.trajectory]
    counts: dict[int, dict[tuple[int, int], int]] = {}
    for a, b in zip(seq, seq[1:]):
        cls = int(labels[a])
        table = counts.setdefault(cls, {})
        table[(a, int(labels[b]))] = table.get((a, int(labels[b])), 0) + 1
    checked = 0
    for cls, table in counts.items():
        rows = sorted({a for a, _ in table})
        cols = sorted({c for _, c in table})
        if len(rows) < 2 or len(cols) < 2:
            continue
        obs = np.array([[table.get((a, c), 0) for c in cols] for a in rows], dtype=float)
        if obs.sum(axis=1).min() < 50:
            continue
        expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
        stat = ((obs - expected) ** 2 / expected).sum()
        dof = (len(rows) - 1) * (len(cols) - 1)
        assert stat < chi2.ppf(0.999, dof), (cls, stat, dof)
        checked += 1
    assert checked >= 2


# ------------------------------------------- lumping identity (brute force)


@pytest.mark.parametrize(
    "law,n,k",
    [
        (orbit_closure_law(RCE_BASE), 3, 2),
        (PermutationMix(3), 3, 3),
        (orbit_closure_law([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]), 3, 3),
    ],
)
def test_lumped_kernel_counts_label_assignments(law, n, k):
    """Under an RCE law every labeling of a target partition is equally
    likely, so the lumped entry is the labeled entry times the number of
    injective block labelings k(k-1)...(k-r+1)."""
    assert law.is_rce().value is True
    kernel = mixture_step_kernel(law.as_atomic(), n)
    labels, reps = orbit_classes(n, k)
    lumped = lumped_kernel_by_class(kernel, labels)
    states = enumerate_colorings(n, k)
    by_class: dict[int, list[int]] = {}
    for i in range(len(states)):
        by_class.setdefault(int(labels[i]), []).append(i)
    for cls, members in by_class.items():
        r = project(states[members[0]]).block_count()
        falling = math.prod(k - i for i in range(r))
        assert len(members) == falling
        for x in range(len(states)):
            row = kernel[x, members]
            assert np.allclose(row, row[0], atol=1e-12)
            assert abs(lumped[labels[x], cls] - falling * row[0]) < 1e-10


# ------------------------------------------------------ mixing equivalence


def test_equivalence_exact_small_instance():
    law = orbit_closure_law(RCE_BASE)
    report = projected_mixing_equivalence(law, 4, 2, epsilon=(0.5, 0.25))
    assert report.equal_crossings
    assert report.t_labeled == report.t_projected
    assert all(t is not None for t in report.t_labeled.values())
    blob = report.to_json()
    assert blob["equal_crossings"] is True
    assert blob["profile"][0]["kind"] == "exact"


def test_equivalence_late_crossings_still_equal():
    # a slow two-atom law keeps the chains above 1/4 for several steps, so
    # the equality claim is exercised away from the trivial first horizon
    law = orbit_closure_law([[0.95, 0.05], [0.05, 0.95]])
    assert len(law.as_atomic().atoms) == 2
    report = projected_mixing_equivalence(law, 4, 2, epsilon=(0.5, 0.25))
    assert report.equal_crossings
    assert report.t_labeled[0.5] == 3
    assert report.t_labeled[0.25] == 6


@pytest.mark.parametrize("n,k", [(3, 2), (5, 2), (6, 2), (3, 3)])
def test_equivalence_and_contraction_across_instances(n, k):
    base = RCE_BASE if k == 2 else [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]]
    law = orbit_closure_law(base)
    report = projected_mixing_equivalence(law, n, k, epsilon=(0.5, 0.25, 0.1))
    assert report.equal_crossings, (n, k, report.t_labeled, report.t_projected)
    for _, tv_lab, tv_proj in report.profile:
        assert tv_proj <= tv_lab + 1e-9
    assert not report.flags


def test_equivalence_refuses_non_rce():
    with pytest.raises(TheoryRefusal) as exc:
        projected_mixing_equivalence(PointMass([[0.9, 0.2], [0.1, 0.8]]), 4, 2)
    assert "rce_reason" in exc.value.details
    with pytest.raises(TheoryRefusal):
        projected_mixing_equivalence(Atomic([RCE_BASE], [1.0]), 4, 2)


def test_equivalence_refuses_non_ergodic_rce_law():
    # the uniform color swap is row-column exchangeable, but each word only
    # ever meets its mirror: four closed classes at n = 3
    law = PermutationMix(2)
    assert law.is_rce().value is True
    with pytest.raises(TheoryRefusal) as exc:
        projected_mixing_equivalence(law, 3, 2)
    assert "unique" in exc.value.details["stationary"]


@pytest.mark.parametrize("law,n,k", [
    (PermutationMix(2), 3, 2),
    (PermutationMix(3), 2, 3),
    # an atom of weight 0 that would join every state adds no edge
    (Atomic([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0.5, 0.5], [0.5, 0.5]]], [0.5, 0.5, 0.0]), 3, 2),
])
def test_non_unique_law_is_refused_on_the_count_chain(law, n, k):
    assert law.is_rce().value is True
    with pytest.raises(TheoryRefusal) as exc:
        projected_mixing_equivalence(law, n, k)
    why = exc.value.details["stationary"]
    assert "unique" in why
    # a state index of the count chain is named as such, not as a coloring
    assert why.startswith("chain of color counts")


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"n": 0}, "n"),
        ({"m_max": 0}, "m_max"),
        ({"m_max": -3}, "m_max"),
        ({"epsilon": ()}, "epsilon"),
    ],
)
def test_equivalence_malformed_settings_name_their_field(kwargs, field):
    args = {"law": orbit_closure_law(RCE_BASE), "n": 4, "k": 2, **kwargs}
    with pytest.raises(ValidationError) as exc:
        projected_mixing_equivalence(**args)
    assert exc.value.field == field


def test_equivalence_validation_and_budget():
    law = orbit_closure_law(RCE_BASE)
    with pytest.raises(ValidationError):
        projected_mixing_equivalence(law, 4, 3)
    with pytest.raises(ValidationError):
        projected_mixing_equivalence(law, 4, 2, epsilon=(1.5,))
    with pytest.raises(BudgetRefusal) as exc:
        projected_mixing_equivalence(law, 90, 2)
    # the tables of the 46 starts (90 - j, j) hold (91 - j)(j + 1) states
    assert exc.value.details["required"] == sum((91 - j) * (j + 1) for j in range(46))


def test_equivalence_refuses_past_the_kernel_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetRefusal) as exc:
            projected_mixing_equivalence(PermutationMix(3), 40, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.details == {"budget_name": "project_states", "required": 69_281_520, "budget": 2**16}
    assert peak < 1 << 20


@pytest.mark.parametrize("epsilon,message", [
    ((), "epsilon needs at least one threshold"),
    ((0.25, 1.0), "epsilon must lie in (0, 1)"),
    (0.0, "epsilon must lie in (0, 1)"),
    ((math.nan,), "epsilon must lie in (0, 1)"),
])
def test_both_searches_read_epsilon_alike(epsilon, message):
    law = orbit_closure_law(RCE_BASE)
    for search in (projected_mixing_equivalence, mixing_time):
        with pytest.raises(ValidationError) as exc:
            search(law, 4, 2, epsilon=epsilon)
        assert (exc.value.field, str(exc.value)) == ("epsilon", message)


def test_epsilon_grid_order_follows_each_search():
    law = orbit_closure_law(RCE_BASE)
    report = projected_mixing_equivalence(law, 4, 2, epsilon=(0.25, 0.5, 0.25))
    assert report.epsilons == (0.5, 0.25)
    profile = mixing_time(law, 4, 2, epsilon=(0.5, 0.25, 0.5), method="exact_atomic")
    assert profile.epsilons == (0.25, 0.5)


def test_equivalence_truncation_flag():
    law = orbit_closure_law(RCE_BASE)
    report = projected_mixing_equivalence(law, 4, 2, epsilon=(1e-9,), m_max=2)
    assert not report.equal_crossings
    assert any("truncated" in f for f in report.flags)
    assert report.t_labeled[1e-9] is None


# ------------------------------------- site-orbit rows against the full power


def _sorted_word_states(n, k):
    """Indices of the non-decreasing words, listed directly."""
    return sorted(
        sum(c * k ** (n - 1 - i) for i, c in enumerate(w))
        for w in itertools.combinations_with_replacement(range(k), n)
    )


K3_BASE = [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]]
BLEND = orbit_closure_law(0.8 * np.eye(3) + 0.2 / 3)
BLEND_K2 = orbit_closure_law(0.8 * np.eye(2) + 0.2 / 2)


@pytest.mark.parametrize("law,n,k,eps", [
    (orbit_closure_law(RCE_BASE), 4, 2, (0.5, 0.25)),
    (orbit_closure_law([[0.95, 0.05], [0.05, 0.95]]), 4, 2, (0.5, 0.25)),
    (orbit_closure_law(RCE_BASE), 3, 2, (0.5, 0.25, 0.1)),
    (orbit_closure_law(RCE_BASE), 5, 2, (0.5, 0.25, 0.1)),
    (orbit_closure_law(RCE_BASE), 6, 2, (0.5, 0.25, 0.1)),
    (orbit_closure_law(K3_BASE), 3, 3, (0.5, 0.25, 0.1)),
    (BLEND, 6, 3, (0.5, 0.25)),
    (BLEND, 4, 3, (1e-6,)),
    (BLEND_K2, 10, 2, (0.5, 0.25)),
])
def test_profile_matches_the_full_matrix_power(law, n, k, eps):
    report = projected_mixing_equivalence(law, n, k, epsilon=eps)
    kernel = mixture_step_kernel(law, n)
    pi = eig_stationary(kernel)
    labels, reps = orbit_classes(n, k)
    lumped = lumped_kernel_by_class(kernel, labels)
    pi_proj = np.bincount(labels, weights=pi, minlength=len(reps))
    steps = len(report.profile)
    want = np.array([worst_tv_profile_dense(kernel, pi, steps),
                     worst_tv_profile_dense(lumped, pi_proj, steps)]).T
    got = np.array([(a, b) for _, a, b in report.profile])
    assert np.max(np.abs(got - want)) <= 1e-14
    for col, crossings in ((0, report.t_labeled), (1, report.t_projected)):
        for e in report.epsilons:
            below = [m for m, v in enumerate(want[:, col], start=1) if v < e]
            assert crossings[e] == (below[0] if below else None)


@pytest.mark.parametrize("law,n,k", [
    (BLEND_K2, 12, 2),
    (orbit_closure_law(0.8 * np.eye(4) + 0.2 / 4), 6, 4),
])
def test_the_state_cap_runs_clean(law, n, k):
    # both blends have exactly the 4096 labeled states of the former cap
    assert k**n == 4096
    report = projected_mixing_equivalence(law, n, k, epsilon=(0.5, 0.25))
    assert report.flags == ()
    assert report.equal_crossings


def test_the_state_cap_query_peaks_below_8_mib(traced_peak):
    # a dense 4096 x 4096 kernel alone is 128 MiB; the 24-atom blend's
    # largest count kernels are 84 x 84
    assert traced_peak(projected_mixing_equivalence, BLEND_K2, 12, 2) < 8 * 2**20
    law = orbit_closure_law(0.8 * np.eye(4) + 0.2 / 4)
    assert traced_peak(projected_mixing_equivalence, law, 6, 4) < 8 * 2**20


@st.composite
def _step_cases(draw):
    """An atomic law with zeros in its atoms, row-column exchangeable (an
    orbit closure) or not, plus a positive atom of weight 0."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([1, 2, 3, 5]))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        m = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        m[:, m.sum(axis=0) == 0] = 1.0  # an all-zero column becomes uniform
        bases.append(m / m.sum(axis=0))
    if draw(st.booleans()):
        closed = orbit_closure_law(bases[0])
        atoms, weights = list(closed.atoms), list(closed.weights)
    else:
        atoms = bases
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(bases), max_size=len(bases)))
    law = Atomic([*atoms, np.full((k, k), 1.0 / k)], [*np.array(weights) / sum(weights), 0.0])
    return law, n, k


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_step_cases())
def test_kernel_step_matches_the_site_loops(case):
    # one table step from every start, unfolded onto the colorings, is the
    # kernel, against the weighted sum of site-by-site kernels; the atom of
    # weight 0 adds no support
    law, n, k = case
    got = table_chain_kernel(law, n)
    want = mixture_step_kernel(law, n)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(got > 0, want > 0)


def _count_labels(n: int, k: int) -> np.ndarray:
    """Each word's index among the count vectors of n sites, listed in
    lexicographic order."""
    counts = [tuple(row) for row in word_counts(n, k).tolist()]
    where = {c: i for i, c in enumerate(sorted(set(counts)))}
    return np.array([where[c] for c in counts])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_step_cases())
def test_count_kernel_is_the_lumped_labeled_kernel(case):
    # each atom's count kernel, and the weighted one that `project` solves,
    # against the labeled kernels lumped by color counts
    law, n, k = case
    labels = _count_labels(n, k)
    atomic = law.as_atomic()
    stack = np.array([s.entries for s in atomic.atoms])
    kernels = [*_count_kernels(stack, {n})[n], projections._count_kernel(stack, np.array(atomic.weights), n)]
    wants = [*(product_step_kernel(s, n) for s in stack), mixture_step_kernel(atomic, n)]
    for got, labeled in zip(kernels, wants):
        want = lumped_kernel_by_class(labeled, labels)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(got > 0, want > 0)
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-15


@st.composite
def _atomic_laws(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5 if k == 2 else 3))
    count = draw(st.integers(1, 3))
    entry = st.floats(0.05, 1.0)
    atoms = []
    for _ in range(count):
        m = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        atoms.append(m / m.sum(axis=0))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=count, max_size=count)))
    return Atomic(atoms, weights / weights.sum()), n, k


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_atomic_laws())
def test_worst_start_is_a_sorted_word(case):
    # K commutes with permuting the sites, and so does pi, so every start's
    # distance equals that of its sorted word
    law, n, k = case
    kernel = mixture_step_kernel(law, n)
    pi = eig_stationary(kernel)
    reps = _sorted_word_states(n, k)
    # the sorted words list the count vectors in reverse lexicographic order
    assert _rank(word_counts(n, k)[reps]).tolist() == list(range(len(reps)))[::-1]
    assert len(reps) == math.comb(n + k - 1, k - 1)
    power = kernel
    for _ in range(4):
        tvs = 0.5 * np.abs(power - pi).sum(axis=1)
        assert abs(tvs.max() - tvs[reps].max()) <= 1e-14
        power = power @ kernel
        power = power @ kernel


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_atomic_laws())
def test_lifted_count_law_is_the_labeled_stationary_law(case):
    # K commutes with permuting the sites whatever the law, so the counts
    # are lumpable for laws that are not row-column exchangeable too
    law, n, k = case
    pi = lifted_stationary(law, n, k)
    assert np.max(np.abs(pi - eig_stationary(mixture_step_kernel(law, n)))) <= 1e-14


def test_no_system_larger_than_the_count_chain_is_solved(monkeypatch):
    sizes = []
    gth = projections._gth

    def recording_gth(g, band):
        sizes.append(g.shape)
        return gth(g, band)

    def no_solve(*args):
        raise AssertionError("project called np.linalg.solve")

    monkeypatch.setattr(projections, "_gth", recording_gth)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    projected_mixing_equivalence(BLEND, 6, 3, epsilon=(0.5, 0.25))
    count_states = math.comb(6 + 3 - 1, 3 - 1)
    assert sizes == [(count_states, count_states)]


def _listed_permutation_mix(k: int) -> PermutationMix:
    """The uniform law on all k! permutations, listed in reverse order."""
    perms = [[c + 1 for c in p] for p in itertools.permutations(range(k))][::-1]
    return PermutationMix(k, perms=perms)


_PARITY_LAWS = {
    k: [("permutation_mix", PermutationMix(k)), ("listed_permutations", _listed_permutation_mix(k)),
        # the permuted-identity blends (1 - gamma) P + gamma J / k
        *((f"blend_{gamma}", orbit_closure_law((1 - gamma) * np.eye(k) + gamma / k))
          for gamma in (0.0, 0.2, 1.0))]
    for k in (2, 3, 4)
}


@pytest.mark.parametrize("k,n_max", [(2, 7), (3, 5), (4, 4)])
def test_refusal_parity_with_the_closed_classes_of_the_dense_kernel(k, n_max):
    # project refuses exactly when the labeled chain has more than one
    # closed class, and otherwise lifts the labeled chain's stationary law
    refused = answered = 0
    for name, law in _PARITY_LAWS[k]:
        assert law.is_rce().value is True, name
        for n in range(1, n_max + 1):
            dense = mixture_step_kernel(law.as_atomic(), n)
            if closed_classes(dense) > 1:
                refused += 1
                with pytest.raises(TheoryRefusal) as exc:
                    projected_mixing_equivalence(law, n, k, m_max=2)
                why = exc.value.details["stationary"]
                assert why.startswith("chain of color counts") and "unique" in why, (name, n)
                continue
            answered += 1
            projected_mixing_equivalence(law, n, k, m_max=2)
            pi = lifted_stationary(law, n, k)
            assert np.max(np.abs(pi - eig_stationary(dense))) <= 1e-14, (name, n)
    assert refused and answered
