"""Unlabeled projections of runs and the mixing-equivalence check.

Forgetting the color labels of a trajectory is only guaranteed to leave a
Markov chain when the driving paintbox law is row-column exchangeable. The
projection is still computed for other laws, but the run is flagged as
diagnostic. The equivalence check computes both chains' exact distance
profiles on small state spaces and compares their epsilon-crossing times.

The labeled kernel K[x, y] = sum_a w_a prod_i s_a[y_i, x_i] is unchanged
when the sites of x and y are permuted together. So the multisets of colors
are lumpable (Kemeny and Snell): the count chain on the C(n+k-1, k-1)
multisets has the rows of K at the states with a non-decreasing word,
summed by the multiset of their target. A unique stationary law pi of K is
constant on each multiset, so it is the count chain's stationary law spread
evenly over the states of each multiset, and no k^n-state system is
solved; pi is then certified on K itself. For the same reason
TV(K^m(x, .), pi) depends only on the multiset of colors of x, so the
labeled profile propagates the non-decreasing rows only, one (rows x k^n)
by (k^n x k^n) product per step instead of a full matrix power. The
projected chain is small and keeps its full power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainRun
from .errors import TheoryRefusal, ValidationError, _epsilon_grid, check_budget
from .paintbox import PaintboxLaw
from .partitions import UnlabeledPartition, project
from .smallspace import (
    _certified_stationary,
    _orbit_classes,
    exact_kernel,
    lumped_kernel,
    stationary_distribution,
    words,
)


@dataclass(frozen=True)
class ProjectedRun:
    """A run with its trajectory pushed onto unlabeled partitions."""

    base: ChainRun
    trajectory: tuple[UnlabeledPartition, ...]
    markov_certified: bool
    flags: tuple[str, ...] = ()


def project_run(run: ChainRun) -> ProjectedRun:
    """Project every recorded coloring of a run onto its unlabeled partition.

    The projected sequence is certified Markov only when the driving law is
    row-column exchangeable; otherwise the result carries a diagnostic flag
    and no Markov claim.
    """
    traj = tuple(project(x) for x in run.trajectory)
    flags: list[str] = []
    certified = False
    if run.law is None:
        flags.append("diagnostic only: run has no recorded paintbox law")
    else:
        rce = run.law.is_rce()
        if rce:
            certified = True
        else:
            flags.append(f"diagnostic only: projection may be non-Markov ({rce.reason})")
    return ProjectedRun(run, traj, certified, tuple(flags))


@dataclass(frozen=True)
class EquivalenceReport:
    """Exact distance profiles of a labeled chain and its projection, with
    their epsilon-crossing times."""

    n: int
    k: int
    epsilons: tuple[float, ...]
    profile: tuple[tuple[int, float, float], ...]
    t_labeled: dict[float, int | None]
    t_projected: dict[float, int | None]
    equal_crossings: bool
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "epsilons": list(self.epsilons),
            "profile": [
                {"m": m, "tv_labeled": a, "tv_projected": b, "kind": "exact"}
                for m, a, b in self.profile
            ],
            "t_labeled": [{"epsilon": e, "m": self.t_labeled[e]} for e in self.epsilons],
            "t_projected": [{"epsilon": e, "m": self.t_projected[e]} for e in self.epsilons],
            "equal_crossings": self.equal_crossings,
            "flags": list(self.flags),
        }


def _worst_tv(rows: np.ndarray, pi: np.ndarray) -> float:
    return float(0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max())


def _count_classes(w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted, counts) for the states whose color words are w = words(n, k):
    sorted lists the states whose word is non-decreasing, one per multiset
    of colors, C(n+k-1, k-1) of the k^n, and counts[x] is the position in
    that list of the state whose word is x's word sorted."""
    place = k ** np.arange(w.shape[1] - 1, -1, -1)
    return np.unique(np.sort(w, axis=1) @ place, return_inverse=True)


def _stationary_from_counts(kernel: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The stationary law of the labeled kernel, solved on the count chain.

    rows are the kernel's rows at the non-decreasing words and counts labels
    each state by its multiset of colors, as from _count_classes. The count
    kernel sums each row by the multiset of its target; its stationary law
    divided by the number of states of each multiset is pi, which must then
    pass the labeled certificates. Raises TheoryRefusal if either chain's
    law is not unique or not certified.
    """
    size = len(rows)
    count_kernel = np.bincount(
        (np.arange(size)[:, None] * size + counts).ravel(),
        weights=rows.ravel(),
        minlength=size * size,
    ).reshape(size, size)
    try:
        pi_counts = stationary_distribution(count_kernel)
    except ValidationError as e:
        why = f"chain of color counts, states in sorted-word order: {e}"
    else:
        try:
            return _certified_stationary(kernel, (pi_counts / np.bincount(counts))[counts])
        except ValidationError as e:
            why = str(e)
    raise TheoryRefusal(
        "projection equivalence needs a unique, certified stationary law "
        "of the labeled chain", stationary=why,
    )


def projected_mixing_equivalence(
    law: PaintboxLaw,
    n: int,
    k: int,
    epsilon=(0.5, 0.25),
    seed=0,
    m_max: int = 512,
) -> EquivalenceReport:
    """Exact worst-start TV profiles for the labeled chain and its unlabeled
    projection, with the smallest horizon under each epsilon.

    Needs a row-column exchangeable, finitely supported law on k^n states
    within the "project_states" budget (refused before any kernel is built)
    whose labeled chain has a unique stationary law; the projected kernel is
    the lumping of the labeled one and the projected stationary law is the
    pushforward of the labeled one. The
    seed parameter is accepted for interface uniformity; the computation is
    deterministic.
    """
    del seed
    if law.k != k:
        raise ValidationError(f"law has k={law.k}, asked for k={k}", field="k")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}", field="n")
    if m_max < 1:
        raise ValidationError(f"m_max must be at least 1, got {m_max}", field="m_max")
    eps_grid = _epsilon_grid(epsilon, descending=True)
    rce = law.is_rce()
    if not rce:
        raise TheoryRefusal(
            "projection equivalence holds under row-column exchangeability only",
            rce_reason=rce.reason,
        )
    check_budget("project_states", (k, n),
                 "labeled state space too large for the exact equivalence check")

    w = words(n, k)
    kernel = exact_kernel(law, n)
    sorted_states, counts = _count_classes(w, k)
    # a start's distance to pi depends only on its multiset of colors
    rows = kernel[sorted_states]
    pi = _stationary_from_counts(kernel, rows, counts)
    labels, classes = _orbit_classes(w, k)
    lumped = lumped_kernel(kernel, labels)
    pi_proj = np.bincount(labels, weights=pi, minlength=len(classes))

    flags: list[str] = []
    profile: list[tuple[int, float, float]] = []
    t_lab: dict[float, int | None] = {e: None for e in eps_grid}
    t_proj: dict[float, int | None] = {e: None for e in eps_grid}
    power_proj = lumped
    for m in range(1, m_max + 1):
        tv_lab = _worst_tv(rows, pi)
        tv_pr = _worst_tv(power_proj, pi_proj)
        profile.append((m, tv_lab, tv_pr))
        if tv_pr > tv_lab + 1e-9:
            flags.append(f"pushforward contraction violated at m={m}")
        for e in eps_grid:
            if t_lab[e] is None and tv_lab < e:
                t_lab[e] = m
            if t_proj[e] is None and tv_pr < e:
                t_proj[e] = m
        if all(t_lab[e] is not None and t_proj[e] is not None for e in eps_grid):
            break
        rows = rows @ kernel
        power_proj = power_proj @ lumped
    else:
        flags.append(f"profile truncated at m_max={m_max} before all crossings")

    equal = all(
        t_lab[e] is not None and t_lab[e] == t_proj[e] for e in eps_grid
    )
    return EquivalenceReport(
        n=n,
        k=k,
        epsilons=eps_grid,
        profile=tuple(profile),
        t_labeled=t_lab,
        t_projected=t_proj,
        equal_crossings=equal,
        flags=tuple(flags),
    )
