"""The mixing-equivalence check of a chain and its unlabeled projection.

Forgetting the color labels of a trajectory is only guaranteed to leave a
Markov chain when the driving paintbox law is row-column exchangeable, so
the check accepts those laws only. It computes both chains' exact distance
profiles on small state spaces and compares their epsilon-crossing times.

The states are the k^n colorings, enumerated as color words (dense linear
algebra throughout, so k^n stays within the "project_states" budget). Given
the paintbox s, the n coordinates jump independently, so the kernel is the
n-fold Kronecker power of s^T. A law's kernel sum_a w_a K_a splits the
sites into a left half of h = floor(n/2) and a right half of n - h, and each
row of it, one left-half state by one right-half state, is one matrix
product of the atoms' weighted left-half rows by their right-half rows,
written where it belongs in the kernel.

The labeled kernel K[x, y] = sum_a w_a prod_i s_a[y_i, x_i] is unchanged
when the sites of x and y are permuted together. So the multisets of colors
are lumpable (Kemeny and Snell): the count chain on the C(n+k-1, k-1)
multisets has the rows of K at the states with a non-decreasing word,
summed by the multiset of their target. A unique stationary law pi of K is
constant on each multiset, so it is the count chain's stationary law spread
evenly over the states of each multiset, and no k^n-state system is
solved. The elimination that solves the count chain also shows the lifted
law unique (see _stationary_from_counts), which must then leave a residual
|pi K - pi| within a tolerance on K itself.

For the same reason TV(K^m(x, .), pi) depends only on the multiset of
colors of x, so the labeled profile propagates the non-decreasing rows
only, one (rows x k^n) by (k^n x k^n) product per step instead of a full
matrix power. The projected profile reads the same rows: under a
row-column exchangeable law the projected chain's law at m from an
unlabeled class is the pushforward of K^m(x, .) from any state x of the
class, permuting the sites leaves that pushforward's distance to the
projected pi unchanged, and every orbit of block sizes holds a sorted word.
So each step sums every propagated row by unlabeled class, and no projected
kernel is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TheoryRefusal, ValidationError, _epsilon_grid, _fields_json, check_budget
from .lumped import _gth
from .paintbox import PaintboxLaw

# the largest |pi K - pi| a certified stationary law may leave
_RESIDUAL_TOL = 1e-10


def _enumerable(n: int, k: int) -> int:
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    check_budget("project_states", (k, n), "k^n states are too many to enumerate")
    return k**n


def words(n: int, k: int) -> np.ndarray:
    """All colorings as an (k^n, n) array of 0-based color words, in
    lexicographic order (site 1 is the most significant digit)."""
    total = _enumerable(n, k)
    idx = np.arange(total)
    out = np.empty((total, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % k
        idx //= k
    return out


def product_kernel_given_S(s, n: int) -> np.ndarray:
    """K[x, y] = prod_i s[y_i, x_i]: the one-step kernel of n coordinates
    jumping independently through the column of their current color. Both
    chain constructions share this conditional kernel given the paintbox.

    Site 1 is the most significant digit of a state index, so K is the
    Kronecker power s^T (x) ... (x) s^T, built from site 1 on; each entry is
    the product over sites taken in site order."""
    entries = np.asarray(getattr(s, "entries", s), dtype=float)
    _enumerable(n, entries.shape[0])
    kernel = np.ones((1, 1))
    for _ in range(n):
        kernel = np.kron(kernel, entries.T)
    return kernel


def exact_kernel(law: PaintboxLaw, n: int) -> np.ndarray:
    """One-step kernel of the paintbox chain, averaged over the law's atoms.

    With h = floor(n/2), K[(xl, xr), (yl, yr)] = sum_a w_a L_a[xl, yl]
    R_a[xr, yr] for the atoms' product kernels L_a on the first h sites and
    R_a on the other n - h. So the row at (xl, xr) is the (k^h x A) by
    (A x k^(n-h)) product of the atoms' weighted rows L_a[xl] by their rows
    R_a[xr], written straight into K, the only k^n x k^n array made. Every
    term is nonnegative, so an entry is 0 exactly when every atom of
    positive weight gives it 0.

    Only finitely supported laws can be enumerated; laws with a density are
    refused rather than approximated.
    """
    atoms = law.as_atomic()
    if atoms is None:
        raise TheoryRefusal(
            "exact kernels need a finitely supported paintbox law",
            law=law.config(),
        )
    total = _enumerable(n, law.k)

    def halves(sites: int) -> np.ndarray:
        # (atoms, k^sites, k^sites): each atom's kernel on `sites` sites
        if sites == 0:
            return np.ones((len(atoms.atoms), 1, 1))
        return np.stack([product_kernel_given_S(s, sites) for s in atoms.atoms])

    h = n // 2
    left = law.k**h
    right = total // left
    # (xl, 1, yl, A) by (xr, A, yr) gives the (xl, xr, yl, yr) layout of K
    weighted = (halves(h) * atoms.weights[:, None, None]).transpose(1, 2, 0)[:, None]
    kernel = np.empty((total, total))
    np.matmul(weighted, halves(n - h).transpose(1, 0, 2),
              out=kernel.reshape(left, right, left, right))
    return kernel


def _orbit_classes(w: np.ndarray, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Map every state whose color word is a row of w = words(n, k) to its
    orbit index under color permutations.

    Returns (labels, reps) where labels[i] is the orbit of state i and
    reps[c] is the canonical word of orbit c, in order of first appearance.
    The canonical word renames each color by the rank of its first
    occurrence (first-occurrence relabeling), which indexes the orbit: the
    unlabeled partition.
    """
    n = w.shape[1]
    hits = w[:, :, None] == np.arange(k)
    first = np.where(hits.any(axis=1), hits.argmax(axis=1), n)
    rank = np.argsort(np.argsort(first, axis=1, kind="stable"), axis=1)
    canon = np.take_along_axis(rank, w, axis=1)
    # read as a base-k number, a canonical word is its own state index; it
    # is the smallest word of its orbit, so the sorted indices list the
    # orbits in order of first appearance
    firsts, labels = np.unique(canon @ k ** np.arange(n - 1, -1, -1), return_inverse=True)
    return labels, [tuple(row) for row in (w[firsts] + 1).tolist()]


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
            **_fields_json(self),
            "profile": [
                {"m": m, "tv_labeled": a, "tv_projected": b, "kind": "exact"}
                for m, a, b in self.profile
            ],
            "t_labeled": [{"epsilon": e, "m": self.t_labeled[e]} for e in self.epsilons],
            "t_projected": [{"epsilon": e, "m": self.t_projected[e]} for e in self.epsilons],
        }


def _worst_tv(rows: np.ndarray, pi: np.ndarray) -> float:
    return float(0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max())


def _sum_by(rows: np.ndarray, labels: np.ndarray, size: int) -> np.ndarray:
    """out[r, c] = the sum of rows[r, y] over the states y with labels[y] = c,
    for labels in range(size): each row's pushforward through labels."""
    count = len(rows)
    return np.bincount(
        (np.arange(count)[:, None] * size + labels).ravel(),
        weights=rows.ravel(),
        minlength=count * size,
    ).reshape(count, size)


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
    leave max |pi K - pi| <= _RESIDUAL_TOL. Raises TheoryRefusal if the
    count chain's elimination refuses or the residual is too large.

    Uniqueness: count state 0 is the constant word 1...1, which every site
    permutation fixes, and permuting the sites carries a count path from a
    sorted word to one from any word of its multiset, so a count path to
    state 0 lifts to a labeled path to 1...1. Every pivot of the elimination
    is positive exactly when every count state reaches state 0 (underflow
    can only refuse), and then 1...1 is reachable from every labeled state,
    the labeled chain has one closed class and the lifted law is its only
    stationary law. Conversely, under a row-column exchangeable law with an
    atom of positive weight that is not a permutation matrix, some row of
    that atom has two positive entries, and the law's closure under row and
    column permutations lets any two colors present merge: every start
    reaches 1...1, and the law is not refused. A law of permutation atoms
    only keeps the site partition fixed, so at n >= 2 its labeled chain has
    more than one closed class and it is refused.
    """
    try:
        pi_counts = _gth(_sum_by(rows, counts, len(rows)), len(rows) - 1)
    except ValidationError as e:
        why = f"chain of color counts, states in sorted-word order: {e}"
    else:
        pi = (pi_counts / np.bincount(counts))[counts]
        if np.max(np.abs(pi @ kernel - pi)) <= _RESIDUAL_TOL:  # a NaN residual fails too
            return pi
        why = "stationary solve failed its residual check"
    raise TheoryRefusal(
        "projection equivalence needs a unique, certified stationary law "
        "of the labeled chain", stationary=why,
    )


def projected_mixing_equivalence(
    law: PaintboxLaw,
    n: int,
    k: int,
    epsilon=(0.5, 0.25),
    m_max: int = 512,
) -> EquivalenceReport:
    """Exact worst-start TV profiles for the labeled chain and its unlabeled
    projection, with the smallest horizon under each epsilon.

    Needs a row-column exchangeable, finitely supported law on k^n states
    within the "project_states" budget (refused before any kernel is built)
    whose labeled chain has a unique stationary law. The projected law at
    each horizon is the pushforward of the labeled rows, and the projected
    stationary law is the pushforward of the labeled one.
    """
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
    pi_proj = np.bincount(labels, weights=pi, minlength=len(classes))

    flags: list[str] = []
    profile: list[tuple[int, float, float]] = []
    t_lab: dict[float, int | None] = {e: None for e in eps_grid}
    t_proj: dict[float, int | None] = {e: None for e in eps_grid}
    for m in range(1, m_max + 1):
        tv_lab = _worst_tv(rows, pi)
        # the projected law from each sorted word's class
        tv_pr = _worst_tv(_sum_by(rows, labels, len(classes)), pi_proj)
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
