"""Exact distributions on small state spaces.

Enumerates all k^n colorings, builds one-step transition kernels for finitely
supported paintbox laws, and lumps kernels onto unlabeled (color-permutation)
classes. Everything here is dense linear algebra, so callers must keep k^n
within a few thousand states.

Given the paintbox s, the n coordinates jump independently, so the kernel is
the n-fold Kronecker power of s^T. A law's kernel sum_a w_a K_a splits the
sites into a left half of h = floor(n/2) and a right half of n - h, and is
built as one matrix product of the atoms' weighted left-half kernels by
their right-half kernels, followed by one axis swap. The stationary law
of a kernel comes from one LU solve of pi (K - I) = 0 with one equation
swapped for sum(pi) = 1. A law found any way is certified twice: the state
with the most mass must be reachable from every state on the support graph
K > 0 (so the chain has exactly one closed class and the law is unique),
and pi K must equal pi to within a residual tolerance. The projection check
solves only the small chain of color counts and certifies the law it lifts
from there on K, so no k^n-state system is solved for it.
"""

from __future__ import annotations

import numpy as np

from .errors import TheoryRefusal, ValidationError, check_budget
from .paintbox import PaintboxLaw
from .partitions import Coloring


def _enumerable(n: int, k: int) -> int:
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    check_budget("small_space_states", (k, n), "k^n states are too many to enumerate")
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


def enumerate_colorings(n: int, k: int) -> list[Coloring]:
    return [Coloring(n, k, tuple(int(v) + 1 for v in row)) for row in words(n, k)]


def state_index(x: Coloring) -> int:
    """Position of a coloring in the words(n, k) enumeration."""
    i = 0
    for v in x.word:
        i = i * x.k + (v - 1)
    return i


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
    R_a on the other n - h: one (k^2h x A) by (A x k^2(n-h)) product, whose
    (xl, yl, xr, yr) axes are then swapped into place. Every term is
    nonnegative, so an entry is 0 exactly when every atom of positive weight
    gives it 0.

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
        # (atoms, k^2sites): each atom's kernel on `sites` sites, flattened
        if sites == 0:
            return np.ones((len(atoms.atoms), 1))
        return np.stack([product_kernel_given_S(s, sites).ravel() for s in atoms.atoms])

    h = n // 2
    left = law.k**h
    right = total // left
    kernel = (halves(h).T * atoms.weights) @ halves(n - h)
    return kernel.reshape(left, left, right, right).swapaxes(1, 2).reshape(total, total)


def _reaches_all(support: np.ndarray, r: int) -> bool:
    """Whether state r can be reached from every state along support[x, y]
    (backward breadth-first search)."""
    reached = np.zeros(support.shape[0], dtype=bool)
    reached[r] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = support[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return bool(reached.all())


def stationary_distribution(kernel: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The stationary law pi = pi K, normalized to a probability vector.

    The columns of K^T - I sum to zero, so one equation of (K^T - I) pi = 0
    is redundant and is replaced by sum(pi) = 1; the system is nonsingular
    exactly when the chain has one closed class. Raises if the law is not
    unique (a singular solve, or a state with the most mass that some state
    cannot reach) or if the solve fails its residual check.
    """
    total = kernel.shape[0]
    system = kernel.T - np.eye(total)
    system[-1] = 1.0
    rhs = np.zeros(total)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise ValidationError(
            "stationary system is singular: stationary law not unique"
        ) from None
    return _certified_stationary(kernel, pi, tol)


def _certified_stationary(kernel: np.ndarray, pi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """pi clipped at 0 and renormalized, once both certificates hold: the
    state r = argmax pi is reachable from every state on K > 0 (so the
    chain has one closed class and pi is its only stationary law), and
    max |pi K - pi| <= tol."""
    r = int(np.argmax(pi))
    if not _reaches_all(kernel > 0, r):
        raise ValidationError(
            f"state {r} is not reachable from every state: stationary law not unique"
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if not np.max(np.abs(pi @ kernel - pi)) <= tol:  # a NaN residual fails too
        raise ValidationError("stationary solve failed its residual check")
    return pi


def projection_classes(n: int, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Map every state index to its orbit index under color permutations.

    Returns (labels, reps) where labels[i] is the orbit of state i and
    reps[c] is the canonical word of orbit c, in order of first appearance.
    The canonical word renames each color by the rank of its first
    occurrence (first-occurrence relabeling), which indexes the orbit: the
    unlabeled partition.
    """
    return _orbit_classes(words(n, k), k)


def _orbit_classes(w: np.ndarray, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """projection_classes of the states whose color words are w = words(n, k)."""
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


def lumped_kernel(kernel: np.ndarray, labels: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Kernel of the projected chain on orbit classes.

    Sums transition mass into each class and checks the result is constant
    across the source class (the lumpability condition); a violation means
    the law was not exchangeable enough to project and is reported loudly.
    """
    classes = int(labels.max()) + 1
    mass = kernel @ (labels[:, None] == np.arange(classes))
    # each class's row is its first state's; every state of the class must match
    lumped = mass[np.unique(labels, return_index=True)[1]]
    off = np.abs(mass - lumped[labels]) > atol
    if off.any():
        c = int(labels[off.any(axis=1)].min())
        raise ValidationError(
            f"kernel is not lumpable over class {c}: projected rows disagree"
        )
    return lumped
