"""The mixing-equivalence check of a chain and its unlabeled projection.

Forgetting the color labels of a trajectory is only guaranteed to leave a
Markov chain when the driving paintbox law is row-column exchangeable, so
the check accepts those laws only, and compares the epsilon-crossing times
of both chains' exact worst-start distance profiles.

The labeled kernel K commutes with permuting the sites, so from a start x,
K^m(x, .) is exchangeable within x's color classes, the cells, and lumps
exactly (Kemeny and Snell, Finite Markov Chains, 1960) to the table T[c, r]
of the sites of cell c now of color r, the mass of T spread evenly over its
prod_c multinom(|c|; T[c]) colorings. The table moves by sum_a w_a (x)_c
K_a(|c|). Under row-column exchangeability a start matters only through
its partition of n into at most k parts, cell c starting at color c.

The one-cell start is the count chain of K(n) = sum_a w_a K_a(n), solved by
lumped._gth. A unique stationary law of K is pi_count(N) / multinom(n; N)
at each coloring's counts N, so a start's stationary table law is pi_T(T) =
pi_count(colsum T) prod_c multinom(|c|; T[c]) / multinom(n; colsum T).
The labeled TV is the TV of the table laws. Up to the site permutations
that keep each cell, a set partition is the multiset of its blocks' counts
in each cell, block r's being column r of T, so the projected TV is the TV
of the table laws summed by the multiset of T's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BUDGETS, TheoryRefusal, ValidationError, _epsilon_grid, _fields_json, check_budget
from .lumped import (_compositions, _count_kernels, _count_table, _first_crossings, _gth, _half_l1, _rank,
                     _statistic_size, _table_step)
from .paintbox import PaintboxLaw

# the largest |pi K - pi| a certified stationary law may leave
_RESIDUAL_TOL = 1e-10
# most kernel and table entries one chunk of atoms holds; sets memory, not answers
_ATOM_CHUNK = 1 << 18

def _starts(n: int, k: int) -> list[tuple[int, ...]]:
    """The partitions of n into at most k (and so at most n) parts."""
    counts = _compositions(n, min(n, k))
    keep = np.all(counts[:, :-1] >= counts[:, 1:], axis=1)
    return [tuple(s for s in row if s) for row in counts[keep].tolist()]


def _cells(parts, k: int) -> list[np.ndarray]:
    """Each cell's _compositions(size, k) along its own axis, colors last."""
    return [_compositions(s, k).reshape((1,) * c + (-1,) + (1,) * (len(parts) - 1 - c) + (k,))
            for c, s in enumerate(parts)]


def _start_law(parts, k: int) -> np.ndarray:
    """The table law at m = 0: cell c all at color c."""
    law = np.zeros([_statistic_size([s], k) for s in parts])
    law[tuple(_rank(s * np.eye(k, dtype=np.int64)[c]) for c, s in enumerate(parts))] = 1.0
    return law


def _orbits(parts, k: int, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, pi summed by label) for the table states labeled by the
    sorted numbers of their columns, in the radix of the cell sizes + 1."""
    radix = np.cumprod([1, *(s + 1 for s in parts[:-1])])
    codes = sum(cell * place for cell, place in zip(_cells(parts, k), radix))
    orbits, labels = np.unique(np.sort(codes.reshape(-1, k), axis=1), axis=0, return_inverse=True)
    labels = labels.reshape(-1)
    return labels, np.bincount(labels, pi.ravel(), len(orbits))


def _chunks(count: int, per_atom: int) -> list[slice]:
    """Slices of count atoms, each within _ATOM_CHUNK entries at per_atom an atom."""
    size = max(1, _ATOM_CHUNK // per_atom)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _count_kernel(atoms: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """K(n) = sum_a w_a K_a(n), a chunk of atoms (three kernels each) at a time."""
    size = _statistic_size([n], atoms.shape[1])
    out = np.zeros((size, size))
    for chunk in _chunks(len(atoms), 3 * size * size):
        out += np.tensordot(weights[chunk], _count_kernels(atoms[chunk], {n})[n], 1)
    return out


def _stepper(atoms: np.ndarray, weights: np.ndarray, count_kernel: np.ndarray, starts):
    """One table step of every start's law: by count_kernel for the one-cell
    start, else by its atoms' kernels, a chunk of atoms at a time. When one
    chunk holds every atom its kernels are built once and kept; otherwise
    each step rebuilds them."""
    k = atoms.shape[1]
    multi = [parts for parts in starts if len(parts) > 1]
    sizes = {s for parts in multi for s in parts}
    # an atom holds its kernels, about two more while they are built, and two tables
    per_atom = (sum(3 * _statistic_size([s], k) ** 2 for s in sizes)
                + 2 * max((_statistic_size(parts, k) for parts in multi), default=0))
    chunks = _chunks(len(atoms), per_atom) if multi else []
    kept = _count_kernels(atoms, sizes) if len(chunks) == 1 else None

    def step(laws):
        out = [_table_step(law, [count_kernel[None]], np.ones(1)) if len(parts) == 1 else np.zeros_like(law)
               for parts, law in zip(starts, laws)]
        for chunk in chunks:
            kernels = _count_kernels(atoms[chunk], sizes) if kept is None else kept
            for parts, law, new in zip(starts, laws, out):
                if len(parts) > 1:
                    new += _table_step(law, [kernels[s] for s in parts], weights[chunk])
        return out

    return step


def _stationary_tables(count_kernel: np.ndarray, n: int, k: int, starts, step) -> list[np.ndarray]:
    """Each start's pi_T, or TheoryRefusal if the count chain's elimination
    or a residual fails. Count state 0 is the constant word k...k, which
    every site permutation fixes, so every pivot is positive exactly when
    k...k is reachable from every coloring (underflow can only refuse): one
    closed class, one stationary law. Under row-column exchangeability an
    atom of positive weight that is not a permutation matrix lets any two
    colors merge, so only laws of permutation atoms are refused at n >= 2."""
    try:
        pi_count = _gth(count_kernel.copy(), len(count_kernel) - 1)
    except ValidationError as e:
        why = f"chain of color counts, states in lexicographic order from (0, ..., 0, {n}): {e}"
    else:
        per_count = pi_count * np.exp(-_count_table(n, k)[0])
        tables = [per_count[_rank(sum(_cells(parts, k)))]
                  * np.exp(reduce(np.add.outer, [_count_table(s, k)[0] for s in parts])) for parts in starts]
        residual = np.max([np.max(np.abs(new - pi)) for new, pi in zip(step(tables), tables)])
        if residual <= _RESIDUAL_TOL:  # a NaN residual fails too
            return tables
        why = "stationary solve failed its residual check"
    raise TheoryRefusal(
        "projection equivalence needs a unique, certified stationary law "
        "of the labeled chain", stationary=why,
    )


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


def projected_mixing_equivalence(
    law: PaintboxLaw,
    n: int,
    k: int,
    epsilon=(0.5, 0.25),
    m_max: int = 512,
) -> EquivalenceReport:
    """Exact worst-start TV profiles for the labeled chain and its unlabeled
    projection, with the smallest horizon under each epsilon.

    Needs a row-column exchangeable, finitely supported law whose labeled
    chain has a unique stationary law, and table states summed over the
    starts, or the count kernels' n levels if more, within the
    "project_states" budget, checked before any kernel is built. Within it
    the dense count kernel K(n) is largest at k = 13, n = 4, 1820 x 1820.
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
    one_cell = _statistic_size([n], k)
    # the one-cell start alone bounds the sum from below, so a huge n is
    # refused before its partitions are listed
    starts = _starts(n, k) if one_cell <= BUDGETS["project_states"] else [(n,)]
    # the count kernels are built through n levels, more than the tables only at k = 1
    check_budget("project_states", max(n, sum(_statistic_size(parts, k) for parts in starts)),
                 "too many color count table states for the exact equivalence check")
    atoms = law.as_atomic()
    if atoms is None:
        raise TheoryRefusal("exact kernels need a finitely supported paintbox law", law=law.config())

    stack = np.array([s.entries for s in atoms.atoms])
    weights = np.asarray(atoms.weights, dtype=float)
    count_kernel = _count_kernel(stack, weights, n)
    step = _stepper(stack, weights, count_kernel, starts)
    pis = _stationary_tables(count_kernel, n, k, starts, step)
    orbits = [_orbits(parts, k, pi) for parts, pi in zip(starts, pis)]

    flags: list[str] = []
    profile: list[tuple[int, float, float]] = []

    def sweep(laws):
        for m in range(1, m_max + 1):
            laws = step(laws)
            tv_lab = max(float(_half_l1(law - pi)) for law, pi in zip(laws, pis))
            # the projected law from each start's class
            tv_pr = max(float(_half_l1(np.bincount(labels, law.ravel(), len(proj)) - proj))
                        for law, (labels, proj) in zip(laws, orbits))
            profile.append((m, tv_lab, tv_pr))
            if tv_pr > tv_lab + 1e-9:
                flags.append(f"pushforward contraction violated at m={m}")
            yield m, (tv_lab, tv_pr)

    t_lab, t_proj = _first_crossings(sweep([_start_law(parts, k) for parts in starts]), [eps_grid] * 2)
    if None in (*t_lab.values(), *t_proj.values()):
        flags.append(f"profile truncated at m_max={m_max} before all crossings")

    equal = all(t_lab[e] is not None and t_lab[e] == t_proj[e] for e in eps_grid)
    return EquivalenceReport(n=n, k=k, epsilons=eps_grid, profile=tuple(profile), t_labeled=t_lab,
                             t_projected=t_proj, equal_crossings=equal, flags=tuple(flags))
