"""Package-side routes to the labeled k^n kernel and stationary law through
the color count tables, for the tests that compare them with the
brute-force oracles. Nothing in the package builds either: `project` works
on the tables alone."""

from __future__ import annotations

import math

import numpy as np

from _oracles import words_array
from cutpaste import projections
from cutpaste.lumped import _count_kernels, _gth, _rank, _table_step


def _stack(law) -> tuple[np.ndarray, np.ndarray]:
    atoms = law.as_atomic()
    return np.array([s.entries for s in atoms.atoms]), np.asarray(atoms.weights, dtype=float)


def word_counts(n: int, k: int) -> np.ndarray:
    """The color counts of every word of words_array(n, k)."""
    return (words_array(n, k)[:, :, None] == np.arange(k)).sum(axis=1)


def table_chain_kernel(law, n: int, m: int = 1) -> np.ndarray:
    """K^m of a finitely supported law, unfolded from the table chains: row
    x is the table law m steps from x, its cells x's color classes (empty
    ones too), and entry (x, y) is that law at y's table T(y), T(y)[c, r]
    the number of sites of color c in x and r in y, divided by
    prod_c multinom(|class c|; T(y)[c]), the colorings with that table."""
    stack, weights = _stack(law)
    k = stack.shape[1]
    kernels = _count_kernels(stack, set(range(n + 1)))
    words = words_array(n, k)
    factorial = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    unit = np.eye(k, dtype=np.int64)
    laws = {}  # the table law depends on x only through its class sizes
    out = np.empty((k**n, k**n))
    for x, word in enumerate(words):
        sizes = tuple(np.bincount(word, minlength=k).tolist())
        if sizes not in laws:
            table = np.zeros([kernels[s].shape[-1] for s in sizes])
            table[tuple(_rank(s * unit[c]) for c, s in enumerate(sizes))] = 1.0
            for _ in range(m):
                table = _table_step(table, [kernels[s] for s in sizes], weights)
            laws[sizes] = table
        table = laws[sizes]
        # tables[y, c, r]: the sites where x holds c and y holds r
        pairs = np.arange(len(words))[:, None] * k * k + word * k + words
        tables = np.bincount(pairs.ravel(), minlength=len(words) * k * k).reshape(-1, k, k)
        colorings = factorial[list(sizes)].prod() / factorial[tables].prod(axis=(1, 2))
        out[x] = table[tuple(_rank(tables).T)] / colorings
    return out


def lifted_stationary(law, n: int, k: int) -> np.ndarray:
    """The labeled stationary law as `project` reads it: the count chain's
    law from lumped._gth on projections._count_kernel, divided by the
    multinomial of each word's counts, here from exact integers. Raises
    ValidationError where the elimination refuses."""
    kernel = projections._count_kernel(*_stack(law), n)
    pi_count = _gth(kernel.copy(), len(kernel) - 1)
    counts = word_counts(n, k)
    multinomials = [math.factorial(n) // math.prod(map(math.factorial, row)) for row in counts.tolist()]
    return pi_count[_rank(counts)] / np.array(multinomials, dtype=float)
