"""Paintbox laws: distributions over k x k column-stochastic matrices.

One chain step is directed by a sampled matrix S: a site currently colored c
moves to color r with probability S[r-1, c-1], independently across sites
given S. sample_M_given_S turns a matrix draw into a random partition matrix
with exactly that product law, column by column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _renamed, coerce
from .partitions import MAX_COLORS, PartitionMatrix
from .rng import as_stream

_COLSUM_TOL = 1e-9
_WEIGHT_TOL = 1e-9
_NEG_CLIP = -1e-12
_ATOM_TOL = 1e-12


def _float_array(values, field: str) -> np.ndarray:
    """values as a float array; non-numeric or ragged input is invalid input."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{field} must be a numeric array", field=field) from None


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return as_stream(rng).generator()


def _column_stochastic(
    arr: np.ndarray, field: str = "entries", tol: float = _COLSUM_TOL
) -> np.ndarray:
    """A (..., r, c) stack of column-stochastic arrays, checked and
    normalized: entries finite, negatives above -1e-12 clipped to zero,
    column sums within tol of 1, then every column divided by its sum.
    Returns a new array. This is the one check of a probability vector,
    given as the single column of an (r, 1) array; malformed input names
    field."""
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{field} must be finite", field=field)
    if arr.min() < _NEG_CLIP:
        raise ValidationError(f"{field} must be nonnegative", field=field)
    arr = np.clip(arr, 0.0, None)
    # a sum that overflows to inf fails the check below
    with np.errstate(over="ignore"):
        sums = arr.sum(axis=-2, keepdims=True)
    off = np.abs(sums - 1.0) > tol
    if off.any():
        bad = sums[np.nonzero(off)[:-1]][0]
        raise ValidationError(f"column sums {bad.tolist()} not within {tol} of 1", field=field)
    arr /= sums
    return arr


class StochasticMatrix:
    """A column-stochastic k x k matrix. entries[r, c] = P(next color r+1 | color c+1).

    Columns must be probability vectors: entries nonnegative (values above
    -1e-12 are clipped to zero) and column sums within 1e-9 of 1, after which
    each column is renormalized to sum to 1 exactly up to float roundoff.
    The entries array is read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _float_array(entries, "entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("entries must form a square matrix", field="entries")
        k = arr.shape[0]
        if not 1 <= k <= MAX_COLORS:
            raise ValidationError(f"k={k} outside 1..{MAX_COLORS}", field="entries")
        arr = _column_stochastic(arr)
        arr.setflags(write=False)
        self.entries = arr

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j]

    def to_lists(self) -> list[list[float]]:
        return self.entries.tolist()

    def __eq__(self, other):
        return isinstance(other, StochasticMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"StochasticMatrix({self.entries.tolist()!r})"


def uniform_matrix(k: int) -> StochasticMatrix:
    return StochasticMatrix(np.full((k, k), 1.0 / k))


@dataclass(frozen=True)
class RceResult:
    """Outcome of the row-column exchangeability test.

    value is True/False when decided structurally, None when the law kind
    admits no structural test. Truthiness means "certified exchangeable".
    """

    value: bool | None
    reason: str

    def __bool__(self) -> bool:
        return self.value is True


class PaintboxLaw:
    """Base class for distributions over column-stochastic matrices. A law
    with finite support holds it as one Atomic, which answers its
    exchangeability test."""

    kind = "abstract"
    _atomic: "Atomic | None" = None

    @property
    def k(self) -> int:
        raise NotImplementedError

    def sample(self, rng) -> StochasticMatrix:
        return StochasticMatrix(self.sample_batch(rng, 1)[0])

    def sample_batch(self, rng, size: int) -> np.ndarray:
        """Draw `size` matrices as a (size, k, k) array."""
        raise NotImplementedError

    def is_rce(self) -> RceResult:
        """Whether the law is invariant under row and column permutations."""
        if self._atomic is not None:
            return self._atomic.is_rce()
        return RceResult(None, f"no structural exchangeability test for kind {self.kind}")

    @property
    def has_smooth_density(self) -> bool:
        """True when the law is absolutely continuous on the product of column
        simplices with a density of class L^p for some p > 1. The Dirichlet
        families qualify (any strictly positive parameters); discrete laws do not.
        """
        return False

    def as_atomic(self) -> "Atomic | None":
        """A finitely supported representation of this law, if one exists."""
        return self._atomic

    def config(self) -> dict:
        raise NotImplementedError


def _merge_atoms(mats: list[np.ndarray], weights: list[float]):
    reps: list[np.ndarray] = []
    wts: list[float] = []
    for a, w in zip(mats, weights):
        for i, r in enumerate(reps):
            if np.max(np.abs(a - r)) <= _ATOM_TOL:
                wts[i] += w
                break
        else:
            reps.append(a)
            wts.append(w)
    return reps, wts


def _matches_multiset(transformed, reps, wts) -> bool:
    used = [False] * len(reps)
    for a, w in transformed:
        for i, (r, wr) in enumerate(zip(reps, wts)):
            if not used[i] and np.max(np.abs(a - r)) <= _ATOM_TOL and abs(w - wr) <= _WEIGHT_TOL:
                used[i] = True
                break
        else:
            return False
    return all(used)


def _atomic_rce(mats, weights, k) -> RceResult:
    """Closure of a weighted atom set under row/column swaps decides RCE.

    Adjacent transpositions generate the symmetric group on each side, so the
    law is permutation-invariant iff the merged weighted atom multiset is fixed
    by every adjacent row swap and every adjacent column swap.
    """
    reps, wts = _merge_atoms(mats, weights)
    for t in range(k - 1):
        rows = [(a[_swap_index(k, t), :], w) for a, w in zip(reps, wts)]
        if not _matches_multiset(rows, reps, wts):
            return RceResult(False, f"atom set not closed under swapping rows {t + 1},{t + 2}")
        cols = [(a[:, _swap_index(k, t)], w) for a, w in zip(reps, wts)]
        if not _matches_multiset(cols, reps, wts):
            return RceResult(False, f"atom set not closed under swapping columns {t + 1},{t + 2}")
    return RceResult(True, "atom set closed under row and column permutations with matched weights")


def _swap_index(k: int, t: int) -> np.ndarray:
    idx = np.arange(k)
    idx[t], idx[t + 1] = idx[t + 1], idx[t]
    return idx


class PointMass(PaintboxLaw):
    """The degenerate law concentrated at one matrix."""

    kind = "point_mass"

    def __init__(self, matrix):
        if not isinstance(matrix, StochasticMatrix):
            matrix = StochasticMatrix(matrix)
        self.matrix = matrix
        self._atomic = Atomic([matrix], [1.0])

    @property
    def k(self) -> int:
        return self.matrix.k

    def sample_batch(self, rng, size):
        return np.tile(self.matrix.entries, (size, 1, 1))

    def config(self):
        return {"kind": self.kind, "matrix": self.matrix.to_lists()}


class Atomic(PaintboxLaw):
    """A finite mixture of point masses with the given weights."""

    kind = "atomic"

    def __init__(self, atoms, weights):
        atoms = tuple(
            a if isinstance(a, StochasticMatrix) else StochasticMatrix(a)
            for a in coerce(atoms, tuple, "atoms")
        )
        if not atoms:
            raise ValidationError("need at least one atom", field="atoms")
        k = atoms[0].k
        if any(a.k != k for a in atoms):
            raise ValidationError("atoms must share one k", field="atoms")
        w = _float_array(weights, "weights")
        if w.shape != (len(atoms),):
            raise ValidationError("need one weight per atom", field="weights")
        w = _column_stochastic(w[:, None], "weights")[:, 0]
        w.setflags(write=False)
        self.atoms = atoms
        self.weights = w
        self._stack = np.stack([a.entries for a in atoms])
        self._stack.setflags(write=False)

    @property
    def k(self) -> int:
        return self.atoms[0].k

    def sample_batch(self, rng, size):
        gen = _as_generator(rng)
        idx = gen.choice(len(self.atoms), size=size, p=self.weights)
        return self._stack[idx]

    def is_rce(self):
        return _atomic_rce(list(self._stack), list(self.weights), self.k)

    def as_atomic(self):
        return self

    def config(self):
        return {
            "kind": self.kind,
            "atoms": [a.to_lists() for a in self.atoms],
            "weights": self.weights.tolist(),
        }


class PermutationMix(PaintboxLaw):
    """A mixture of permutation matrices.

    perms lists permutations as 1-based image vectors (entry j is the color
    that color j+1 maps to), held as one Atomic of permutation matrices;
    perms=None means uniform over all k! permutations.
    """

    kind = "permutation_mix"

    def __init__(self, k, perms=None, weights=None):
        k = coerce(k, int, "k")
        if not 1 <= k <= MAX_COLORS:
            raise ValidationError(f"k={k} outside 1..{MAX_COLORS}", field="k")
        self._k = k
        self.perms = None
        if perms is None:
            if weights is not None:
                raise ValidationError("weights require an explicit perm list", field="weights")
            return
        cleaned = []
        for p in coerce(perms, lambda ps: [tuple(int(c) - 1 for c in p) for p in ps], "perms"):
            if sorted(p) != list(range(k)):
                raise ValidationError(f"{p} is not a permutation of 1..{k}", field="perms")
            cleaned.append(p)
        if not cleaned:
            raise ValidationError("need at least one permutation", field="perms")
        if weights is None:
            weights = np.full(len(cleaned), 1.0 / len(cleaned))
        self.perms = tuple(cleaned)
        self._atomic = Atomic([self._perm_matrix(p) for p in cleaned], weights)

    @property
    def k(self) -> int:
        return self._k

    def _perm_matrix(self, p) -> np.ndarray:
        m = np.zeros((self._k, self._k))
        m[np.array(p), np.arange(self._k)] = 1.0
        return m

    def sample_batch(self, rng, size):
        if self._atomic is not None:
            return self._atomic.sample_batch(rng, size)
        gen = _as_generator(rng)
        k = self._k
        # argsort of i.i.d. uniforms is a uniform random permutation
        order = np.argsort(gen.random((size, k)), axis=1)
        out = np.zeros((size, k, k))
        out[np.arange(size)[:, None], order, np.arange(k)[None, :]] = 1.0
        return out

    def is_rce(self):
        if self._atomic is None:
            return RceResult(True, "uniform over all permutation matrices")
        return super().is_rce()

    def as_atomic(self):
        if self.perms is not None or math.factorial(self._k) > 720:
            return self._atomic
        perms = list(itertools.permutations(range(self._k)))
        w = [1.0 / len(perms)] * len(perms)
        return Atomic([self._perm_matrix(p) for p in perms], w)

    def config(self):
        cfg: dict = {"kind": self.kind, "k": self._k}
        if self.perms is not None:
            cfg["perms"] = [[c + 1 for c in p] for p in self.perms]
            cfg["weights"] = self._atomic.weights.tolist()
        return cfg


class DirichletColumns(PaintboxLaw):
    """Independent Dirichlet columns; column j has parameter vector alpha[:, j].

    Sampling normalizes independent Gamma draws per column, which is the
    standard exact construction.
    """

    kind = "dirichlet_columns"

    def __init__(self, alpha_columns):
        arr = _float_array(alpha_columns, "alpha_columns")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(
                "need one length-k parameter vector per column", field="alpha_columns"
            )
        # config lists column vectors; internally alpha[r, c] aligns with entries
        arr = arr.T.copy()
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValidationError("Dirichlet parameters must be strictly positive")
        k = arr.shape[0]
        if not 1 <= k <= MAX_COLORS:
            raise ValidationError(f"k={k} outside 1..{MAX_COLORS}")
        arr.setflags(write=False)
        self.alpha = arr

    @property
    def k(self) -> int:
        return self.alpha.shape[0]

    def sample_batch(self, rng, size):
        gen = _as_generator(rng)
        out = gen.standard_gamma(self.alpha, size=(size, self.k, self.k))
        sums = out.sum(axis=1, keepdims=True)
        # tiny parameters underflow every Gamma draw of a column to 0: redraw
        # those columns in log space, Gamma(a) = Gamma(a + 1) U^(1/a), the logs
        # scaled by the column's smallest a so they stay finite
        bad, col = np.nonzero(sums[:, 0, :] == 0.0)
        if len(bad):
            a = self.alpha[:, col].T
            lo = a.min(axis=1, keepdims=True)
            logs = lo * np.log(gen.standard_gamma(a + 1.0)) + lo / a * np.log1p(-gen.random(a.shape))
            with np.errstate(over="ignore"):
                out[bad, :, col] = np.exp((logs - logs.max(axis=1, keepdims=True)) / lo)
            sums = out.sum(axis=1, keepdims=True)
        return out / sums

    def is_rce(self):
        first = self.alpha[:, :1]
        if np.max(np.abs(self.alpha - first)) > _ATOM_TOL:
            return RceResult(False, "columns have distinct Dirichlet parameters")
        if np.max(np.abs(first - first[0])) > _ATOM_TOL:
            return RceResult(False, "shared Dirichlet parameter vector is not symmetric")
        return RceResult(True, "i.i.d. columns with a symmetric Dirichlet parameter")

    @property
    def has_smooth_density(self) -> bool:
        return True

    def config(self):
        return {"kind": self.kind, "alpha_columns": self.alpha.T.tolist()}


class SelfSimilar(DirichletColumns):
    """Columns i.i.d. Dirichlet with one shared parameter vector nu."""

    kind = "self_similar"

    def __init__(self, nu):
        nu = np.atleast_1d(_float_array(nu, "nu"))
        if nu.ndim != 1:
            raise ValidationError("nu must be a vector", field="nu")
        super().__init__(np.tile(nu, (len(nu), 1)))
        self.nu = self.alpha[:, 0]

    def config(self):
        return {"kind": self.kind, "nu": self.nu.tolist()}


# each law kind: its config keys and its constructor from the config.
# Malformed input that a constructor reports under none of the keys (a
# matrix's "entries", a Dirichlet parameter) comes from the first key's data.
_LAW_KINDS = {
    PointMass.kind: (("matrix",), lambda c: PointMass(c["matrix"])),
    Atomic.kind: (("atoms", "weights"), lambda c: Atomic(c["atoms"], c["weights"])),
    PermutationMix.kind: (
        ("k", "perms", "weights"),
        lambda c: PermutationMix(c["k"], c.get("perms"), c.get("weights")),
    ),
    DirichletColumns.kind: (("alpha_columns",), lambda c: DirichletColumns(c["alpha_columns"])),
    SelfSimilar.kind: (("nu",), lambda c: SelfSimilar(c["nu"])),
}


def law_from_config(obj) -> PaintboxLaw:
    """Build a PaintboxLaw from its JSON-style config dict. Malformed input
    names the config key it came from: "kind", or one of the kind's keys (an
    error the constructor raises under another name is moved to the kind's
    first key, in its message too); a key the kind does not declare is
    malformed input under its own name."""
    if not isinstance(obj, dict):
        raise ValidationError("law config must be a mapping")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _LAW_KINDS:
        raise ValidationError(f"unknown law kind {kind!r}", field="kind")
    keys, build = _LAW_KINDS[kind]
    for key in obj:
        if key != "kind" and key not in keys:
            raise ValidationError(f"unknown {kind} law setting {key!r}", field=key)
    try:
        return build(obj)
    except KeyError as e:
        raise ValidationError(f"law config missing field {e.args[0]!r}", field=e.args[0]) from None
    except ValidationError as e:
        if e.field in keys:
            raise
        with _renamed({e.field: keys[0]}):
            raise


def sample_S(law: PaintboxLaw, rng) -> StochasticMatrix:
    """One draw from the law. rng may be an RngStream, a seed, or a Generator."""
    return law.sample(_as_generator(rng))


def _bits_to_mask(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sample_M_given_S(s: StochasticMatrix, n: int, rng) -> PartitionMatrix:
    """Random partition matrix given s: in column j, each site lands in row r
    with probability s[r, j], independently over sites and columns."""
    if n < 1:
        raise ValidationError(f"need at least one site, got n={n}", field="n")
    gen = _as_generator(rng)
    k = s.k
    cum = np.cumsum(s.entries, axis=0)
    cum[-1, :] = 1.0
    u = gen.random((n, k))
    cells = []
    for r in range(k):
        cells.append([0] * k)
    for j in range(k):
        rows = np.searchsorted(cum[:, j], u[:, j], side="right")
        for r in range(k):
            cells[r][j] = _bits_to_mask(rows == r)
    return PartitionMatrix(n, k, tuple(tuple(row) for row in cells))
