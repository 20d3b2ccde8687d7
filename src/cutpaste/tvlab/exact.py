"""Exact total-variation computations on count statistics.

Everything in this module reduces a TV distance between laws of colorings to
a finite sum over a sufficient count statistic: per-block color-count vectors
for product-multinomial laws, and their weighted mixtures for finitely
supported paintbox laws. Every such law is built by one count-law kernel:
multinomial log-pmfs over a stack of cell distributions, as the
coefficients of lumped._log_multinomials plus a matrix product of
log-probabilities with the count vectors, both cached per cell size and k.

An exact value is a half-L1 sum over one difference of two laws on the
joint statistic, and one split rule builds every such difference. The
cells split, in their order, into a left and a right group of balanced
joint size (_balanced_split); a joint law is the outer product of the two
groups' joint laws L and R, so a difference of two of them, L_p x R_p -
L_q x R_q, is a matrix product of rank 2, [L_p, -L_q] @ [R_p; R_q], whose
factors hold the two groups' sizes where the joint laws hold their
product. Between two product-multinomial laws, a pair of
ProductMultinomialLaws or a pair's two chains given the paintbox, one
kernel, _product_tvs, takes one such product per row; one cell has no
split, and its difference is R_p - R_q. For the mixture over atom
sequences of tv_exact_atomic, the difference sum_w w (L_p x R_p - L_q x
R_q) is the matrix product [w L_p; -w L_q]^T @ [R_p; R_q]: each chunk of
sequences adds one such product into the one joint-size array, and no
per-sequence joint row and no mixture is built. _half_l1 then reads each
difference once.

What "exact" means: an exact value is half the numpy pairwise sum of
|p - q| over the two computed laws, taken by lumped._half_l1, the lab's one
TV reduction. Its error is that of the laws' entries (2.5e-15 the most
measured against 40-digit mpmath, at n = 400), plus at most about log2(N) u
relative from the sum of N terms (u = 2^-53): the terms are nonnegative,
so the sum has condition number 1 (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 4.2), and a compensated sum would buy
nothing the entries hold.

Every chunked kernel here, and the lower bound's spectra in mc, holds at
most _CACHE_BUDGET elements per temporary. Such a block stays in cache and
its memory is reused from the heap from one chunk to the next, where a
block of megabytes is mapped afresh by every call and costs thousands of
page faults.

One case has a shortcut: two colors and a single cell where the two laws
differ, which is every Monte Carlo upper bound on the constant pair and
every one-block pair of two-color ProductMultinomialLaws. There the TV is
TV(Bin(n, p), Bin(n, q)). Binomials have a monotone likelihood ratio, so by
Scheffe's identity the TV is F_lo(c) - F_hi(c) at the one crossing c of the
two pmfs, that is 1 minus the lower tail of the larger parameter up to c
minus the upper tail of the smaller above c. Each tail is summed over a
half window of h = O(sqrt(n)) counts on its side of c; Hoeffding's
inequality bounds the mass left outside it by _TAIL_MASS, far below double
rounding, so the value stays exact at O(sqrt(n)) cost per replicate. A half
window takes its log-binomial coefficients as one row of a table padded
with log 0 outside 0..n, so a window that runs past either end needs no
clipping and no per-element select. The table is built once per n, in
O(n), from lumped._log_multinomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import TheoryRefusal, ValidationError, _fields_json, check_budget
from ..lumped import _count_table, _half_l1, _log_multinomials, _statistic_size
from ..paintbox import PaintboxLaw, _column_stochastic
from ..partitions import Coloring

# most elements one temporary of a chunked kernel holds: a block of joint
# count laws, a window of binomial terms, a chunk of lower-bound spectra.
# 256 KiB of doubles stays in cache and is reused from the heap between
# chunks, so no call maps fresh pages
_CACHE_BUDGET = 1 << 15
# stands in for log 0: finite, so a zero count times it is exactly 0, and so
# negative that any positive count makes the term underflow to probability 0
_LOG_ZERO = -1e300

# Hoeffding bound on each binomial tail left outside the window of
# _binomial_tvs
_TAIL_MASS = 1e-18

_KINDS = ("exact", "upper_bound", "lower_bound")


@dataclass(frozen=True)
class TVEstimate:
    """A TV value with its provenance: exact, or a Monte Carlo bound."""

    value: float
    kind: str
    mc_std_error: float = 0.0
    replicates: int = 0

    def __post_init__(self):
        # the program builds every estimate, so a broken one is a fault of
        # the program, not malformed input
        if self.kind not in _KINDS:
            raise RuntimeError(f"unknown estimate kind {self.kind!r}")
        v = float(self.value)
        if not -1e-9 <= v <= 1.0 + 1e-9:  # NaN included
            raise FloatingPointError(f"TV value {v} outside [0, 1]")
        object.__setattr__(self, "value", min(1.0, max(0.0, v)))
        if self.kind == "exact" and self.mc_std_error != 0.0:
            raise RuntimeError("exact estimates carry no MC error")
        if self.mc_std_error < 0.0:
            raise RuntimeError("negative standard error")

    to_json = _fields_json


@dataclass(frozen=True)
class ProductMultinomialLaw:
    """Independent blocks of sites; block j holds n_j sites colored i.i.d.
    from the distribution s_j."""

    blocks: tuple

    def __post_init__(self):
        cleaned = []
        k = None
        for b in self.blocks:
            size, s = b
            size = int(size)
            if size < 0:
                raise ValidationError("block sizes must be >= 0", field="blocks")
            s = np.array(s, dtype=float)
            if s.ndim != 1:
                raise ValidationError("cell distribution must be a vector", field="blocks")
            if k is None:
                k = len(s)
            elif len(s) != k:
                raise ValidationError("blocks must share one k", field="blocks")
            s = _column_stochastic(s[:, None], "blocks")[:, 0]
            cleaned.append((size, tuple(s.tolist())))
        if not cleaned:
            raise ValidationError("need at least one block", field="blocks")
        object.__setattr__(self, "blocks", tuple(cleaned))

    @property
    def k(self) -> int:
        return len(self.blocks[0][1])

    @property
    def n(self) -> int:
        return sum(size for size, _ in self.blocks)


@lru_cache(maxsize=64)
def _log_binomials(n: int, pad: int) -> np.ndarray:
    """log C(n, x) for x = -pad .. n + pad: _LOG_ZERO outside 0..n."""
    x = np.arange(n + 1)
    out = np.pad(_log_multinomials(np.stack((x, n - x), axis=-1)), pad, constant_values=_LOG_ZERO)
    out.setflags(write=False)
    return out


def _count_logpmf(cols: np.ndarray, size: int) -> np.ndarray:
    """Row r: the Multinomial(size, cols[r]) log-pmf over
    _compositions(size, k), for an (R, k) stack of cell distributions."""
    coef, counts = _count_table(size, cols.shape[1])
    with np.errstate(divide="ignore"):
        logs = np.maximum(np.log(cols), _LOG_ZERO)
    out = logs @ counts.T
    out += coef
    return out


def _joint_pmfs(cols: np.ndarray, sizes) -> np.ndarray:
    """Row r: the joint count law over independent cells, cell b holding
    sizes[b] sites colored from cols[r, :, b]; cols is (R, k, cells), and the
    joint index runs over the cells' compositions, first cell slowest. No
    cells give the one-point law."""
    rows = np.ones((cols.shape[0], 1))
    for b, size in enumerate(sizes):
        block = _count_logpmf(cols[:, :, b], size)
        np.exp(block, out=block)
        rows = block if b == 0 else (rows[:, :, None] * block[:, None, :]).reshape(len(block), -1)
    return rows


def _row_chunks(rows: int, width: int):
    """Slices over rows such that a chunk of rows of `width` elements each
    stays within _CACHE_BUDGET elements."""
    step = max(1, _CACHE_BUDGET // width)
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _balanced_split(sizes, k: int) -> int:
    """The s that splits the cells, in their order, into sizes[:s] and
    sizes[s:] so that the larger of the two groups' joint statistics is
    smallest."""
    left = [_statistic_size(sizes[:s], k) for s in range(len(sizes) + 1)]
    return min(range(len(left)), key=lambda s: max(left[s], left[-1] // left[s]))


def tv_exact_product_multinomial(
    p: ProductMultinomialLaw,
    q: ProductMultinomialLaw,
) -> TVEstimate:
    """Exact TV between two product-multinomial laws over the per-block
    count-vector statistic, which is sufficient for the pair.

    Blocks whose two cell distributions coincide exactly factor out of the
    half-L1 sum and are skipped.
    """
    if len(p.blocks) != len(q.blocks) or p.k != q.k:
        raise ValidationError("laws must share block structure")
    kept = []
    for (np_, sp), (nq, sq) in zip(p.blocks, q.blocks):
        if np_ != nq:
            raise ValidationError("laws must share block sizes")
        if sp != sq:
            kept.append((np_, sp, sq))
    if not kept:
        return TVEstimate(0.0, "exact")
    sizes, cols_p, cols_q = zip(*kept)
    return TVEstimate(_product_tvs(np.stack(cols_p, 1)[None], np.stack(cols_q, 1)[None], sizes)[0], "exact")


@lru_cache(maxsize=16)
def _refinement_cells(x0: Coloring, x0_tilde: Coloring) -> tuple[tuple[int, int, int], ...]:
    """Cells of the common refinement of two colorings: (color in x0, color
    in x0_tilde, number of sites), ordered by first site occurrence. Cached
    per pair of (frozen) colorings: the mixing search asks for the cells of
    the same pairs at every probe."""
    if x0.n != x0_tilde.n or x0.k != x0_tilde.k:
        raise ValidationError("initial states must share n and k")
    base = x0.k + 1
    codes = np.asarray(x0.word) * base + np.asarray(x0_tilde.word)
    uniq, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    return tuple((int(c // base), int(c % base), int(cnt))
                 for c, cnt in zip(uniq[order], counts[order]))


def _binomial_tvs(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Row r: TV(Bin(n, p[r]), Bin(n, q[r])), as 1 minus the lower tail of
    the larger parameter over the counts c - h + 1 .. c up to the crossing
    c, minus the upper tail of the smaller one over c + 1 .. c + h. Outside
    these half windows each tail holds at most _TAIL_MASS, and counts
    outside 0..n have probability 0; at n = 0, h = 1 holds the count 0."""
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lo, log_hi = np.log(lo), np.log(hi)
        log1m_lo, log1m_hi = np.log1p(-lo), np.log1p(-hi)
        # in [n lo - 1, n hi] and below n; NaN when hi = 1 (crossing n - 1)
        # or lo = hi (any crossing), and fmin takes n - 1 over NaN
        c = np.fmin(np.floor(n * (log1m_lo - log1m_hi) / (log_hi - log_lo + log1m_lo - log1m_hi)), n - 1)
    # log 0 becomes _LOG_ZERO, as in _count_logpmf, so a zero count times it
    # is 0; rows with lo = hi return 0 and take log 1/2 throughout, so that
    # no count outside 0..n can overflow
    logs = np.maximum([log_lo, log_hi, log1m_lo, log1m_hi], _LOG_ZERO)
    same = lo == hi
    logs[:, same] = math.log(0.5)
    log_lo, log_hi, log1m_lo, log1m_hi = logs[:, :, None]
    h = math.ceil(math.sqrt(n * math.log(1.0 / _TAIL_MASS) / 2.0)) + 1
    # row i: log C(n, x) for x = i - h .. i - 1
    log_comb = np.lib.stride_tricks.sliding_window_view(_log_binomials(n, h), h)
    first = c.astype(np.int64) + 1
    below, above = np.arange(1.0 - h, 1.0), np.arange(1.0, h + 1.0)
    tails = np.empty(len(c))
    for rows in _row_chunks(len(c), 2 * h):
        cr, start = c[rows, None], first[rows]
        tails[rows] = _tail_sums(cr + below, log_hi[rows], log1m_hi[rows], log_comb[start], n)
        tails[rows] += _tail_sums(cr + above, log_lo[rows], log1m_lo[rows], log_comb[start + h], n)
    return np.where(same, 0.0, np.clip(1.0 - tails, 0.0, 1.0))


def _tail_sums(x: np.ndarray, log_p: np.ndarray, log1m_p: np.ndarray, log_comb: np.ndarray,
               n: int) -> np.ndarray:
    """Row sums of the Bin(n, p) pmf over the counts x (rows, h), given
    log p and log(1 - p) as (rows, 1) columns and log C(n, x); x is a float
    array (exact below 2^53), which this overwrites."""
    logpmf = x * log_p
    x = np.subtract(n, x, out=x)
    x *= log1m_p
    logpmf += x
    logpmf += log_comb
    return np.exp(logpmf, out=logpmf).sum(axis=1)


def _split_laws(cols_p: np.ndarray, cols_q: np.ndarray, sizes, s: int):
    """L_p, L_q, R_p, R_q: the joint laws of the cells sizes[:s] and of the
    cells sizes[s:], read from the (R, k, cells) stacks of two laws."""
    left, right = sizes[:s], sizes[s:]
    return (_joint_pmfs(cols_p[:, :, :s], left), _joint_pmfs(cols_q[:, :, :s], left),
            _joint_pmfs(cols_p[:, :, s:], right), _joint_pmfs(cols_q[:, :, s:], right))


def _product_tvs(cols_p: np.ndarray, cols_q: np.ndarray, sizes) -> np.ndarray:
    """Row r: the exact TV between two product-multinomial laws, cell b
    holding sizes[b] sites colored from cols_p[r, :, b] in one and from
    cols_q[r, :, b] in the other, for (R, k, cells) stacks. Two colors with
    one cell take the binomial shortcut.

    Every other row's difference is the rank-2 product [L_p, -L_q] @
    [R_p; R_q] over the cells' balanced split (module docstring); one cell
    splits into no cells and itself, and its difference is R_p - R_q. The
    factors of a chunk of rows are built at once, and their products taken
    a sub-chunk at a time, each within _CACHE_BUDGET elements. Both kinds of
    chunk have one row count, the last one padded by repeating its last row.
    A matrix product rounds a row by the product's shape and the row's place
    in it, so each row gets the same bits in every stack that holds it at
    the same index."""
    k = cols_p.shape[1]
    if k == 2 and len(sizes) == 1:
        return _binomial_tvs(cols_p[:, 0, 0], cols_q[:, 0, 0], sizes[0])
    size = _statistic_size(sizes, k)
    check_budget("enumeration", size, "joint count statistic too large to enumerate")
    s = _balanced_split(sizes, k)
    width = _statistic_size(sizes[:s], k) + _statistic_size(sizes[s:], k)
    count = len(cols_p)
    step = max(1, _CACHE_BUDGET // size)
    chunk = step * max(1, _CACHE_BUDGET // (2 * width * step))
    values = np.empty(count)
    for lo in range(0, count, chunk):
        rows = np.minimum(np.arange(lo, lo + chunk), count - 1)
        rows_p, rows_q = cols_p[rows], cols_q[rows]
        values[lo:lo + chunk] = _chunk_tvs(rows_p, rows_q, sizes, s, step, min(chunk, count - lo))
    return values


def _chunk_tvs(cols_p: np.ndarray, cols_q: np.ndarray, sizes, s: int, step: int, count: int):
    """The TVs of the first count rows of a chunk of _product_tvs, split
    after s cells, with the differences taken step rows at a time. A call
    of its own, so that a chunk's arrays are freed before the next chunk's
    are built and the heap reuses their memory (page faults otherwise cost
    more than the arithmetic of a one-cell chunk)."""
    left_p, left_q, right_p, right_q = _split_laws(cols_p, cols_q, sizes, s)
    if s:
        a = np.stack((left_p, -left_q), axis=-1)
        b = np.stack((right_p, right_q), axis=1)
    values = []
    for lo in range(0, count, step):
        part = slice(lo, lo + step)
        if s:
            d = a[part] @ b[part]
        else:
            d = right_p[part]
            d -= right_q[part]
        values.append(_half_l1(d.reshape(step, -1), axis=1))
    return np.concatenate(values)[:count]


def _conditional_tvs(qs: np.ndarray, x0: Coloring, x0_tilde: Coloring) -> np.ndarray:
    """Row r: the exact TV between the two chains' laws given the composed
    paintbox qs[r], for an (R, k, k) stack of distinct starts. Given the
    paintbox, each chain is product-multinomial over the refinement cells
    of the pair, with cell distributions read from the columns of qs[r].
    Cells where both starts agree have equal laws and factor out."""
    col_a, col_b, sizes = zip(
        *((a - 1, b - 1, cnt) for a, b, cnt in _refinement_cells(x0, x0_tilde) if a != b)
    )
    return _product_tvs(qs[:, :, list(col_a)], qs[:, :, list(col_b)], sizes)


def tv_exact_atomic(
    law: PaintboxLaw,
    x0: Coloring,
    x0_tilde: Coloring,
    m: int,
) -> TVEstimate:
    """Exact TV between the two chains' unconditional laws at step m, for a
    finitely supported paintbox law: enumerate all atom sequences, mix the
    conditional count-statistic laws with the sequence weights, and take the
    half-L1 distance of the mixtures.

    The count statistic over the shared refinement cells stays sufficient
    under mixing because the conditional configuration law given the counts
    does not depend on the paintbox.
    """
    if m < 0:
        raise ValidationError("need m >= 0", field="m")
    atomic = law.as_atomic()
    if atomic is None:
        raise TheoryRefusal(
            "exact TV enumeration needs a finitely supported paintbox law",
            law=law.config(),
        )
    if law.k != x0.k:
        raise ValidationError("law and states must share k")
    cells = _refinement_cells(x0, x0_tilde)
    if m == 0:
        return TVEstimate(0.0 if x0 == x0_tilde else 1.0, "exact")
    k = law.k
    col_a, col_b, sizes = zip(*((a - 1, b - 1, cnt) for a, b, cnt in cells))
    r = len(atomic.atoms)
    # each sequence also composes m matrices, so m counts where it passes S
    check_budget("enumeration", (r, m, max(_statistic_size(sizes, k), m)),
                 "atom-sequence enumeration exceeds the budget")
    atoms = np.stack([a.entries for a in atomic.atoms])
    weights = np.asarray(atomic.weights, dtype=float)
    # digit t of sequence index i is the atom applied at step t + 1
    place = r ** np.arange(m - 1, -1, -1)
    # the mixture difference over the cells' balanced split (module docstring)
    s = _balanced_split(sizes, k)
    width = _statistic_size(sizes[:s], k) + _statistic_size(sizes[s:], k)
    d = part = None
    for seqs in _row_chunks(r**m, 2 * width):
        digits = np.arange(seqs.start, seqs.stop)[:, None] // place % r
        q = np.broadcast_to(np.eye(k), (len(digits), k, k))
        w = np.ones(len(digits))
        for t in range(m):
            q = atoms[digits[:, t]] @ q
            w = w * weights[digits[:, t]]
        left_p, left_q, right_p, right_q = _split_laws(q[:, :, list(col_a)], q[:, :, list(col_b)], sizes, s)
        a = np.concatenate((left_p, left_q))
        a *= np.concatenate((w, -w))[:, None]
        b = np.concatenate((right_p, right_q))
        if d is None:
            d = a.T @ b
        else:
            part = np.matmul(a.T, b, out=part)
            d += part
    return TVEstimate(_half_l1(d), "exact")
