"""The lumped count chains: the batch-refresh chain's one-count, the color
count tables of `project`, and the lab's one multinomial coefficient, one
TV reduction and one first-crossing search.

A chain whose moves shift the state by at most a is held as a band,
moves[j, d] = P(j -> j + d - a) for d = 0 .. 2a, with zeros for moves off
the states. Its stationary law is one elimination and its forward laws one
sweep, both at O(size a) memory. The sweep steps by blocks of b steps,
each one application of the band of K^b built by banded squaring: one
numpy call per b steps, at no more multiply-adds than b single steps. The
law at t always takes the same path, t // b blocks and then t % b single
steps, so its bits do not depend on which other horizons are asked.

Under a paintbox atom a the sites move independently, so the counts N of s
sites move by K_a(s), row N the law of sum_c Mult(N_c, a[:, c]) over
_compositions(s, k). A table of cells, each cell its sites' counts, moves
by sum_a w_a (x)_cells K_a(cell size), applied one cell axis at a time.

A TV between two laws is _half_l1 of their difference. The TV between the
laws of two chains driven by one kernel, and the TV to a stationary law, is
non-increasing in the horizon, since a Markov kernel contracts TV (Levin,
Peres and Wilmer, Markov Chains and Mixing Times, 2009, ch. 4). So a mixing
time is the first horizon of a forward sweep below epsilon, and
_first_crossings finds it for every search.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError


@lru_cache(maxsize=256)
def _compositions(n: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to n, lexicographic."""
    if k == 1:
        out = np.array([[n]], dtype=np.int64)
    else:
        parts = []
        for first in range(n + 1):
            rest = _compositions(n - first, k - 1)
            block = np.empty((rest.shape[0], k), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            parts.append(block)
        out = np.vstack(parts)
    out.setflags(write=False)
    return out


# stirlerr(m) = log m! - (m log m - m + log(2 pi m) / 2) at m = 0 .. 15, from 40-digit mpmath (0 unread)
_STIRLERR = np.array([0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
                      0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
                      0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
                      0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _log_multinomials(counts: np.ndarray) -> np.ndarray:
    """log multinom(n; N) for each count vector N along the last axis, n its sum: the
    lab's one binomial and multinomial coefficient, in Stirling's form (C. Loader, "Fast
    and Accurate Computation of Binomial Probabilities", 2000): sum_c N_c log1p((n - N_c)
    / N_c) + rest(n) - sum_c rest(N_c), for rest(m) = log m! - (m log m - m) = log(2 pi m)
    / 2 + stirlerr(m), 0 at m = 0, and stirlerr the table up to 15 and its 5-term series
    above, whose next term is below 1e-16 there. The entropy terms hold almost all of the
    value and none is negative, so nothing cancels: each value is within 4 ulps of the
    exact one, and exactly 0 where at most one count is positive."""
    n = counts.sum(axis=-1, keepdims=True)
    # an empty color's entropy term is 0 log1p(n) = 0
    entropy = (counts * np.log1p((n - counts) / np.maximum(counts, 1.0))).sum(axis=-1)
    m = np.concatenate((n, counts), axis=-1)
    big = np.maximum(m, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    stirlerr = np.where(m <= 15, _STIRLERR[np.minimum(m, 15).astype(np.int64)], series)
    rest = np.where(m > 0, 0.5 * np.log(2 * math.pi * np.maximum(m, 1.0)) + stirlerr, 0.0)
    return entropy + (rest[..., 0] - rest[..., 1:].sum(axis=-1))


@lru_cache(maxsize=256)
def _count_table(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed half of every Multinomial(size, .) log-pmf over
    _compositions(size, k): the log multinomial coefficients, and the count
    vectors as floats, both read-only. `project`'s stationary tables read
    the coefficients too."""
    counts = _compositions(size, k).astype(float)
    coef = _log_multinomials(counts)
    coef.setflags(write=False)
    counts.setflags(write=False)
    return coef, counts


def _statistic_size(sizes, k: int) -> int:
    """Number of joint count vectors over cells of the given sizes."""
    return math.prod(math.comb(size + k - 1, k - 1) for size in sizes)


def _rank(counts: np.ndarray) -> np.ndarray:
    """The index of each count vector (last axis) in _compositions(s, k),
    s their sum: the vectors before N agree with it up to some color i < k - 1
    and hold fewer there, C(r_i + j, j) - C(r_i - N_i + j, j) of them, for
    r_i the sites at colors i and after and j = k - 1 - i."""
    k = counts.shape[-1]
    after = np.cumsum(counts[..., ::-1], axis=-1)[..., :0:-1]
    j = np.arange(k - 1, 0, -1)
    table = np.array([[math.comb(r + i, i) for i in range(k)] for r in range(int(after.max(initial=0)) + 1)])
    return (table[after, j] - table[after - counts[..., :-1], j]).sum(axis=-1)


@lru_cache(maxsize=256)
def _site_moves(s: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(color, parent, up) over the count vectors of s >= 1 sites: each N's
    first color c, the index of N - e_c among those of s - 1 sites, and
    up[r, M], the index of M + e_r for each vector M of s - 1 sites."""
    counts = _compositions(s, k)
    color = np.argmax(counts > 0, axis=1)
    unit = np.eye(k, dtype=np.int64)
    return color, _rank(counts - unit[color]), _rank(_compositions(s - 1, k)[None] + unit[:, None])


def _count_kernels(atoms: np.ndarray, sizes) -> dict[int, np.ndarray]:
    """{s: K_a(s) stacked over the (A, k, k) atoms} for each s in sizes,
    K_a(0) the 1 x 1 identity, built one site at a time: row N of K_a(s) is
    row N - e_c of K_a(s - 1), c the first color of N, shifted by e_r with
    weight a[r, c] and summed over r. No term is negative, so the support is exact."""
    count, k = atoms.shape[:2]
    kernel = np.ones((count, 1, 1))
    out = {0: kernel} if 0 in sizes else {}
    for s in range(1, max(sizes) + 1):
        color, parent, up = _site_moves(s, k)
        rest, kernel = kernel[:, parent], np.zeros((count, len(color), len(color)))
        for r in range(k):
            kernel[:, :, up[r]] += atoms[:, r, color, None] * rest
        if s in sizes:
            out[s] = kernel
    return out


def _table_step(law: np.ndarray, kernels, weights: np.ndarray) -> np.ndarray:
    """sum_a weights[a] law (x)_c kernels[c][a], for a table law with one
    axis per cell: each cell's stack of kernels is one batched product after
    the cell's axis is rotated last, which leaves the axes in order after
    the last cell."""
    table = law.reshape(1, -1)
    for kernel in kernels:
        table = table.reshape(len(table), kernel.shape[-1], -1).swapaxes(1, 2) @ kernel
    return (weights @ table.reshape(len(table), -1)).reshape(law.shape)


def _half_l1(d: np.ndarray, axis=None):
    """Half the L1 norm of a difference of laws d, over all of d or along
    axis: the lab's one TV reduction. Overwrites d."""
    return 0.5 * np.abs(d, out=d).sum(axis)


def _first_crossings(sweep, grids) -> list[dict]:
    """The first horizon at which each series falls below each epsilon of
    its grid.

    sweep yields (m, values) at increasing m, one certified upper value per
    series, and grids holds one epsilon grid per series. The sweep is read
    only until every series is below its whole grid. Returns one
    {epsilon: m} per series, with None where the sweep ended first. On a
    non-increasing series the first crossing is the mixing time; on a Monte
    Carlo bound it is the first horizon certified."""
    crossings = [dict.fromkeys(grid) for grid in grids]
    for m, values in sweep:
        for first, value in zip(crossings, values):
            for e, t in first.items():
                if t is None and value < e:
                    first[e] = m
        if all(t is not None for first in crossings for t in first.values()):
            break
    return crossings


def _gth(g: np.ndarray, band: int) -> np.ndarray:
    """The stationary law of the stochastic matrix g, which is overwritten,
    by Grassmann-Taksar-Heyman elimination (Operations Research 33, 1985):
    censor the states from the top down, dividing by the escape mass below
    each pivot instead of subtracting from one, so the law keeps its
    relative accuracy in the tails. If no move changes the state by more
    than band, no entry outside the band fills in (Stewart, 1994): O(size
    band^2) work.

    The order is left-looking: pivot m first brings its row and column up
    to date from the pivots m + 1 .. m + band above it, two matrix-vector
    products over the finished rows and columns of those pivots, and then
    divides its column by the escape mass. Those are the products of
    nonnegatives that a right-looking loop adds into row and column m one
    pivot at a time, summed in another order. The elimination has no use
    for the diagonal, so pivot m sets its own entry to 1, and each product
    then adds in row or column m's own entries too. The reads reach 2 band
    off the diagonal, to cells that are zero, so g may be a view of band
    storage that holds every cell within 2 band of the diagonal.

    No step subtracts, so pivot m is positive exactly when state m reaches a
    lower state through higher ones, and every pivot is positive exactly when
    every state reaches state 0. Then the class of state 0 is the only closed
    class, the law is unique, and states outside that class get exactly 0.
    Otherwise ValidationError names the first state whose pivot is not
    positive; underflow can only add such a refusal.

    The back-substituted pi[m] / pi[0] can pass the double range (near
    n = 1030 for the single-site one-count law), so the prefix is scaled by
    2^-900 whenever an entry passes 2^900. That scaling is exact and
    commutes with the final division by the law's correctly rounded sum
    (math.fsum), so the normalised law keeps every bit wherever the unscaled
    law was finite, except in entries that end up subnormal. A pairwise sum
    there left the mass of the single-site law at n = 1029 short of 1 by
    1.5e-16, against 1.8e-17 with fsum."""
    size = g.shape[0]
    for m in range(size - 1, 0, -1):
        lo, hi = max(0, m - band), min(size, m + band + 1)
        g[m, m] = 1.0
        row = g[m, lo:m]
        row[:] = g[m, m:hi] @ g[m:hi, lo:m]
        escape = row.sum()
        if not escape > 0:
            raise ValidationError(
                f"state {m} does not reach state 0: stationary law not certified unique"
            )
        np.divide(g[lo:m, m:hi] @ g[m:hi, m], escape, out=g[lo:m, m])
    pi = np.zeros(size)
    pi[0] = 1.0
    for m in range(1, size):
        lo = max(0, m - band)
        pi[m] = pi[lo:m] @ g[lo:m, m]
        if pi[m] > 2.0**900:
            pi[: m + 1] = np.ldexp(pi[: m + 1], -900)
    return pi / math.fsum(pi)


def _stationary(moves: np.ndarray) -> np.ndarray:
    """Stationary law of the chain held as the band moves, a < size, by
    _gth on band storage that holds every cell within reach = min(2a,
    size - 1) of the diagonal: row i keeps columns i - reach .. i + reach,
    and a row stride one cell short of the storage width makes it an
    ordinary size x size view."""
    size, width = moves.shape
    a = width // 2
    reach = min(2 * a, size - 1)
    storage = np.zeros((size, 2 * reach + 1))
    storage[:, reach - a : reach + a + 1] = moves
    step = storage.itemsize
    g = as_strided(storage.reshape(-1)[reach:], (size, size), (2 * reach * step, step))
    return _gth(g, a)


def _band_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The band of the product of the matrices held as the bands x and y:
    row j of x moves j by e - hx to j + e - hx, whose row of y moves it on by
    f - hy, so out[j, c] sums x[j, e] y[j + e - hx, c - e] over e, one
    einsum over a strided view z[j, e, c] of y's rows, each stored with
    wx - 1 zeros on either side. The bands are zero off the states, so the
    product's half-width, hx + hy, is cut at size - 1, past which every
    entry is zero."""
    size, wx = x.shape
    wy = y.shape[1]
    hx, hy = wx // 2, wy // 2
    width = wy + 2 * (wx - 1)
    skew = np.zeros((size + 2 * hx, width))
    skew[hx : hx + size, wx - 1 : wx - 1 + wy] = y
    step = skew.itemsize
    # z[j, e, c] = skew[j + e, wx - 1 + c - e]
    strides = (width * step, (width - 1) * step, step)
    z = as_strided(skew.reshape(-1)[wx - 1 :], (size, wx, wx + wy - 1), strides)
    out = np.einsum("je,jec->jc", x, z)
    cut = max(0, hx + hy - (size - 1))
    return out[:, cut : out.shape[1] - cut]


def _band_power(band: np.ndarray, b: int) -> np.ndarray:
    """The band of the b-th power of the matrix held as band, for b a power
    of two, by banded squaring."""
    for _ in range(b.bit_length() - 1):
        band = _band_product(band, band)
    return band


def _advance(band: np.ndarray, law: np.ndarray) -> np.ndarray:
    """The law after one application of the incoming band band[i, e] =
    P(i - h + e -> i) to law, the lab's one stepping kernel: new[i] is the
    dot of the window law[i - h .. i + h], zero off the states, with
    band[i], at O(size h)."""
    size, width = band.shape
    h = width // 2
    padded = np.zeros(size + 2 * h)
    padded[h : h + size] = law
    # a view built directly on the buffer: as_strided or sliding_window_view
    # would add about as much per call as the einsum takes at a = 1
    windows = np.ndarray((size, width), buffer=padded, strides=2 * padded.strides)
    return np.einsum("ij,ij->i", windows, band)


def _sweep(moves: np.ndarray, row: np.ndarray, horizons, b: int):
    """(t, the law at t) at each of the increasing horizons, from the law
    row at 0, of the chain held as the band moves, along one canonical path:
    the law at t is (K^b)^(t // b) row followed by t % b single steps, for
    the block length b, a power of two. The sweep keeps the block-aligned
    law and steps a copy of it through a block's horizons, so a horizon's
    law has the same bits whatever else is asked. One application of the
    band of K^b, of half-width a b, takes no more multiply-adds than b
    single steps, since 2ab + 1 <= b (2a + 1), in one call. No law yielded
    is written to afterwards."""
    size, width = moves.shape
    a = width // 2
    padded = np.zeros((size + 2 * a, width))
    padded[a : a + size] = moves
    step = padded.itemsize
    # one[i, e] = padded[i + e, 2a - e], one anti-diagonal of padded per row:
    # the incoming band, which is the band of the transposed kernel
    strides = (width * step, (width - 1) * step)
    one = as_strided(padded.reshape(-1)[2 * a :], (size, width), strides).copy()
    del padded
    # the incoming band of K^b is the band of (K^T)^b
    block = _band_power(one, b)
    q, aligned = 0, row
    t, law = 0, row
    for horizon in horizons:
        while q < horizon // b:
            aligned = _advance(block, aligned)
            q += 1
            t, law = q * b, aligned
        while t < horizon:
            law = _advance(one, law)
            t += 1
        yield t, law
