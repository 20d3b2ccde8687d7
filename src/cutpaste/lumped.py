"""The lumped count chains: the batch-refresh chain's one-count and
`project`'s color counts.

A chain whose moves shift the state by at most a is held as a band,
moves[j, d] = P(j -> j + d - a) for d = 0 .. 2a, with zeros for moves off
the states. Its stationary law is one elimination and its forward laws one
sweep, both at O(size a) memory.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ValidationError


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
    2^-900 whenever an entry passes 2^900. That is exact, so the normalised
    law keeps every bit wherever the unscaled law was finite, except in
    entries that end up subnormal."""
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


def _sweep(moves: np.ndarray, row: np.ndarray):
    """The laws one, two, ... steps on from the law row of the chain held as
    the band moves, at O(size a) a step: new[i] is the dot of the window
    row[i - a .. i + a] with the incoming band kin[i, e] = P(i - a + e -> i).
    The laws alternate between two zero-padded buffers, so each one yielded
    is overwritten two steps on."""
    size, width = moves.shape
    a = width // 2
    padded = np.zeros((size + 2 * a, width))
    padded[a : a + size] = moves
    step = padded.itemsize
    # kin[i, e] = padded[i + e, 2a - e], one anti-diagonal of padded per row
    strides = (width * step, (width - 1) * step)
    kin = as_strided(padded.reshape(-1)[2 * a :], (size, width), strides).copy()
    del padded
    laws = np.zeros((2, size + 2 * a))
    laws[0, a : a + size] = row
    windows = sliding_window_view(laws, width, axis=1)
    now = 0
    while True:
        np.einsum("ij,ij->i", windows[now], kin, out=laws[1 - now, a : a + size])
        now = 1 - now
        yield laws[now, a : a + size]
