"""Stationary laws of the lumped count chains: the batch-refresh chain's
one-count and `project`'s color counts."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def _gth(g: np.ndarray, band: int) -> np.ndarray:
    """The stationary law of the stochastic matrix g, which is overwritten,
    by Grassmann-Taksar-Heyman elimination (Operations Research 33, 1985):
    censor the states from the top down, dividing by the escape mass below
    each pivot instead of subtracting from one, so the law keeps its
    relative accuracy in the tails. If no move changes the state by more
    than band, pivot m touches only states m - band to m - 1, and no entry
    outside the band fills in (Stewart, 1994): O(size band^2) work.

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
        lo = max(0, m - band)
        escape = g[m, lo:m].sum()
        if not escape > 0:
            raise ValidationError(
                f"state {m} does not reach state 0: stationary law not certified unique"
            )
        g[lo:m, m] /= escape
        g[lo:m, lo:m] += np.outer(g[lo:m, m], g[m, lo:m])
    pi = np.zeros(size)
    pi[0] = 1.0
    for m in range(1, size):
        lo = max(0, m - band)
        pi[m] = pi[lo:m] @ g[lo:m, m]
        if pi[m] > 2.0**900:
            pi[: m + 1] = np.ldexp(pi[: m + 1], -900)
    return pi / math.fsum(pi)
