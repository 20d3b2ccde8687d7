"""Batch-refresh chain: coupling bounds and exact TV to stationarity.

The exact pass never enumerates the 2^n configurations. The batch is a
uniform subset and all its sites share one coin, so the move from a word
depends on the word only through its one-count N1: the batch holds h of the
j ones with hypergeometric probability, and the count goes to j - h or
j - h + a. N1 is therefore itself a Markov chain on n + 1 states (the chain
is lumpable; Kemeny & Snell, Finite Markov Chains, 1960). From a constant
start the law at every time t is exchangeable, and so is the stationary
law, so both are uniform given N1 and their TV equals the TV between the
two N1 laws.

A move shifts the count by at most a, so the N1 chain is a band of width a,
kept only as the table of its moves. A forward step scatters the law over
that table at O(n a). The stationary law comes from Grassmann-Taksar-Heyman
elimination (Operations Research 33, 1985), which does no subtractions, so
keeps its relative accuracy in the tails, and adds no entry outside the band
(Stewart, Introduction to the Numerical Solution of Markov Chains, 1994):
O(n a^2) work, in the (n+1)^2 matrix that DEFAULT_EXACT_N_LIMIT bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chains import EhrenfestParams
from ..errors import BudgetRefusal, TheoryRefusal, ValidationError
from ..partitions import Coloring
from .exact import TVEstimate, _half_l1, _log_factorials

DEFAULT_EXACT_N_LIMIT = 1100


def coupling_upper(params: EhrenfestParams, t: float) -> float:
    """Mean residual-coupling bound n * (1 - a/n)^t; can exceed 1 early on."""
    if not t >= 0:
        raise ValidationError("need t >= 0", field="t")
    n, a = params.n, params.batch_size
    return n * (1.0 - a / n) ** t


@dataclass(frozen=True)
class EhrenfestBounds:
    """Coupling bounds, optionally evaluated on the beta schedules
    t = (n / 2a) log n +/- beta n / a."""

    n: int
    batch_size: int
    t: float | None = None
    upper_at_t: float | None = None
    beta: float | None = None
    t_upper_schedule: float | None = None
    upper_at_schedule: float | None = None
    t_lower_schedule: float | None = None
    lower_at_schedule: float | None = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "batch_size": self.batch_size,
            "t": self.t,
            "upper_at_t": self.upper_at_t,
            "beta": self.beta,
            "t_upper_schedule": self.t_upper_schedule,
            "upper_at_schedule": self.upper_at_schedule,
            "t_lower_schedule": self.t_lower_schedule,
            "lower_at_schedule": self.lower_at_schedule,
        }


def ehrenfest_bounds(params: EhrenfestParams, t: float | None = None, beta: float | None = None) -> EhrenfestBounds:
    """Upper bound at a given t, and/or both schedule bounds at a given beta.

    The lower bound 1 - 8 exp(1 - 2 beta) at the early schedule time needs
    the refresh fraction at or below one half; larger batches are refused
    for the lower bound (the upper bound has no such restriction). Where the
    early schedule time is negative, both lower-schedule fields are None; a
    beta whose late schedule time overflows is refused.
    """
    if t is None and beta is None:
        raise ValidationError("provide t, beta, or both", field="t")
    n, a = params.n, params.batch_size
    out = {"n": n, "batch_size": a}
    if t is not None:
        out["t"] = float(t)
        out["upper_at_t"] = coupling_upper(params, float(t))
    if beta is not None:
        beta = float(beta)
        if not beta > 0:
            raise ValidationError("need beta > 0", field="beta")
        if params.alpha > 0.5:
            raise TheoryRefusal(
                "the schedule lower bound needs refresh fraction alpha <= 1/2",
                alpha=params.alpha,
            )
        base = (n / (2.0 * a)) * math.log(n)
        shift = beta * n / a
        if not math.isfinite(base + shift):
            raise ValidationError("beta is too large: the schedule time overflows", field="beta")
        out["beta"] = beta
        out["t_upper_schedule"] = base + shift
        out["upper_at_schedule"] = coupling_upper(params, base + shift)
        if base - shift >= 0:
            out["t_lower_schedule"] = base - shift
            out["lower_at_schedule"] = 1.0 - 8.0 * math.exp(1.0 - 2.0 * beta)
    return EhrenfestBounds(**out)


@dataclass(frozen=True)
class LogLogSchedule:
    """Large-batch schedule: refresh fraction 1 - exp(-log n / log log n)
    run for (1 + beta) log log n steps, against the target n^-beta."""

    n: int
    beta: float
    alpha: float
    batch_size: int
    t: float
    upper_rate: float
    upper_batch: float
    target: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta,
            "alpha": self.alpha,
            "batch_size": self.batch_size,
            "t": self.t,
            "upper_rate": self.upper_rate,
            "upper_batch": self.upper_batch,
            "target": self.target,
        }


def loglog_schedule(n: int, beta: float) -> LogLogSchedule:
    """Evaluate the coupling bound on the aggressive-batch schedule.

    upper_rate uses the exact fraction alpha and satisfies
    upper_rate <= n^-beta by direct algebra; upper_batch uses the integer
    batch floor(alpha n) that an actual chain must use, which weakens the
    rate slightly.
    """
    if n < 3:
        raise ValidationError("schedule needs n >= 3 so log log n > 0", field="n")
    if not beta > 0:
        raise ValidationError("need beta > 0", field="beta")
    lln = math.log(math.log(n))
    alpha = 1.0 - math.exp(-math.log(n) / lln)
    t = (1.0 + beta) * lln
    if not math.isfinite(t):
        raise ValidationError("beta is too large: the schedule time overflows", field="beta")
    params = EhrenfestParams(n, alpha)
    return LogLogSchedule(
        n=n,
        beta=float(beta),
        alpha=alpha,
        batch_size=params.batch_size,
        t=t,
        upper_rate=n * (1.0 - alpha) ** t,
        upper_batch=coupling_upper(params, t),
        target=float(n) ** (-beta),
    )


def _count_moves(n: int, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of N1 as (from, to, probability) arrays: from j ones, with
    weight C(j, h) C(n - j, a - h) / (2 C(n, a)) each, to j - h and j - h + a."""
    lf = _log_factorials(n)
    j = np.arange(n + 1)[:, None]
    h = np.arange(a + 1)[None, :]
    rest, miss = n - j, a - h
    ok = (h <= j) & (miss <= rest)
    logw = (
        (lf[j] - lf[h] - lf[np.where(ok, j - h, 0)])
        + (lf[rest] - lf[miss] - lf[np.where(ok, rest - miss, 0)])
        - (lf[n] - lf[a] - lf[n - a])
    )
    w = 0.5 * np.exp(np.where(ok, logw, -np.inf))
    ones, hits = np.nonzero(w)
    low = ones - hits
    return np.tile(ones, 2), np.concatenate([low, low + a]), np.tile(w[ones, hits], 2)


def _step(row: np.ndarray, moves) -> np.ndarray:
    """The one-count law one step on, at O(n a): each move carries its share."""
    src, dst, p = moves
    return np.bincount(dst, weights=row[src] * p, minlength=row.size)


def _stationary(moves, n: int, a: int) -> np.ndarray:
    """Stationary law by Grassmann-Taksar-Heyman elimination: censor the
    states from the top down, dividing by the escape mass below each pivot
    instead of subtracting from one. Count 0 is reachable from every count,
    so every pivot is positive. Pivot m touches only counts m - a to m - 1.

    The back-substituted pi[m] / pi[0] grows like C(n, m), past the double
    range near n = 1030, so the prefix is scaled down by 2^-900 whenever an
    entry passes 2^900. A power-of-two scaling is exact, so wherever the
    unscaled law was finite the normalised law keeps every bit, except in
    entries that end up subnormal."""
    src, dst, p = moves
    size = n + 1
    g = np.bincount(src * size + dst, weights=p, minlength=size * size).reshape(size, size)
    for m in range(n, 0, -1):
        lo = max(0, m - a)
        g[lo:m, m] /= g[m, lo:m].sum()
        g[lo:m, lo:m] += np.outer(g[lo:m, m], g[m, lo:m])
    pi = np.zeros(size)
    pi[0] = 1.0
    for m in range(1, size):
        lo = max(0, m - a)
        pi[m] = pi[lo:m] @ g[lo:m, m]
        if pi[m] > 2.0**900:
            pi[: m + 1] = np.ldexp(pi[: m + 1], -900)
    return pi / pi.sum()


def _tv_sweep(params: EhrenfestParams, horizons):
    """(t, exact TV to stationarity) at each of the increasing horizons, from
    the all-ones start, in one forward pass of the one-count chain."""
    n, a = params.n, params.batch_size
    moves = _count_moves(n, a)
    pi = _stationary(moves, n, a)
    row = np.zeros(n + 1)
    row[n] = 1.0
    t = 0
    for horizon in horizons:
        for _ in range(t, horizon):
            row = _step(row, moves)
        t = horizon
        yield t, _half_l1(row, pi)


def _check_exact_inputs(params: EhrenfestParams, x0) -> None:
    n = params.n
    if n > DEFAULT_EXACT_N_LIMIT:
        raise BudgetRefusal(
            "exact pass is limited to moderate n; use the coupling bounds instead",
            n=n, limit=DEFAULT_EXACT_N_LIMIT,
        )
    if x0 is not None:
        if not isinstance(x0, Coloring) or x0.k != 2 or x0.n != n:
            raise ValidationError("x0 must be a 2-coloring of the chain's sites", field="x0")
        if len(set(x0.word)) != 1:
            raise TheoryRefusal(
                "the exact pass covers constant initial colorings only",
                x0=x0.to_string(),
            )


def ehrenfest_tv_profile(
    params: EhrenfestParams, t_grid, x0: Coloring | None = None
) -> list[tuple[int, TVEstimate]]:
    """Exact TV to stationarity at every horizon in t_grid, in one forward
    sweep. The two constant starts are symmetric, so the all-ones law
    computed here covers both."""
    _check_exact_inputs(params, x0)
    grid = sorted({int(t) for t in t_grid})
    if not grid or grid[0] < 0:
        raise ValidationError("t_grid must be non-empty with t >= 0", field="t_grid")
    return [(t, TVEstimate(tv, "exact")) for t, tv in _tv_sweep(params, grid)]


def ehrenfest_tv_exact(params: EhrenfestParams, t: int, x0: Coloring | None = None) -> TVEstimate:
    """Exact TV between the chain's law at horizon t (from a constant start)
    and its stationary law."""
    return ehrenfest_tv_profile(params, [t], x0)[0][1]


def ehrenfest_mixing_time(params: EhrenfestParams, epsilon: float, t_max: int | None = None) -> int:
    """Smallest t with exact TV below epsilon. TV to stationarity is
    non-increasing in t, so the first crossing found by the forward sweep is
    the mixing time."""
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie in (0, 1)", field="epsilon")
    _check_exact_inputs(params, None)
    n, a = params.n, params.batch_size
    if t_max is None:
        t_max = int(math.ceil(2.0 * (n / a) * math.log(n))) + 8 * int(math.ceil(n / a))
    for t, tv in _tv_sweep(params, range(t_max + 1)):
        if tv < epsilon:
            return t
    raise BudgetRefusal(
        "no horizon below epsilon within the step allowance",
        epsilon=epsilon, t_max=t_max,
    )
