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

A move shifts the count by at most a, so the N1 chain is held as its
(n+1) x (2a+1) band of moves, and cutpaste.lumped runs it: a forward step
is one windowed dot per count at O(n a), and the stationary law comes from
the banded elimination that `project` runs on its color counts, O(n a^2)
work in O(n a) memory. The pass is refused past the "ehrenfest_sites"
budget on n, which bounds its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chains import EhrenfestParams
from ..errors import InconclusiveRefusal, TheoryRefusal, ValidationError, _epsilon_grid, _fields_json, check_budget
from ..lumped import _first_crossings, _half_l1, _stationary, _sweep
from .exact import TVEstimate, _log_factorials


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

    to_json = _fields_json


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

    to_json = _fields_json


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


def _count_moves(n: int, a: int) -> np.ndarray:
    """The N1 chain as a band, out[j, d] = P(j -> j + d - a): from j ones,
    with weight C(j, h) C(n - j, a - h) / (2 C(n, a)) each, to j - h and
    j - h + a; each count's weights are normalised, so no step gains or
    loses mass."""
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
    w = np.exp(np.where(ok, logw, -np.inf))
    w *= 0.5 / w.sum(axis=1, keepdims=True)
    out = np.zeros((n + 1, 2 * a + 1))
    out[:, : a + 1] = w[:, ::-1]
    out[:, a:] += w[:, ::-1]
    return out


def _tv_sweep(params: EhrenfestParams, horizons):
    """(t, the N1 law at t less the stationary law, as a fresh array) at each
    of the increasing horizons, from the all-ones start, in one forward pass
    of the one-count chain."""
    n, a = params.n, params.batch_size
    moves = _count_moves(n, a)
    pi = _stationary(moves)
    row = np.zeros(n + 1)
    row[n] = 1.0
    laws = _sweep(moves, row)
    t = 0
    for horizon in horizons:
        for _ in range(t, horizon):
            row = next(laws)
        t = horizon
        yield t, row - pi


def _check_exact_inputs(params: EhrenfestParams) -> None:
    check_budget("ehrenfest_sites", params.n,
                 "exact pass is limited to moderate n; use the coupling bounds instead")


def ehrenfest_tv_profile(params: EhrenfestParams, t_grid) -> list[tuple[int, TVEstimate]]:
    """Exact TV to stationarity at every horizon in t_grid, in one forward
    sweep. The two constant starts are symmetric, so the all-ones law
    computed here covers both."""
    _check_exact_inputs(params)
    grid = sorted({int(t) for t in t_grid})
    if not grid or grid[0] < 0:
        raise ValidationError("t_grid must be non-empty with t >= 0", field="t_grid")
    return [(t, TVEstimate(_half_l1(d), "exact")) for t, d in _tv_sweep(params, grid)]


def ehrenfest_mixing_time(params: EhrenfestParams, epsilon: float) -> int:
    """Smallest t with exact TV below epsilon: the first crossing of the
    forward sweep, whose TV at each t is the one ehrenfest_tv_profile
    reports. A sweep past ceil(2 (n/a) log n) + 8 ceil(n/a) steps is refused
    as inconclusive."""
    (epsilon,) = _epsilon_grid(epsilon)
    _check_exact_inputs(params)
    n, a = params.n, params.batch_size
    t_max = int(math.ceil(2.0 * (n / a) * math.log(n))) + 8 * int(math.ceil(n / a))
    sweep = ((t, (_half_l1(d),)) for t, d in _tv_sweep(params, range(t_max + 1)))
    t_mix = _first_crossings(sweep, [(epsilon,)])[0][epsilon]
    if t_mix is not None:
        return t_mix
    raise InconclusiveRefusal(
        "no horizon below epsilon within the step allowance",
        epsilon=epsilon, t_max=t_max,
    )
