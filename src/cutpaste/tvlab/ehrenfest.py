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

The coin is fair, so swapping the two colors maps the chain to itself:
K(x, y) = K(n - x, n - y). Only the rows x <= n / 2 of the N1 chain are
computed, and the others are their mirrors. The N1 chain lumps once more,
to y = min(N1, n - N1) on n // 2 + 1 states, and its stationary law is
that of the folded chain, split evenly between x and n - x. Both steps are
exact and subtract nothing.

A move shifts the count by at most a, so the N1 chain is held as its
(n+1) x (2a+1) band of moves, and cutpaste.lumped runs it. The stationary
law comes from the banded elimination that `project` runs on its color
counts, here on the folded chain: O(n a^2) work, half that of the full
chain, in O(n a) memory. The forward sweep takes b steps per call with the
band of K^b, of half-width a b, at O(n a b) per block, no more than b
single steps. The block length b is the largest power of two whose band
fits the lab's one chunk budget, (n + 1)(2ab + 1) <= 2^15 elements, or 1
where b = 2 does not fit: 32 at (n, a) = (320, 1), 8 at (1100, 1), 2 at
(256, 16) and 1 at (320, 80). The law at t is always t // b blocks and
then t % b single steps, so a horizon's TV has the same bits in any grid,
asked alone and in the mixing search. The pass is refused past the
"ehrenfest_sites" budget on n, which bounds its memory and the
elimination's time, and a profile past the "ehrenfest_sweep" budget on the
sweep's multiply-adds; the mixing search's step allowance is bounded by n.
The process keeps each (n, a)'s stationary law, so a repeat pays for the
band and the sweep but not the elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chains import EhrenfestParams
from ..errors import (InconclusiveRefusal, TheoryRefusal, ValidationError, _epsilon_grid,
                      _fields_json, check_budget, coerce)
from ..lumped import _first_crossings, _half_l1, _stationary, _sweep
from .exact import _CACHE_BUDGET, TVEstimate


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
    j - h + a. A row's weights come from the ratio recurrence
    log w(h + 1) / w(h) = log((j - h)(a - h)) - log((h + 1)(n - j - a + h + 1)),
    summed from the row's first feasible h: no term is a difference of large
    log-factorials, whose rounding grew with n. Each count's weights are then
    normalised, so no step gains or loses mass. Only the rows j <= n // 2 are
    computed: the coin is fair, so swapping the colors maps the chain to
    itself, and the rows past n / 2 are their mirrors, out[n - j, d] =
    out[j, 2a - d]."""
    half = n // 2
    j = np.arange(half + 1)[:, None]
    h = np.arange(a + 1)[None, :]
    ok = (h <= j) & (a - h <= n - j)
    # the term from h to h + 1 where both are feasible, else 0
    up = ok[:, :-1] & ok[:, 1:]
    h = h[:, :-1]
    ratio = np.log(np.where(up, (j - h) * (a - h), 1))
    ratio -= np.log(np.where(up, (h + 1) * (n - j - a + h + 1), 1))
    logw = np.zeros((half + 1, a + 1))
    np.cumsum(ratio, axis=1, out=logw[:, 1:])
    logw[~ok] = -np.inf
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw, out=logw)
    w *= 0.5 / w.sum(axis=1, keepdims=True)
    out = np.zeros((n + 1, 2 * a + 1))
    out[: half + 1, : a + 1] = w[:, ::-1]
    out[: half + 1, a:] += w[:, ::-1]
    out[half + 1 :] = out[n - half - 1 :: -1, ::-1]
    return out


def _folded_stationary(moves: np.ndarray) -> np.ndarray:
    """The stationary law of the N1 chain held as the band moves, from the
    chain lumped by the color swap to y = min(N1, n - N1) on n // 2 + 1
    states (Kemeny and Snell, 1960): N1 and n - N1 move to y with the same
    probability, so row j <= n / 2 of moves with each target t past n / 2
    reflected to n - t is row j of the lumped chain. Each lumped move is a
    sum of at most two moves, with nothing subtracted. A lumped move shifts
    y by at most a, and by at most n // 2 between states, so the band is cut
    to the smaller half-width, which _stationary needs below its size. The
    lumped law pi_f unfolds to pi(x) = pi_f(min(x, n - x)) / 2, and
    pi(n / 2) = pi_f(n / 2) for even n: exactly, and mirror-symmetric bit
    for bit."""
    n, width = moves.shape[0] - 1, moves.shape[1]
    a, half = width // 2, n // 2
    fold = moves[: half + 1].copy()
    target = np.arange(half + 1)[:, None] + np.arange(-a, a + 1)
    j, d = np.nonzero(2 * target > n)
    over = fold[j, d]
    fold[j, d] = 0.0
    # t = j + d - a goes to n - t, at column n - 2j + 2a - d of row j
    fold[j, n - 2 * j + 2 * a - d] += over
    cut = max(0, a - half)
    pi = _stationary(fold[:, cut : width - cut])
    mirror = pi / 2
    if n % 2 == 0:
        mirror[half] = pi[half]
    return np.concatenate([mirror, mirror[n - half - 1 :: -1]])


def _block_length(n: int, a: int) -> int:
    """The block length b of the sweep: the largest power of two whose band
    of K^b, (n + 1) x (2ab + 1), fits the lab's one chunk budget, or 1."""
    b = 1
    while (n + 1) * (4 * a * b + 1) <= _CACHE_BUDGET:
        b *= 2
    return b


# (n, a) -> the read-only stationary law of the N1 chain, least recently
# used first: at most 256 entries of n + 1 doubles, 2.3 MB at the size cap
_stationary_laws: dict[tuple[int, int], np.ndarray] = {}
_STATIONARY_ENTRIES = 256


def _one_count_chain(params: EhrenfestParams):
    """The N1 chain's band, its stationary law, the all-ones start and the
    block length of its sweep.

    The chain depends only on (n, a), so the process keeps each stationary
    law, read-only, under that key: a profile or a mixing search at an (n, a)
    already seen skips the O(n a^2) elimination, whichever variant asks. The
    band, O(n a) and cheap to rebuild, is built on every call; a miss builds
    it once and eliminates once."""
    n, a = params.n, params.batch_size
    moves = _count_moves(n, a)
    pi = _stationary_laws.pop((n, a), None)
    if pi is None:
        pi = _folded_stationary(moves)
        pi.setflags(write=False)
        if len(_stationary_laws) >= _STATIONARY_ENTRIES:
            del _stationary_laws[next(iter(_stationary_laws))]
    _stationary_laws[n, a] = pi
    row = np.zeros(n + 1)
    row[n] = 1.0
    return moves, pi, row, _block_length(n, a)


def _check_exact_inputs(params: EhrenfestParams) -> None:
    check_budget("ehrenfest_sites", params.n,
                 "exact pass is limited to moderate n; use the coupling bounds instead")


def ehrenfest_tv_profile(params: EhrenfestParams, t_grid) -> list[tuple[int, TVEstimate]]:
    """Exact TV to stationarity at every horizon in t_grid, in one forward
    sweep. The two constant starts are symmetric, so the all-ones law
    computed here covers both. A horizon must be a whole number."""
    _check_exact_inputs(params)
    grid = sorted({coerce(t, int, "t_grid") for t in t_grid})
    if not grid or grid[0] < 0:
        raise ValidationError("t_grid must be non-empty with t >= 0", field="t_grid")
    n, a = params.n, params.batch_size
    b = _block_length(n, a)
    # t // b blocks of the band of K^b, then at most b single steps
    check_budget("ehrenfest_sweep", (grid[-1] // b + b) * (n + 1) * (2 * a * b + 1),
                 "the sweep to the last horizon is too long; use the coupling bounds instead")
    moves, pi, row, _ = _one_count_chain(params)
    return [(t, TVEstimate(_half_l1(law - pi), "exact")) for t, law in _sweep(moves, row, grid, b)]


def ehrenfest_mixing_time(params: EhrenfestParams, epsilon: float) -> int:
    """Smallest t with exact TV below epsilon, whose TV at each t is the one
    ehrenfest_tv_profile reports: the first crossing over the block ends of
    the sweep, then over the single steps inside the block that ends there,
    stepped from the law at that block's start. A sweep past
    ceil(2 (n/a) log n) + 8 ceil(n/a) steps is refused as inconclusive; the
    last partial block is stepped one step at a time up to that allowance."""
    (epsilon,) = _epsilon_grid(epsilon)
    _check_exact_inputs(params)
    n, a = params.n, params.batch_size
    t_max = int(math.ceil(2.0 * (n / a) * math.log(n))) + 8 * int(math.ceil(n / a))
    moves, pi, row, b = _one_count_chain(params)
    start, aligned = 0, row

    def block_ends():
        nonlocal start, aligned
        for t, law in _sweep(moves, row, range(0, t_max + 1, b), b):
            yield t, (_half_l1(law - pi),)
            # reached only while the search reads on: the last block end
            # not below epsilon
            start, aligned = t, law

    t_end = _first_crossings(block_ends(), [(epsilon,)])[0][epsilon]
    stop = t_max if t_end is None else t_end - 1
    singles = ((start + t, (_half_l1(law - pi),))
               for t, law in _sweep(moves, aligned, range(1, stop - start + 1), 1))
    t_mix = _first_crossings(singles, [(epsilon,)])[0][epsilon]
    if t_mix is None:
        t_mix = t_end
    if t_mix is not None:
        return t_mix
    raise InconclusiveRefusal(
        "no horizon below epsilon within the step allowance",
        epsilon=epsilon, t_max=t_max,
    )
