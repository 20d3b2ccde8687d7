"""Mixing-time search and cutoff experiments over growing n.

A mixing-time query first runs the collapse diagnostic's scan as a gate;
without a certified collapsing product the chain need not mix to a unique
law and the search is refused. One witness certifies collapse, so the gate
stops at the first sampled product that contracts V or is positive, and
only a refusal carries the full diagnostic.

What the search certifies is the TV between the chains started from the
designed pairs, the two constant colorings of each pair of colors, at the
worst pair: exactly under exact_atomic, and under mc_sandwich through the
shared-paintbox coupling, whose mean conditional TV bounds it from above.
It is not the distance to stationarity from every start. From the constant
start i a step reads only column i of the paintbox, so under a law with
exchangeable columns the two constant starts have one law from m = 1 on,
while other starts may still be far from stationarity. A horizon only
counts as mixed when its estimate is certified below epsilon (exact value
below, or mean plus three standard errors below for MC). The search is one
forward sweep m = 1, 2, ...: its MC products extend one path by one step
per horizon, every designed pair is scored on that path (each pair's bound
stands on its own), and the sweep stops at the first horizon certified for
the last open epsilon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetRefusal, TheoryRefusal, ValidationError, _epsilon_grid, _fields_json, _renamed
from ..lumped import _first_crossings
from ..paintbox import PaintboxLaw
from ..partitions import Coloring
from ..products import _collapse_scan, _products, estimate_lyapunov
from ..rng import as_stream
from .exact import TVEstimate, tv_exact_atomic
from .mc import _upper_bound, make_constant_pair

METHODS = ("exact_atomic", "mc_sandwich")


def designed_pairs(n: int, k: int) -> list[tuple[Coloring, Coloring]]:
    """Initial-state pairs whose worst-case TV drives the mixing search: the
    constant colorings in each unordered color pair. Constant pairs refine
    into a single cell, so their exact statistic has C(n+k-1, k-1) states,
    n+1 at k = 2, and the search scales to large n."""
    return [make_constant_pair(n, k, i, j) for i, j in itertools.combinations(range(1, k + 1), 2)]


def _certified(est: TVEstimate) -> float:
    """The value an estimate certifies the TV below: the exact value, or the
    MC mean plus three standard errors."""
    if est.kind == "exact":
        return est.value
    return est.value + 3.0 * est.mc_std_error


def _check_search(law: PaintboxLaw, k: int, method: str, replicates: int, m_max: int) -> None:
    """The search settings that mixing_time and cutoff_experiment share,
    checked before either spends any work."""
    if law.k != k:
        raise ValidationError(f"law has k={law.k}, asked for k={k}", field="k")
    if k < 2:
        raise ValidationError("the designed pairs need k >= 2", field="k")
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}", field="method")
    if m_max < 1:
        raise ValidationError("need m_max >= 1", field="m_max")
    if method == "mc_sandwich" and replicates < 2:
        raise ValidationError(
            "MC certification needs replicates >= 2 for a standard error", field="replicates"
        )


@dataclass(frozen=True)
class MixingProfile:
    """Search record for one chain size: every probed horizon's worst-pair
    estimate, and the smallest certified horizon per epsilon (None when the
    search could not certify one)."""

    n: int
    epsilons: tuple[float, ...]
    estimates: tuple[tuple[int, TVEstimate], ...]
    t_mix: dict[float, int | None]
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        ms = [m for m, _ in self.estimates]
        # the search builds every profile: a broken one is a program fault
        if ms != sorted(set(ms)):
            raise RuntimeError("estimates must be sorted by distinct m")
        if set(self.t_mix) != set(self.epsilons):
            raise RuntimeError("t_mix must cover exactly the epsilon grid")
        known = [(e, t) for e, t in sorted(self.t_mix.items()) if t is not None]
        for (_, ta), (_, tb) in zip(known, known[1:]):
            if tb > ta:
                raise RuntimeError("t_mix must be non-increasing in epsilon")

    def to_json(self) -> dict:
        return {
            **_fields_json(self),
            "estimates": [{"m": m, **est.to_json()} for m, est in self.estimates],
            "t_mix": [{"epsilon": e, "m": self.t_mix[e]} for e in self.epsilons],
        }


def mixing_time(
    law: PaintboxLaw,
    n: int,
    k: int,
    epsilon=0.25,
    method: str = "mc_sandwich",
    seed=0,
    replicates: int = 2000,
    m_max: int = 4096,
) -> MixingProfile:
    """Smallest horizon with certified worst-pair TV below each epsilon.

    Probes m = 1, 2, ... in one forward sweep, and stops at the first
    horizon certified below the last open epsilon, at m_max, or where
    the enumeration budget refuses a horizon. Under mc_sandwich one product
    path extends a step per horizon, so each pair's estimate at m is the
    one tv_upper_mc gives at m with the search's seed. MC certification
    needs a standard error, so mc_sandwich needs at least two replicates.
    Certification failures (budget or band width) leave t_mix None for that
    epsilon and add a flag instead of raising.
    """
    _check_search(law, k, method, replicates, m_max)
    if n < 1:
        raise ValidationError("need n >= 1", field="n")
    eps_grid = _epsilon_grid(epsilon)

    stream = as_stream(seed)
    refused = _collapse_scan(law, seed=stream.derive("collapse-gate"), first_witness=True)
    if refused is not None:
        raise TheoryRefusal(
            "mixing-time search needs a certified collapsing product",
            diagnostic=refused.to_json(),
        )

    pairs = designed_pairs(n, k)
    # Q_1, Q_2, ... of the search's one path
    path = itertools.islice(_products(law, replicates, stream), 1, None)
    estimates: list[tuple[int, TVEstimate]] = []
    flags: list[str] = []

    def sweep():
        for m in range(1, m_max + 1):
            try:
                if method == "exact_atomic":
                    ests = [tv_exact_atomic(law, a, b, m) for a, b in pairs]
                else:
                    q = next(path)
                    ests = [_upper_bound(q, a, b) for a, b in pairs]
            except BudgetRefusal as exc:
                flags.append(f"enumeration budget reached at m={m} ({exc.details['required']} needed)")
                return
            worst = max(ests, key=lambda est: est.value)
            estimates.append((m, worst))
            yield m, (_certified(worst),)

    (t_mix,) = _first_crossings(sweep(), [eps_grid])
    if len(estimates) == m_max:
        flags.extend(
            f"inconclusive for epsilon={eps:g}: bands too wide within m <= {m_max} "
            f"at {replicates} replicates" if method == "mc_sandwich"
            else f"no certified horizon <= {m_max} for epsilon={eps:g}"
            for eps in sorted(eps_grid, reverse=True) if t_mix[eps] is None
        )

    return MixingProfile(
        n=n,
        epsilons=eps_grid,
        estimates=tuple(estimates),
        t_mix=t_mix,
        method=method,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class CutoffReport:
    """Cutoff evidence across a size grid: mixing horizons at epsilon and
    1 - epsilon, their least-squares slopes against log n, the Lyapunov
    prediction theta_hat, and the window-to-log-n ratios (None where a
    horizon is missing or n = 1)."""

    law_config: dict
    k: int
    epsilon: float
    n_grid: tuple[int, ...]
    lambda1_hat: float
    theta_hat: float
    profiles: tuple[MixingProfile, ...]
    slope_high: float | None
    slope_low: float | None
    window_ratios: tuple[float | None, ...]
    window_nonincreasing: bool | None
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = _fields_json(self)
        out["law"] = out.pop("law_config")
        out["profiles"] = [p.to_json() for p in self.profiles]
        return out


def cutoff_experiment(
    law: PaintboxLaw,
    k: int,
    n_grid,
    epsilon: float = 0.25,
    seed=0,
    replicates: int = 2000,
    m_max: int = 4096,
    lyapunov_m: int = 2000,
    lyapunov_replicates: int = 32,
) -> CutoffReport:
    """Mixing horizons at epsilon and 1 - epsilon across n_grid, compared to
    the Lyapunov prediction theta = -1 / (2 log lambda1).

    Only laws with a smooth paintbox density qualify; finitely supported
    laws are refused because the sharp-threshold scaling has no content for
    them. So every size is searched by mc_sandwich, as exact_atomic needs a
    finitely supported law. Sizes whose certification fails are reported
    with a flag and excluded from the slope fits.
    """
    _check_search(law, k, "mc_sandwich", replicates, m_max)
    if not law.has_smooth_density:
        raise TheoryRefusal(
            "cutoff experiments need a paintbox law with a smooth density",
            law=law.config(),
        )
    if not 0.0 < epsilon < 0.5:
        raise ValidationError("epsilon must lie in (0, 0.5)", field="epsilon")
    _epsilon_grid(epsilon)
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2 or n_grid[0] < 1 or sorted(set(n_grid)) != list(n_grid):
        raise ValidationError(
            "n_grid must be at least two strictly increasing sizes >= 1", field="n_grid"
        )

    stream = as_stream(seed)
    with _renamed({"m": "lyapunov_m", "replicates": "lyapunov_replicates"}):
        lyap = estimate_lyapunov(law, lyapunov_m, lyapunov_replicates, stream.derive("lyapunov"))
    if not 0.0 < lyap.lambda1 < 1.0:
        raise TheoryRefusal(
            "cutoff prediction needs a top growth rate strictly inside (0, 1)",
            lyapunov=lyap.to_json(),
        )
    theta = -1.0 / (2.0 * math.log(lyap.lambda1))

    flags: list[str] = []
    profiles: list[MixingProfile] = []
    for n in n_grid:
        prof = mixing_time(
            law,
            n,
            k,
            (epsilon, 1.0 - epsilon),
            "mc_sandwich",
            stream.derive("mixing-profile", n),
            replicates=replicates,
            m_max=m_max,
        )
        if prof.flags:
            flags.extend(f"n={n}: {f}" for f in prof.flags)
        profiles.append(prof)

    logs = np.log(np.array(n_grid, dtype=float))

    def fit(eps: float) -> float | None:
        xs = [math.log(p.n) for p in profiles if p.t_mix[eps] is not None]
        ys = [p.t_mix[eps] for p in profiles if p.t_mix[eps] is not None]
        if len(xs) < 2:
            return None
        return float(np.polyfit(xs, ys, 1)[0])

    ratios: list[float | None] = []
    for p, ln in zip(profiles, logs):
        hi, lo = p.t_mix[epsilon], p.t_mix[1.0 - epsilon]
        # no ratio at n = 1, where log n is 0
        ratios.append((hi - lo) / ln if hi is not None and lo is not None and ln > 0 else None)
    seen = [r for r in ratios if r is not None]
    noninc = all(b <= a + 1e-9 for a, b in zip(seen, seen[1:])) if len(seen) >= 2 else None

    return CutoffReport(
        law_config=law.config(),
        k=k,
        epsilon=epsilon,
        n_grid=n_grid,
        lambda1_hat=lyap.lambda1,
        theta_hat=theta,
        profiles=tuple(profiles),
        slope_high=fit(epsilon),
        slope_low=fit(1.0 - epsilon),
        window_ratios=tuple(ratios),
        window_nonincreasing=noninc,
        flags=tuple(flags),
    )
