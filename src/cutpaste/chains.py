"""Chain simulators on k-colorings of [n].

Two equivalent constructions of the paintbox-directed chain (whole-step
partition matrices versus independent per-coordinate jumps) and the
two-color batch-refresh (Ehrenfest) family.

Both paintbox constructions move all sites in one stacked step. The
paintboxes and the move uniforms come from two separate streams, each
drawn a chunk of steps at a time under its own budget: a chunk of
uniforms holds at most _UNIFORM_BUDGET of them (5 steps at n = 4096, k = 3
for the whole-matrix construction), and a chunk of paintboxes at most
_PAINTBOX_BUDGET entries (7281 steps at k = 3), so a run of a few hundred
steps draws its paintboxes once. Each stream is read in the same order as
one draw per step, so a seed replays the same path as a per-step,
per-color loop (kept as a test oracle), unless a DirichletColumns law
redraws underflowed columns after a chunk.

Every runner takes its draws from streams derived from the seed and never
from the state, so runs with one seed share every draw (the same
paintboxes, uniforms and refresh history) whatever their starts: a grand
coupling of the chain from all starts at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .paintbox import PaintboxLaw, _column_stochastic
from .partitions import Coloring
from .rng import as_stream


@dataclass(frozen=True)
class ChainRun:
    """A simulated trajectory. trajectory[0] is always x0; with thin = 0 only
    the endpoints are stored, with thin = d every d-th state plus the final
    one."""

    law: PaintboxLaw | None
    steps: int
    thin: int
    trajectory: tuple[Coloring, ...]

    @property
    def final(self) -> Coloring:
        return self.trajectory[-1]

    @property
    def recorded_steps(self) -> tuple[int, ...]:
        """The step index of each trajectory entry: 0 for x0, then the kept
        steps."""
        return (0,) + tuple(t for t in range(1, self.steps + 1) if _keep(t, self.thin, self.steps))


@dataclass(frozen=True)
class EhrenfestParams:
    """Two-color batch-refresh chain: each step recolors a uniform random
    subset of floor(alpha * n) sites with one shared fresh coin.

    variant "standard" is the single-site case, alpha = 1/n, through the
    same code path rather than a special one; its batch size is 1 for every
    n, where floor((1/n) * n) can round to 0 (n = 49, for one).
    """

    n: int
    alpha: float
    variant: str = "general"

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}", field="n")
        if not 0.0 < self.alpha < 1.0 + 1e-15:
            raise ValidationError(f"alpha={self.alpha} outside (0, 1]", field="alpha")
        if self.variant not in ("general", "standard"):
            raise ValidationError(f"unknown variant {self.variant!r}", field="variant")
        if self.batch_size < 1:
            raise ValidationError(
                f"floor(alpha*n) = {self.batch_size} must be >= 1", field="alpha"
            )

    @property
    def batch_size(self) -> int:
        return 1 if self.variant == "standard" else math.floor(self.alpha * self.n)


def standard_ehrenfest(n: int) -> EhrenfestParams:
    return EhrenfestParams(n, 1.0 / n, "standard")


# most uniforms one chunk of move draws holds (512 KiB)
_UNIFORM_BUDGET = 1 << 16
# most entries one chunk of paintbox draws holds (512 KiB)
_PAINTBOX_BUDGET = 1 << 16


def _keep(step: int, thin: int, total: int) -> bool:
    return step == total or (thin > 0 and step % thin == 0)


def _check_steps(m_steps: int, thin: int) -> None:
    if m_steps < 0:
        raise ValidationError(f"need m_steps >= 0, got {m_steps}", field="m_steps")
    if thin < 0:
        raise ValidationError(f"need thin >= 0, got {thin}", field="thin")


def _check_run(law: PaintboxLaw, x0: Coloring, m_steps: int, thin: int) -> None:
    if law.k != x0.k:
        raise ValidationError("law and initial state must share k")
    _check_steps(m_steps, thin)


def _paintbox_cumsums(law, gen, m_steps: int):
    """The column cumsums of the run's m_steps paintboxes, one (k, k) array
    a step, drawn _PAINTBOX_BUDGET entries at a time."""
    chunk = max(1, _PAINTBOX_BUDGET // law.k**2)
    for lo in range(0, m_steps, chunk):
        yield from np.cumsum(_column_stochastic(law.sample_batch(gen, min(chunk, m_steps - lo))), axis=1)


def _run_efcp(law, x0, m_steps, seed, thin, streams, per_column):
    """The loop of both constructions: site i moves from its color c to the
    row of column c of S in which its uniform falls. streams names the
    paintbox and the move streams; per_column draws one uniform per site and
    column, a random partition matrix given S (column c puts each site in
    row r with probability S[r, c]), and site i reads its color's column.

    Paintboxes and uniforms are drawn in chunks of steps, each under its own
    budget, which reads each stream in per-step order (see the module
    docstring). The new color of a site at color c with uniform u is the
    number of r < k - 1 with cum[r, c] <= u, cum the column cumsums of S:
    the row searchsorted would find, since a cumsum of nonnegative entries
    never decreases and u < 1. That is k - 1 gathers and compares per step
    over all sites at once."""
    _check_run(law, x0, m_steps, thin)
    stream = as_stream(seed)
    cums = _paintbox_cumsums(law, stream.derive(streams[0]).generator(), m_steps)
    gen_u = stream.derive(streams[1]).generator()
    n, k = x0.n, x0.k
    width = n * k if per_column else n
    # site i's uniform for color c sits at i * k + c of a step's draw
    offsets = np.arange(n) * k if per_column else None
    block = max(1, _UNIFORM_BUDGET // width)
    word = np.array(x0.word, dtype=np.intp) - 1
    traj = [x0]
    for lo in range(0, m_steps, block):
        b = min(block, m_steps - lo)
        uniforms = gen_u.random((b, width))
        for j in range(b):
            cum = next(cums)
            u = uniforms[j] if offsets is None else uniforms[j].take(offsets + word)
            new = np.zeros(n, dtype=np.intp)
            for r in range(k - 1):
                new += cum[r].take(word) <= u
            word = new
            t = lo + j + 1
            if _keep(t, thin, m_steps):
                traj.append(Coloring(n, k, tuple((word + 1).tolist())))
    return ChainRun(law, m_steps, thin, tuple(traj))


def run_efcp_matrix(
    law: PaintboxLaw,
    x0: Coloring,
    m_steps: int,
    seed,
    *,
    thin: int = 0,
) -> ChainRun:
    """Whole-step construction: per step draw S from the law, then a random
    partition matrix with the product law given S, and apply it to the state.
    The matrix is drawn as one uniform per site and column and applied site
    by site, without building its bitmasks.
    Runs with one seed share every paintbox and uniform."""
    return _run_efcp(
        law, x0, m_steps, seed, thin,
        ("efcp-matrix-paintbox", "efcp-matrix-moves"), per_column=True,
    )


def run_efcp_coordinate(
    law: PaintboxLaw,
    x0: Coloring,
    m_steps: int,
    seed,
    *,
    thin: int = 0,
) -> ChainRun:
    """Coordinate construction: per step draw S, then move every site
    independently from its color c to color r with probability S[r, c].
    Given the same paintbox sequence this has the same law as the
    whole-matrix construction; runs with one seed share every paintbox and
    uniform."""
    return _run_efcp(
        law, x0, m_steps, seed, thin,
        ("efcp-coordinate-paintbox", "efcp-coordinate-jumps"), per_column=False,
    )


def _uniform_subset(gen: np.random.Generator, n: int, a: int) -> np.ndarray:
    """Uniform a-subset of 0..n-1 by partial Fisher-Yates: O(a) time and
    memory over an implicit identity array."""
    swaps: dict[int, int] = {}
    picked = np.empty(a, dtype=np.int64)
    for t in range(a):
        j = int(gen.integers(t, n))
        vt = swaps.get(t, t)
        vj = swaps.get(j, j)
        swaps[t], swaps[j] = vj, vt
        picked[t] = vj
    return picked


def run_ehrenfest(
    params: EhrenfestParams,
    x0: Coloring,
    m_steps: int,
    seed,
    *,
    thin: int = 0,
) -> ChainRun:
    """Batch-refresh chain: per step pick a uniform subset A of fixed size and
    one coin I in {1, 2}, and set every site of A to color I. Runs with one
    seed share every refresh (A, I), so chains from any two starts agree on
    every site refreshed so far and meet once the refreshes cover [n]."""
    if x0.k != 2:
        raise ValidationError("batch-refresh chain is defined for k = 2", field="x0")
    if x0.n != params.n:
        raise ValidationError("params.n and x0.n differ")
    _check_steps(m_steps, thin)
    gen = as_stream(seed).derive("ehrenfest").generator()
    a = params.batch_size
    word = np.array(x0.word, dtype=np.int64)
    traj = [x0]
    for t in range(1, m_steps + 1):
        subset = _uniform_subset(gen, params.n, a)
        word[subset] = int(gen.integers(1, 3))
        if _keep(t, thin, m_steps):
            traj.append(Coloring(params.n, 2, tuple(int(v) for v in word)))
    return ChainRun(None, m_steps, thin, tuple(traj))
