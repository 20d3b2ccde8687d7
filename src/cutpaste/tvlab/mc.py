"""Monte Carlo TV estimators driven by sampled paintbox sequences.

The upper bound averages exact conditional TVs over a shared paintbox
coupling; the lower bound projects both chains onto a scalar block-count
statistic and mixes the projected laws. Replicate r's paintbox sequence is
assembled from per-step derived streams, so the first m matrices of a run at
horizon m' > m are identical to the run at horizon m (estimates are pathwise
consistent across horizons for a fixed seed).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import TheoryRefusal, ValidationError
from ..paintbox import PaintboxLaw
from ..partitions import Coloring
from ..rng import as_stream
from .exact import TVEstimate, _conditional_tvs, _count_logpmf, _row_chunks

DEFAULT_REPLICATES = 10_000


def make_constant_pair(n: int, k: int, i: int = 1, j: int = 2) -> tuple[Coloring, Coloring]:
    return Coloring.constant(n, k, i), Coloring.constant(n, k, j)


def make_test_pair(n: int, k: int) -> tuple[Coloring, Coloring]:
    """The paired block design used by the projection lower bound: one block
    of 2*n' sites per ordered color pair (i, j), colored i throughout in x0
    and i on the first half, j on the second half in x0_tilde."""
    if k < 2:
        raise ValidationError("block design needs k >= 2", field="k")
    unit = 2 * k * (k - 1)
    if n <= 0 or n % unit != 0:
        raise ValidationError(
            f"block design needs n to be a positive multiple of {unit}", field="n"
        )
    n_prime = n // unit
    x0w: list[int] = []
    xtw: list[int] = []
    for i, j in itertools.permutations(range(1, k + 1), 2):
        x0w += [i] * (2 * n_prime)
        xtw += [i] * n_prime + [j] * n_prime
    return Coloring(n, k, tuple(x0w)), Coloring(n, k, tuple(xtw))


def batched_products(law: PaintboxLaw, m: int, replicates: int, stream) -> np.ndarray:
    """Composed paintboxes Q_m = S_m ... S_1 for `replicates` independent
    sequences, as a (replicates, k, k) array. Step t draws from the stream
    derived at ("paintbox-step", t)."""
    if m < 0:
        raise ValidationError("need m >= 0", field="m")
    stream = as_stream(stream)
    k = law.k
    q = np.broadcast_to(np.eye(k), (replicates, k, k)).copy()
    for t in range(1, m + 1):
        batch = law.sample_batch(stream.derive("paintbox-step", t).generator(), replicates)
        q = batch @ q
    return q


def tv_upper_mc(
    law: PaintboxLaw,
    x0: Coloring,
    x0_tilde: Coloring,
    m: int,
    replicates: int = DEFAULT_REPLICATES,
    seed=0,
) -> TVEstimate:
    """Upper bound on TV between the two chains' laws at step m: the mean of
    the exact conditional TV under a shared paintbox coupling, with its MC
    standard error."""
    if law.k != x0.k:
        raise ValidationError("law and states must share k")
    if replicates < 1:
        raise ValidationError("need replicates >= 1", field="replicates")
    if x0 == x0_tilde:
        return TVEstimate(0.0, "upper_bound", 0.0, replicates)
    values = _conditional_tvs(batched_products(law, m, replicates, seed), x0, x0_tilde)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    return TVEstimate(min(mean, 1.0), "upper_bound", se, replicates)


def _statistic_pmfs(qs: np.ndarray, k: int, n_prime: int, tilde: bool) -> np.ndarray:
    """Law of the summed block statistic given each paintbox in qs.

    The statistic adds, over every ordered pair (i, j), the number of sites
    of color j in the half-block that starts at i in x0 and at j in
    x0_tilde. Given the paintbox those counts are independent binomials, so
    each row is a convolution of k(k-1) binomial pmfs.
    """
    pairs = list(itertools.permutations(range(k), 2))
    length = len(pairs) * n_prime + 1
    padded = 1 << (length - 1).bit_length()
    spectrum = np.ones((qs.shape[0], padded // 2 + 1), dtype=complex)
    for i, j in pairs:
        p = qs[:, j, j] if tilde else qs[:, j, i]
        pmf = np.exp(_count_logpmf(np.stack([p, 1.0 - p], axis=1), n_prime))
        spectrum *= np.fft.rfft(pmf, padded, axis=1)
    out = np.fft.irfft(spectrum, padded, axis=1)[:, :length]
    return np.clip(out, 0.0, None)


def tv_lower_mc(
    law: PaintboxLaw,
    x0: Coloring,
    x0_tilde: Coloring,
    m: int,
    replicates: int = DEFAULT_REPLICATES,
    seed=0,
) -> TVEstimate:
    """Lower bound on TV between the two chains' laws at step m, from the
    summed block-count statistic of the paired block design (a projection,
    so its TV can only undershoot), reported minus three standard errors.

    The error is estimated by projecting every replicate onto the optimal
    separating set of the mixed statistic laws.
    """
    k = law.k
    if k != x0.k:
        raise ValidationError("law and states must share k")
    if replicates < 1:
        raise ValidationError("need replicates >= 1", field="replicates")
    try:
        expected = make_test_pair(x0.n, k)
    except ValidationError as e:
        raise TheoryRefusal(
            "the projection lower bound needs the paired block design", detail=str(e)
        ) from None
    if (x0, x0_tilde) != expected:
        raise TheoryRefusal(
            "the projection lower bound needs the paired block design",
            hint="build the states with make_test_pair(n, k)",
        )
    n_prime = x0.n // (2 * k * (k - 1))
    qs = batched_products(law, m, replicates, seed)

    length = k * (k - 1) * n_prime + 1

    def chunks():
        for rows in _row_chunks(replicates, 2 * length):
            part = qs[rows]
            yield rows, _statistic_pmfs(part, k, n_prime, False), _statistic_pmfs(part, k, n_prime, True)

    mean_p = np.zeros(length)
    mean_q = np.zeros(length)
    for _, pmf_p, pmf_q in chunks():
        mean_p += pmf_p.sum(axis=0)
        mean_q += pmf_q.sum(axis=0)
    mean_p /= replicates
    mean_q /= replicates
    tv_hat = 0.5 * float(np.abs(mean_p - mean_q).sum())

    best = mean_p > mean_q
    margins = np.empty(replicates)
    for rows, pmf_p, pmf_q in chunks():
        margins[rows] = pmf_p[:, best].sum(axis=1) - pmf_q[:, best].sum(axis=1)
    se = float(margins.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    return TVEstimate(max(0.0, tv_hat - 3.0 * se), "lower_bound", se, replicates)
