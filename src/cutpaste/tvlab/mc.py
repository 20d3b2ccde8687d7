"""Monte Carlo TV estimators driven by sampled paintbox sequences.

The upper bound averages exact conditional TVs over a shared paintbox
coupling; the lower bound projects both chains onto a scalar block-count
statistic and mixes the projected laws. Both read Q_m from the seed's
paintbox path (products._products), so the first m steps of a run at
horizon m' > m are those of the run at horizon m (estimates are pathwise
consistent across horizons for a fixed seed), and the mixing search's
forward sweep, which reads the same path, draws each step once.

The lower bound never builds a per-replicate pmf. Given a paintbox, the
block statistic is a sum of k(k-1) independent Binomial(n', p) counts, so its
discrete Fourier transform on L = k(k-1)n' + 1 points, its support size, is
the product over the counts of (1 + p (w^f - 1))^n', w = exp(-2 pi i / L)
(the DFT-CF method for Poisson-binomial laws; Hong, Comput. Stat. Data Anal.
59, 2013). Nothing wraps around, so no padding is needed; the power is taken
by repeated squaring. Summing over replicates commutes with the inverse
transform, so each side's mixed law is one irfft of the summed spectra, and
each replicate's margin on the separating set is an inner product with the
set's spectrum (Parseval), one complex matvec per chunk of rows. Chunks hold
about exact._CACHE_BUDGET complex entries (about 125 rows at n = 1024,
k = 2), so they stay in cache. At k = 2 the columns sum to 1, so the
x0_tilde statistic is 2n' less a copy of the x0 statistic: its mixed law is
the x0 one reversed, each margin is an inner product with the spectrum of
1_best - reverse(1_best), and each pass computes one spectrum per
replicate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import TheoryRefusal, ValidationError
from ..lumped import _half_l1
from ..paintbox import PaintboxLaw
from ..partitions import Coloring
from ..products import _products
from .exact import TVEstimate, _conditional_tvs, _row_chunks

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
    sequences, as a (replicates, k, k) array: the m-th product of the
    stream's paintbox path (products._products)."""
    if m < 0:
        raise ValidationError("need m >= 0", field="m")
    return next(itertools.islice(_products(law, replicates, stream), m, None))


def _upper_bound(qs: np.ndarray, x0: Coloring, x0_tilde: Coloring) -> TVEstimate:
    """The mean exact conditional TV over the composed paintboxes qs, for
    distinct starts, with its standard error."""
    replicates = len(qs)
    values = _conditional_tvs(qs, x0, x0_tilde)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    return TVEstimate(min(mean, 1.0), "upper_bound", se, replicates)


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
    if m < 0:
        raise ValidationError("need m >= 0", field="m")
    if x0 == x0_tilde:
        return TVEstimate(0.0, "upper_bound", 0.0, replicates)
    return _upper_bound(batched_products(law, m, replicates, seed), x0, x0_tilde)


def _power(z: np.ndarray, e: int, out: np.ndarray) -> np.ndarray:
    """z**e entrywise for an integer e >= 1 by repeated squaring, about
    log2(e) complex multiplies; numpy's complex ** goes through log and exp
    above small exponents and is far slower. Overwrites z, and returns it
    when e is a power of two; otherwise the power is written to out, an
    array of z's shape, and returned."""
    while not e & 1:
        z *= z
        e >>= 1
    if e == 1:
        return z
    np.copyto(out, z)
    e >>= 1
    while e:
        z *= z
        if e & 1:
            out *= z
        e >>= 1
    return out


def _spectrum_buffers(rows: int, width: int) -> np.ndarray:
    """The three (rows, width) complex work arrays of _statistic_spectra."""
    return np.empty((3, rows, width), dtype=complex)


def _statistic_spectra(
    qs: np.ndarray, k: int, n_prime: int, tilde: bool, buffers: np.ndarray
) -> np.ndarray:
    """rfft, over the statistic's L = k(k-1)n' + 1 support points, of the
    summed block statistic's law given each paintbox in qs.

    The statistic adds, over every ordered pair (i, j), the number of sites
    of color j in the half-block that starts at i in x0 and at j in
    x0_tilde. Given the paintbox those counts are independent
    Binomial(n', p) with p = Q[j, i] (x0) or Q[j, j] (x0_tilde), so the
    spectrum is the n'-th power of the product of (1 + p (w^f - 1)) over
    the pairs.

    The spectra are written into buffers, from _spectrum_buffers with at
    least len(qs) rows, and the result is a view of one of them, so a call
    with the same buffers overwrites it. Reused buffers keep the page
    faults of a call to its first chunk, whatever allocator threshold an
    earlier array of another size has set.
    """
    pairs = list(itertools.permutations(range(k), 2))
    length = len(pairs) * n_prime + 1
    # w^f - 1 with w = exp(-2 pi i / L), without cancellation at small f
    shift = np.expm1(-2j * np.pi / length * np.arange(length // 2 + 1))
    spectrum, factor, out = buffers[:, : len(qs)]
    for pair, (i, j) in enumerate(pairs):
        p = qs[:, j, j] if tilde else qs[:, j, i]
        term = factor if pair else spectrum
        np.multiply(p[:, None], shift, out=term)
        term += 1.0
        if pair:
            spectrum *= factor
    return _power(spectrum, n_prime, out)


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
    chunks = list(_row_chunks(replicates, length // 2 + 1))
    # at k = 2, Q[1, 1] = 1 - Q[0, 1] and Q[0, 0] = 1 - Q[1, 0]: the x0_tilde
    # statistic is 2n' less a copy of the x0 statistic, so its law is the
    # x0 law reversed, and only the x0 spectra are computed
    mirrored = k == 2
    rows0 = chunks[0].stop
    buffers_p = _spectrum_buffers(rows0, length // 2 + 1)
    buffers_q = None if mirrored else _spectrum_buffers(rows0, length // 2 + 1)
    sum_p = np.zeros(length // 2 + 1, dtype=complex)
    sum_q = np.zeros_like(sum_p)
    for rows in chunks:
        sum_p += _statistic_spectra(qs[rows], k, n_prime, False, buffers_p).sum(axis=0)
        if not mirrored:
            sum_q += _statistic_spectra(qs[rows], k, n_prime, True, buffers_q).sum(axis=0)
    mean_p = np.clip(np.fft.irfft(sum_p / replicates, length), 0.0, None)
    if mirrored:
        mean_q = mean_p[::-1]
    else:
        mean_q = np.clip(np.fft.irfft(sum_q / replicates, length), 0.0, None)
    tv_hat = _half_l1(mean_p - mean_q)

    # Parseval: row r's margin on the set `best` is the sum over all L bins
    # of D_r(f) conj(B(f)) / L for D_r = phi_p - phi_q and B = rfft(1_best).
    # L is odd, so every rfft bin but DC stands for itself and its mirror
    # image. Mirrored, the x0_tilde law's mass on `best` is the x0 law's on
    # the reversed set, so D_r is phi_p alone and B the rfft of
    # 1_best - reverse(1_best). The DC bin adds nothing: D_r(0) is exactly 0
    # (both laws have mass 1, and w^0 - 1 = 0), or else B(0) is (the set
    # and its reverse have the same size)
    weights = (mean_p > mean_q).astype(float)
    if mirrored:
        weights -= weights[::-1]
    dual = np.conj(np.fft.rfft(weights)) * (2.0 / length)
    dual[0] = 0.0
    margins = np.empty(replicates)
    for rows in chunks:
        phi = _statistic_spectra(qs[rows], k, n_prime, False, buffers_p)
        if not mirrored:
            phi -= _statistic_spectra(qs[rows], k, n_prime, True, buffers_q)
        # einsum, not BLAS: a one-row matvec takes another kernel, and a
        # margin must not depend on the chunk its row falls in
        margins[rows] = np.einsum("rf,f->r", phi, dual).real
    # spread about the first margin: the same value, and exactly 0 when every
    # replicate has the same paintbox (m = 0)
    margins -= margins[0]
    se = float(margins.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    return TVEstimate(max(0.0, tv_hat - 3.0 * se), "lower_bound", se, replicates)
