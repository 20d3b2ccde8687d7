"""Products of sampled stochastic matrices and their contraction behavior.

The all-ones vector is a fixed left eigenvector of every column-stochastic
matrix, so products act invariantly on the subspace V orthogonal to it.
Everything here measures that restricted action: singular values of Q_m|V,
the collapse of the image simplex, and growth-rate (Lyapunov) estimates
accumulated through QR re-orthonormalization.

Every sampled paintbox sequence of a seed is one path: one generator,
derived as "paintbox-path" and read in step order, each step drawing every
replicate's matrix at once, so a replicate's draws depend on the replicate
count. _products is the one loop that composes it.

The restriction helpers broadcast over leading axes, so the estimators treat
every replicate at once. Every step is restricted once, B_t = H^T (S_t H), and
its determinant needs no restriction: 1^T S = 1^T makes S block triangular
in the basis [H, 1/sqrt(k)], so det B_t = det S_t. The growth rates
re-orthonormalize once per block of L steps rather than once per step
(Benettin et al., Meccanica 15, 1980): triangular factors multiply, so the
QR of a block's product carries the block's diagonals, and the block
products come from log2(L) stacked matmuls. The rounding of one block is
about eps * prod cond(B_t), and cond(B_t) <= ||B_t||_F^(k-1) / |det S_t|: L
is the largest power of two, up to the first at or past m, whose aligned
blocks keep that product within 2^10, and L is 1 as soon as a step's bound
on sigma_min(B_t), |det S_t| / ||B_t||_F^(k-2), falls below twice the
collapse threshold 1e-13. Each B_t is divided by ||B_t||_F, whose log is
added back, so no block underflows. A fixed L = 16 fails: on
SelfSimilar([0.7, 1, 1.3, 1, 0.5]) (k = 5, m = 30, 5 replicates) its
smallest exponent is 4e-4 off the step-by-step value (the test oracle), and
on a two-atom k = 3 law (m = 400, 16 replicates) 2e-6 off, and its block
diagonals fall below 1e-13, flagging a collapse that never happened.

The collapse diagnostic and the mixing search's ergodicity gate share one
scan of the path. The diagnostic counts every replicate at every step; the
gate needs only one witness, so it stops at the first step where some
replicate's product contracts V or is positive.

Whether Q_m contracts V, sigma_max(B) < 1 - delta for B = Q_m|V, is decided
from the Frobenius norm: ||B||_F / sqrt(d) <= sigma_max(B) <= ||B||_F for d
= k - 1. Only where these bounds straddle the threshold, within a relative
guard band of 1e-12 that covers the rounding of the norm and of the SVD,
does a stacked SVD decide, so every decision is the SVD's. Permutation
products (sigma_max = 1, ||B||_F = sqrt(d)) and products with equal columns
(B = 0) never need it. The scan is bounded by the collapse_scan budget on its sampled
entries, m_max * replicates * k^2, before it draws or allocates anything. A step
counts as at least _STEP_ENTRIES entries, since its cost has a floor however few
its replicates, so the budget bounds the scan's time as well as its memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, _fields_json, check_budget
from .paintbox import PaintboxLaw, StochasticMatrix
from .rng import as_stream

_LOGDET_FLOOR = -700.0


@lru_cache(maxsize=None)
def _helmert(k: int) -> np.ndarray:
    h = np.zeros((k, k - 1))
    for j in range(1, k):
        scale = 1.0 / math.sqrt(j * (j + 1))
        h[:j, j - 1] = scale
        h[j, j - 1] = -j * scale
    h.setflags(write=False)
    return h


def helmert_basis(k: int) -> np.ndarray:
    """Orthonormal basis of V (the subspace orthogonal to the all-ones vector),
    as the columns of a k x (k-1) array. Read-only and cached."""
    if k < 1:
        raise ValidationError(f"k={k} must be positive", field="k")
    return _helmert(k)


def _entries(q) -> np.ndarray:
    if isinstance(q, StochasticMatrix):
        return q.entries
    return np.asarray(q, dtype=float)


def _scalar(x):
    """A 0-d result as a Python float; stacked results stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


def restrict_to_V(q) -> np.ndarray:
    """The (..., k-1, k-1) matrices H^T (q H) of q (..., k, k) acting on V in
    the Helmert basis H."""
    e = _entries(q)
    h = helmert_basis(e.shape[-1])
    return h.T @ (e @ h)


def singular_values_on_V(q) -> np.ndarray:
    """Singular values of q restricted to V, descending along the last axis."""
    return np.linalg.svd(restrict_to_V(q), compute_uv=False)


def top_singular_on_V(q):
    """Largest singular value of q|V; the Lipschitz constant of v -> qv on the
    simplex. For column-stochastic q it lies between ||q|V||_F / sqrt(k - 1)
    and ||q|V||_F, and it can pass 1: the columns (e1, e1, e2) give
    2 / sqrt(3). A float for one matrix, an array over the leading axes of a
    stack."""
    e = _entries(q)
    if e.shape[-1] == 1:
        return _scalar(np.zeros(e.shape[:-2]))
    return _scalar(singular_values_on_V(e)[..., 0])


def log_abs_det_on_V(q):
    """log |det(q|V)| of column-stochastic q, which is log |det q| (see the
    module docstring); -inf where q is singular. A float for one matrix, an
    array over the leading axes of a stack."""
    _, logdet = np.linalg.slogdet(_entries(q))
    return _scalar(logdet)


_COLLAPSE_EPS = 1e-13
# relative half-width of the band around 1 - delta in which the norm bounds
# on sigma_max leave the contraction test to the SVD: far above the few ulps
# by which either the norm or the SVD's sigma_max can be off
_CONTRACT_GUARD = 1e-12
# the fewest entries a collapse scan step counts as: a step of one replicate
# costs 20-38 us at every k from 2 to 16, and an entry 24-50 ns at 5000
# replicates (k = 2, 3), so a step of fewer entries costs as much as about 1000
_STEP_ENTRIES = 1024
# The rounding of one block's product and QR is about eps * prod cond(B_t)
# relative to its smallest direction, so a product of condition bounds within
# 2^10 keeps every exponent within about 1e-13 of step-by-step QR.
_LOG_BLOCK_COND = 10 * math.log(2.0)


def _block_length(b: np.ndarray, logdets: np.ndarray) -> int:
    """Steps per QR, by the rule in the module docstring, for the restricted
    path b (R, m, d, d) whose draws S_t have log |det S_t| logdets (R, m).
    The sigma_min bound is held to twice the collapse threshold, for the
    rounding between det S_t, which logdets come from, and b: every |r_ii|
    of a product is at least its sigma_min, so only single steps collapse.
    """
    d = b.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lognorms = np.log(np.linalg.norm(b, axis=(-2, -1)))
        sigma_low = logdets - (d - 1) * lognorms
        sums = d * lognorms - logdets
    # written so that a NaN (a zero B_t) also gives single steps
    if not np.all(sigma_low >= math.log(2 * _COLLAPSE_EPS)):
        return 1
    block = 1
    while block < b.shape[-3]:
        if sums.shape[-1] % 2:
            sums = np.concatenate([sums, np.zeros(sums.shape[:-1] + (1,))], axis=-1)
        sums = sums[..., ::2] + sums[..., 1::2]
        if sums.max() > _LOG_BLOCK_COND:
            break
        block *= 2
    return block


def _qr_sweep(p: np.ndarray) -> np.ndarray:
    """log |r_ii| of the QR accumulation of the factors p (R, n, d, d),
    applied in order to the identity frame: (R, n, d). Each step is one
    stacked QR, sign-fixed so that the frame is the QR factor with a
    nonnegative diagonal. Diagonal entries below 1e-13 count as collapsed
    directions (log -inf)."""
    reps, n, d, _ = p.shape
    frame = np.eye(d)
    absd = np.empty((reps, n, d))
    for j in range(n):
        frame, r = np.linalg.qr(p[:, j] @ frame)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        frame = frame * np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
        absd[:, j] = np.abs(diag)
    with np.errstate(divide="ignore"):
        return np.where(absd < _COLLAPSE_EPS, -np.inf, np.log(absd))


def _block_log_r(b: np.ndarray, block: int) -> np.ndarray:
    """Per-direction log growth of the restricted path b (R, m, d, d) over
    each aligned block of `block` steps (a power of two; the last block may
    be shorter): (R, ceil(m / block), d), whose sum over blocks is the
    step-by-step QR accumulation's.

    Longer blocks first divide every B_t by its Frobenius norm and add the
    norms' logs back; their products come from log2(block) stacked matmuls.
    """
    if block == 1:
        return _qr_sweep(b)
    norms = np.linalg.norm(b, axis=(-2, -1))
    p = b / norms[..., None, None]
    for _ in range(block.bit_length() - 1):
        paired = p.shape[-3] - p.shape[-3] % 2
        p = np.concatenate([p[:, 1:paired:2] @ p[:, 0:paired:2], p[:, paired:]], axis=-3)
    starts = np.arange(0, b.shape[-3], block)
    return _qr_sweep(p) + np.add.reduceat(np.log(norms), starts, axis=-1)[..., None]


def _products(law: PaintboxLaw, replicates: int, stream):
    """Composed paintboxes Q_0 = I, Q_1, ... of `replicates` sequences on
    the path of stream (a seed or an RngStream), Q_m = S_m ... S_1 as a
    fresh (replicates, k, k) array: step t is one draw of `replicates`
    matrices, so Q_m has the same bits however far the path is read. One
    draw of several steps reads the generator in the same order, unless
    DirichletColumns redraws underflowed columns after the whole batch."""
    gen = as_stream(stream).derive("paintbox-path").generator()
    k = law.k
    q = np.broadcast_to(np.eye(k), (replicates, k, k)).copy()
    while True:
        yield q
        q = law.sample_batch(gen, replicates) @ q


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda1: float
    spectrum: tuple[float | None, ...]
    kappa_hat: float
    std_error: float
    m: int
    replicates: int
    flags: tuple[str, ...]

    to_json = _fields_json


def estimate_lyapunov(law: PaintboxLaw, m: int, replicates: int, seed) -> LyapunovEstimate:
    """Growth rates of Q_m|V estimated by QR accumulation.

    Per replicate, runs m steps and takes log_r_sums / m as the per-direction
    exponent vector; lambda1 is exp of the mean top exponent across replicates
    and std_error its sampling error on the lambda1 scale. kappa_hat is the
    mean per-step log |det(S|V)|, floored at -700 against underflow (flagged
    when the floor is hit). A collapsed direction yields lambda1 = 0 and the
    super_exponential_collapse flag; the spectrum gives the first frame
    direction that collapses rate 0.0 and every later one None. All
    replicates advance together, one stacked QR per block of steps. The
    steps are those of the seed's path (_products), drawn in one call.
    """
    if law.k < 2:
        raise ValidationError("growth rates need a law with k >= 2", field="law")
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}", field="m")
    if replicates < 1:
        raise ValidationError("need at least one replicate", field="replicates")
    # step t of replicate r is draw t * replicates + r of the path
    draws = law.sample_batch(as_stream(seed).derive("paintbox-path").generator(), m * replicates)
    batches = draws.reshape(m, replicates, law.k, law.k).swapaxes(0, 1)
    logdets = log_abs_det_on_V(batches)
    b = restrict_to_V(batches)
    log_r_sums = _block_log_r(b, _block_length(b, logdets)).sum(axis=-2)
    exponents = log_r_sums / m
    flags: set[str] = set()
    collapsed = np.isneginf(log_r_sums).any(axis=0)
    if collapsed.any():
        flags.add("super_exponential_collapse")
    floored = logdets < _LOGDET_FLOOR
    if floored.any():
        flags.add("logdet_floored")
    # a sequential running sum in replicate-major order gives the same bits as
    # a per-replicate loop would; np.sum sums pairwise and would not
    kappa_sum = np.cumsum(np.where(floored, _LOGDET_FLOOR, logdets), axis=None)[-1]
    kappa_hat = kappa_sum / (replicates * m)
    mean_exp = exponents.mean(axis=0)
    if "super_exponential_collapse" in flags:
        lambda1 = 0.0
        std_error = 0.0
    else:
        lambda1 = float(np.exp(mean_exp.max()))
        per_rep_lambda1 = np.exp(exponents.max(axis=1))
        if replicates > 1:
            std_error = float(per_rep_lambda1.std(ddof=1) / math.sqrt(replicates))
        else:
            std_error = 0.0
    # rates up to the first direction that collapses in any replicate
    kept = int(np.argmax(collapsed)) + 1 if collapsed.any() else law.k - 1
    rates = sorted(np.exp(mean_exp[:kept]).tolist(), reverse=True)
    spectrum = (*rates, *(None,) * (law.k - 1 - kept))
    return LyapunovEstimate(
        lambda1=lambda1,
        spectrum=spectrum,
        kappa_hat=float(kappa_hat),
        std_error=std_error,
        m=m,
        replicates=replicates,
        flags=tuple(sorted(flags)),
    )


@dataclass(frozen=True)
class CollapseReport:
    """Sampling evidence for eventual collapse of the image simplex.

    verdict is "yes" when some sampled product either contracted V (top
    singular value below 1 - delta) or had all entries positive; sampling
    cannot prove the negative, so the alternative verdict is "undetermined".
    """

    verdict: str
    first_contraction_m: int | None
    first_positivity_m: int | None
    p_contract: tuple[float, ...]
    p_positive: tuple[float, ...]
    delta: float
    m_max: int
    replicates: int

    to_json = _fields_json


def _contracts_V(q: np.ndarray, delta: float) -> np.ndarray:
    """top_singular_on_V(q) < 1 - delta for a (R, k, k) stack q, by the norm
    bounds of the module docstring; the SVD runs only on the matrices whose
    bounds straddle the threshold."""
    limit = 1.0 - delta
    b = restrict_to_V(q)
    fro = np.sqrt(np.einsum("...ij,...ij->...", b, b))
    out = fro < limit * (1.0 - _CONTRACT_GUARD)
    unsure = ~out & (fro < limit * (1.0 + _CONTRACT_GUARD) * math.sqrt(b.shape[-1]))
    if unsure.any():
        out[unsure] = np.linalg.svd(b[unsure], compute_uv=False)[:, 0] < limit
    return out


def collapse_diagnostic(
    law: PaintboxLaw,
    m_max: int = 32,
    replicates: int = 200,
    seed=0,
    delta: float = 1e-6,
) -> CollapseReport:
    """Estimate P(top singular value of Q_m|V < 1 - delta) and P(all entries of
    Q_m positive) for m = 1..m_max; either event occurring certifies collapse.
    All replicates' products advance together, one stacked step per m."""
    return _collapse_scan(law, m_max, replicates, seed, delta)


def _collapse_scan(
    law: PaintboxLaw,
    m_max: int = 32,
    replicates: int = 200,
    seed=0,
    delta: float = 1e-6,
    first_witness: bool = False,
) -> CollapseReport | None:
    """The collapse diagnostic's counts over the products Q_1 .. Q_m_max of
    the seed's path (_products).

    With first_witness, the scan is the ergodicity gate: it returns None at
    the first step where some replicate's product contracts V or is
    positive, since one witness certifies collapse. Only a scan that finds
    none returns its report, which is then the full diagnostic's.
    """
    if m_max < 1:
        raise ValidationError(f"need m_max >= 1, got {m_max}", field="m_max")
    if replicates < 1:
        raise ValidationError(f"need replicates >= 1, got {replicates}", field="replicates")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}", field="delta")
    check_budget("collapse_scan", m_max * max(replicates * law.k**2, _STEP_ENTRIES),
                 "collapse scan samples too many matrix entries")
    contract = np.zeros(m_max, dtype=np.int64)
    positive = np.zeros(m_max, dtype=np.int64)
    path = itertools.islice(_products(law, replicates, seed), 1, m_max + 1)
    for t, q in enumerate(path):
        contract[t] = np.count_nonzero(_contracts_V(q, delta))
        positive[t] = np.count_nonzero(np.all(q > 0.0, axis=(-2, -1)))
        if first_witness and (contract[t] or positive[t]):
            return None
    first_c = int(np.argmax(contract > 0)) + 1 if np.any(contract > 0) else None
    first_p = int(np.argmax(positive > 0)) + 1 if np.any(positive > 0) else None
    verdict = "yes" if (first_c is not None or first_p is not None) else "undetermined"
    return CollapseReport(
        verdict=verdict,
        first_contraction_m=first_c,
        first_positivity_m=first_p,
        p_contract=tuple((contract / replicates).tolist()),
        p_positive=tuple((positive / replicates).tolist()),
        delta=delta,
        m_max=m_max,
        replicates=replicates,
    )
