"""Products of sampled stochastic matrices and their contraction behavior.

The all-ones vector is a fixed left eigenvector of every column-stochastic
matrix, so products act invariantly on the subspace V orthogonal to it.
Everything here measures that restricted action: singular values of Q_m|V,
the diameter of the image simplex, and growth-rate (Lyapunov) estimates
accumulated through per-step QR re-orthonormalization.

The restriction helpers and the QR step broadcast over leading axes, so the
estimators advance every replicate at once: each step is one stacked
matmul/QR/SVD call on an (R, k, k) array rather than R small ones. Each
replicate still draws its matrices from its own derived stream.

The collapse diagnostic and the mixing search's ergodicity gate share one
replicate scan. The diagnostic counts every replicate; the gate needs only
one witness, so it tries replicate 0 alone before the stacked rest and
stops at the first product that contracts V or is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
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
    """The (..., k-1, k-1) matrices of q (..., k, k) acting on V in the
    Helmert basis."""
    e = _entries(q)
    h = helmert_basis(e.shape[-1])
    return h.T @ e @ h


def singular_values_on_V(q) -> np.ndarray:
    """Singular values of q restricted to V, descending along the last axis."""
    return np.linalg.svd(restrict_to_V(q), compute_uv=False)


def top_singular_on_V(q):
    """Largest singular value of q|V; the Lipschitz constant of v -> qv on the
    simplex. Always within 1e-10 of [0, 1] for column-stochastic q. A float
    for one matrix, an array over the leading axes of a stack."""
    e = _entries(q)
    if e.shape[-1] == 1:
        return _scalar(np.zeros(e.shape[:-2]))
    return _scalar(singular_values_on_V(e)[..., 0])


def log_abs_det_on_V(q):
    """log |det(q|V)|; -inf where the restriction is singular. A float for one
    matrix, an array over the leading axes of a stack."""
    _, logdet = np.linalg.slogdet(restrict_to_V(q))
    return _scalar(logdet)


def simplex_diameter(q) -> float:
    """Euclidean diameter of the image of the simplex under v -> qv.

    The image is the convex hull of the columns, so the diameter is attained
    at a pair of column vectors.
    """
    e = _entries(q)
    diff = e[:, :, None] - e[:, None, :]
    return float(np.sqrt((diff**2).sum(axis=0)).max())


@dataclass
class ProductState:
    """Running product Q_m with a QR-maintained orthonormal frame in V.

    log_r_sums[..., i] accumulates the log of diagonal entry i of each step's
    triangular factor; log_r_sums / m are the per-direction growth-rate
    estimates. A state made by new_product_state takes the leading (replicate)
    axes of the first matrices stepped into it.
    """

    q: np.ndarray
    m: int
    frame: np.ndarray
    log_r_sums: np.ndarray

    @property
    def degenerate(self):
        """Whether a frame direction has numerically collapsed (its sum is
        -inf from then on); per replicate for a stacked state."""
        return np.isneginf(self.log_r_sums).any(axis=-1)


def new_product_state(k: int) -> ProductState:
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}", field="k")
    return ProductState(np.eye(k), 0, _helmert(k).copy(), np.zeros(k - 1))


_COLLAPSE_EPS = 1e-13


def step(state: ProductState, s) -> ProductState:
    """Advance the running product by one matrix (or one per replicate, for
    s of shape (R, k, k)) and refresh the frame.

    The QR happens in Helmert coordinates: simple ambient multiplication lets
    float error feed the neutral all-ones direction, which then outgrows the
    contracting frame exponentially, so every step must project back onto V.
    Triangular diagonal entries below 1e-13 count as collapsed directions
    (log increment -inf).
    """
    e = _entries(s)
    if e.shape[-1] != state.q.shape[-1]:
        raise ValidationError("dimension mismatch in product step")
    h = _helmert(e.shape[-1])
    qv, r = np.linalg.qr(h.T @ (e @ state.frame))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    qv = qv * np.where(d < 0.0, -1.0, 1.0)[..., None, :]
    absd = np.abs(d)
    logs = np.where(absd < _COLLAPSE_EPS, -np.inf, np.log(np.maximum(absd, 1e-300)))
    return ProductState(e @ state.q, state.m + 1, h @ qv, state.log_r_sums + logs)


def _replicate_batches(law: PaintboxLaw, seed, label: str, reps: range, m: int) -> np.ndarray:
    """(len(reps), m, k, k) draws; replicate rep samples its m matrices from
    the stream derived as (label, rep)."""
    base = as_stream(seed)
    return np.stack([law.sample_batch(base.derive(label, rep).generator(), m) for rep in reps])


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda1: float
    spectrum: tuple[float, ...]
    kappa_hat: float
    std_error: float
    m: int
    replicates: int
    flags: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "spectrum": list(self.spectrum),
            "kappa_hat": self.kappa_hat,
            "std_error": self.std_error,
            "m": self.m,
            "replicates": self.replicates,
            "flags": list(self.flags),
        }


def estimate_lyapunov(law: PaintboxLaw, m: int, replicates: int, seed) -> LyapunovEstimate:
    """Growth rates of Q_m|V estimated by QR accumulation.

    Per replicate, runs m steps and takes log_r_sums / m as the per-direction
    exponent vector; lambda1 is exp of the mean top exponent across replicates
    and std_error its sampling error on the lambda1 scale. kappa_hat is the
    mean per-step log |det(S|V)|, floored at -700 against underflow (flagged
    when the floor is hit). A collapsed direction yields lambda1 = 0 and the
    super_exponential_collapse flag. All replicates advance together, one
    stacked step per time t.
    """
    if law.k < 2:
        raise ValidationError("growth rates need a law with k >= 2", field="law")
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}", field="m")
    if replicates < 1:
        raise ValidationError("need at least one replicate", field="replicates")
    batches = _replicate_batches(law, seed, "lyapunov-replicate", range(replicates), m)
    state = new_product_state(law.k)
    for t in range(m):
        state = step(state, batches[:, t])
    exponents = state.log_r_sums / m
    flags: set[str] = set()
    if state.degenerate.any():
        flags.add("super_exponential_collapse")
    logdets = log_abs_det_on_V(batches)
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
    spectrum = tuple(float(v) for v in np.sort(np.exp(mean_exp))[::-1])
    return LyapunovEstimate(
        lambda1=lambda1,
        spectrum=spectrum,
        kappa_hat=float(kappa_hat),
        std_error=std_error,
        m=m,
        replicates=replicates,
        flags=tuple(sorted(flags)),
    )


def lyapunov_trace(law: PaintboxLaw, m: int, seed) -> np.ndarray:
    """Running per-direction exponent estimates along one path: row t-1 holds
    log_r_sums / t after t steps. For convergence plots."""
    if law.k < 2:
        raise ValidationError("growth rates need a law with k >= 2", field="law")
    batch = _replicate_batches(law, seed, "lyapunov-replicate", range(1), m)[0]
    state = new_product_state(law.k)
    out = np.zeros((m, law.k - 1))
    for t in range(m):
        state = step(state, batch[t])
        out[t] = state.log_r_sums / (t + 1)
    return out


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

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "first_contraction_m": self.first_contraction_m,
            "first_positivity_m": self.first_positivity_m,
            "p_contract": list(self.p_contract),
            "p_positive": list(self.p_positive),
            "delta": self.delta,
            "m_max": self.m_max,
            "replicates": self.replicates,
        }


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
    """The collapse diagnostic's counts, replicate rep drawing its m_max
    matrices from the stream derived as ("collapse-replicate", rep).

    By default every replicate advances in one stacked block. With
    first_witness, the scan is the ergodicity gate: it runs replicate 0
    alone, then the rest as one block, and returns None at the first
    product that contracts V or is positive, since one witness certifies
    collapse. Only a scan that finds none returns its report; the counts
    add across blocks, so that report is the full diagnostic's.
    """
    if m_max < 1:
        raise ValidationError(f"need m_max >= 1, got {m_max}", field="m_max")
    if replicates < 1:
        raise ValidationError(f"need replicates >= 1, got {replicates}", field="replicates")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}", field="delta")
    blocks = [range(1), range(1, replicates)] if first_witness else [range(replicates)]
    contract = np.zeros(m_max, dtype=np.int64)
    positive = np.zeros(m_max, dtype=np.int64)
    for reps in blocks:
        if not reps:
            continue
        batches = _replicate_batches(law, seed, "collapse-replicate", reps, m_max)
        q = np.eye(law.k)
        for t in range(m_max):
            q = batches[:, t] @ q
            c = np.count_nonzero(top_singular_on_V(q) < 1.0 - delta)
            p = np.count_nonzero(np.all(q > 0.0, axis=(-2, -1)))
            if first_witness and (c or p):
                return None
            contract[t] += c
            positive[t] += p
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
