"""Independent brute-force oracles used by the test suite.

Everything here is deliberately self-contained (numpy, math, fractions and
scipy.stats only; the package imports are the Coloring, PartitionMatrix and
StochasticMatrix containers, the PaintboxLaw base that ScriptedLaw fakes and
the seed-to-generator coercion) so the tests compare two genuinely separate
routes to the same numbers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.stats import binom

from cutpaste.paintbox import PaintboxLaw, StochasticMatrix, _as_generator
from cutpaste.partitions import PartitionMatrix


def words_array(n: int, k: int) -> np.ndarray:
    """All k^n words over {0..k-1}, lexicographic, site 0 most significant."""
    idx = np.arange(k**n)
    out = np.empty((k**n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % k
        idx //= k
    return out


def enumerate_colorings(n: int, k: int) -> list:
    """Every coloring of n sites with k colors, in the words_array order."""
    from cutpaste.partitions import Coloring

    return [Coloring(n, k, tuple(int(v) + 1 for v in row)) for row in words_array(n, k)]


def state_index(x) -> int:
    """Position of a coloring in the words_array(x.n, x.k) order."""
    i = 0
    for v in x.word:
        i = i * x.k + (v - 1)
    return i


def matrix_enumeration_kernel(s: np.ndarray, n: int) -> np.ndarray:
    """One-step kernel of the matrix construction by literal enumeration.

    A partition matrix is a k-tuple of column assignments (one row choice per
    site per column); its weight is the product of s[row, column] over all
    sites and columns, and its action reads site i's row from the column of
    the site's current color. This sums over every matrix explicitly instead
    of factorizing, so it cross-checks the product-form kernel.
    """
    s = np.asarray(s, dtype=float)
    k = s.shape[0]
    assigns = words_array(n, k)          # one column's row assignment per row
    a_total = assigns.shape[0]
    col_weight = np.empty((k, a_total))
    for j in range(k):
        col_weight[j] = np.prod(s[assigns, j], axis=1)

    grids = np.meshgrid(*[np.arange(a_total)] * k, indexing="ij")
    tuple_idx = [g.reshape(-1) for g in grids]   # a_total**k matrices
    weight = np.ones(a_total**k)
    for j in range(k):
        weight *= col_weight[j][tuple_idx[j]]

    states = words_array(n, k)
    total = states.shape[0]
    kernel = np.zeros((total, total))
    place = k ** np.arange(n - 1, -1, -1)
    for x in range(total):
        xw = states[x]
        y_idx = np.zeros(a_total**k, dtype=np.int64)
        for i in range(n):
            y_idx += assigns[tuple_idx[xw[i]], i] * place[i]
        np.add.at(kernel[x], y_idx, weight)
    return kernel


def product_step_kernel(s: np.ndarray, n: int) -> np.ndarray:
    """K[x, y] = prod_i s[y_i, x_i], assembled site by site."""
    s = np.asarray(s, dtype=float)
    k = s.shape[0]
    w = words_array(n, k)
    kernel = np.ones((w.shape[0], w.shape[0]))
    for i in range(n):
        kernel *= s[w[None, :, i], w[:, None, i]]
    return kernel


def kron_product_kernel(s: np.ndarray, n: int) -> np.ndarray:
    """K = s^T (x) ... (x) s^T by repeated np.kron, site 1 first."""
    site = np.asarray(s, dtype=float).T
    kernel = np.ones((1, 1))
    for _ in range(n):
        kernel = np.kron(kernel, site)
    return kernel


def mixture_step_kernel(atomic, n: int) -> np.ndarray:
    """sum_a w_a K_a over the atoms and weights of an Atomic law, each K_a
    from product_step_kernel."""
    return sum(w * product_step_kernel(s.entries, n) for s, w in zip(atomic.atoms, atomic.weights))


def kernel_power(kernel: np.ndarray, m: int) -> np.ndarray:
    """K^m by repeated squaring."""
    out = np.eye(kernel.shape[0])
    base = kernel.copy()
    e = m
    while e > 0:
        if e & 1:
            out = out @ base
        base = base @ base
        e >>= 1
    return out


def eig_stationary(kernel: np.ndarray) -> np.ndarray:
    """Stationary law from a general eigensolve of K^T: the eigenvector of
    the only eigenvalue within 1e-8 of 1, normalized to sum 1."""
    vals, vecs = np.linalg.eig(np.asarray(kernel, dtype=float).T)
    close = np.where(np.abs(vals - 1.0) < 1e-8)[0]
    if len(close) != 1:
        raise ValueError(f"kernel has {len(close)} unit eigenvalues")
    pi = np.real(vecs[:, close[0]])
    pi = np.clip(pi / pi.sum(), 0.0, None)
    return pi / pi.sum()


def reachability(kernel: np.ndarray) -> np.ndarray:
    """reach[x, y]: whether y can be reached from x in zero or more steps,
    from the transitive closure of the support graph K > 0 by squaring."""
    size = kernel.shape[0]
    reach = (np.asarray(kernel) > 0) | np.eye(size, dtype=bool)
    for _ in range(max(1, size).bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    return reach


def closed_states(kernel: np.ndarray) -> np.ndarray:
    """Whether each state lies in a closed class: every state it reaches
    reaches it back."""
    reach = reachability(kernel)
    return (reach <= reach.T).all(axis=1)


def closed_classes(kernel: np.ndarray) -> int:
    """Number of closed communicating classes."""
    reach = reachability(kernel)
    return len({tuple(row) for row in reach[closed_states(kernel)]})


def canonical_relabel(word: tuple[int, ...]) -> tuple[int, ...]:
    """First-occurrence relabeling: color names are replaced by the order in
    which they first appear, which indexes the orbit under color
    permutations (the unlabeled partition)."""
    seen: dict[int, int] = {}
    out = []
    for v in word:
        if v not in seen:
            seen[v] = len(seen) + 1
        out.append(seen[v])
    return tuple(out)


def orbit_classes(n: int, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Orbit index of every state and the canonical word of every orbit, in
    order of first appearance, one word at a time."""
    reps: list[tuple[int, ...]] = []
    where: dict[tuple[int, ...], int] = {}
    labels = np.empty(k**n, dtype=np.int64)
    for i, row in enumerate(words_array(n, k)):
        rep = canonical_relabel(tuple(int(v) + 1 for v in row))
        if rep not in where:
            where[rep] = len(reps)
            reps.append(rep)
        labels[i] = where[rep]
    return labels, reps


def lumped_kernel_by_class(kernel: np.ndarray, labels: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Kernel lumped onto orbit classes one class at a time: each column
    block summed with a boolean mask, each class's rows compared with its
    first row. Raises ValueError naming the first class whose rows differ."""
    classes = int(labels.max()) + 1
    mass = np.zeros((kernel.shape[0], classes))
    for c in range(classes):
        mass[:, c] = kernel[:, labels == c].sum(axis=1)
    lumped = np.empty((classes, classes))
    for c in range(classes):
        rows = mass[labels == c]
        if np.max(np.abs(rows - rows[0])) > atol:
            raise ValueError(f"class {c}")
        lumped[c] = rows[0]
    return lumped


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def ehrenfest_exhaustive_kernel(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step kernel and stationary law of the batch-refresh chain by brute
    force over all states and all (subset, coin) moves. Only sensible for
    tiny n."""
    from itertools import combinations

    states = words_array(n, 2)
    total = states.shape[0]
    moves = []
    for subset in combinations(range(n), a):
        for coin in (0, 1):
            moves.append((subset, coin))
    kernel = np.zeros((total, total))
    place = 2 ** np.arange(n - 1, -1, -1)
    for x in range(total):
        for subset, coin in moves:
            yw = states[x].copy()
            yw[list(subset)] = coin
            kernel[x, int((yw * place).sum())] += 1.0 / len(moves)
    vals, vecs = np.linalg.eig(kernel.T)
    j = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, j])
    pi = np.clip(pi / pi.sum(), 0.0, None)
    pi /= pi.sum()
    return kernel, pi


def ehrenfest_exhaustive_tv(n: int, a: int, t: int) -> float:
    """Exact TV at time t from the all-ones start to the stationary law."""
    kernel, pi = ehrenfest_exhaustive_kernel(n, a)
    dist = np.zeros(kernel.shape[0])
    # index 0 is the all-zeros word; the coin-flip symmetry makes its TV
    # curve identical to the all-ones start the package computes from
    dist[0] = 1.0
    for _ in range(t):
        dist = dist @ kernel
    return tv_distance(dist, pi)


def _covering_weights(n: int, a: int) -> np.ndarray:
    """W[c, h] = P(a uniform batch hits h of the n - c uncovered sites), from
    this module's own lgamma table."""
    lf = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    c = np.arange(n + 1)[:, None]
    h = np.arange(a + 1)[None, :]
    fresh, old = n - c, a - h
    ok = (h <= fresh) & (old <= c)
    logw = (
        (lf[fresh] - lf[h] - lf[np.where(ok, fresh - h, 0)])
        + (lf[c] - lf[old] - lf[np.where(ok, c - old, 0)])
        - (lf[n] - lf[a] - lf[n - a])
    )
    return np.exp(np.where(ok, logw, -np.inf))


def _covering_step(p: np.ndarray, w: np.ndarray, a: int) -> np.ndarray:
    """One covering move on the (covered, ones-among-covered) law: h fresh
    sites join, and one fair coin either adds all h to the ones or none."""
    n1 = p.shape[0]
    new = p * w[:, :1]
    for h in range(1, a + 1):
        half = 0.5 * (p[: n1 - h] * w[: n1 - h, h, None])
        new[h:, :] += half
        new[h:, h:] += half[:, : n1 - h]
    return new


def _covering_counts(p: np.ndarray) -> np.ndarray:
    """Push (c, s) mass onto the one-count N1 = s + (n - c), for the
    all-ones start (uncovered sites still show color 1)."""
    n = p.shape[0] - 1
    counts = np.zeros(n + 1)
    for c in range(n + 1):
        counts[n - c :] += p[c, : c + 1]
    return counts


def _covering_stationary(n: int, a: int, w: np.ndarray) -> np.ndarray:
    """One-count law at full coverage, by the jump chain conditioned on
    covering at least one fresh site per move."""
    if a == 1:
        return np.array([float(Fraction(math.comb(n, j), 2**n)) for j in range(n + 1)])
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = 1.0
    pi = np.zeros(n + 1)
    stay = 1.0 - w[:, :1]
    jump = np.divide(w, stay, out=np.zeros_like(w), where=stay > 0)
    jump[:, 0] = 0.0
    for _ in range(n):
        p = _covering_step(p, jump, a)
        pi += p[n, :]
        p[n, :] = 0.0
        if p.sum() < 1e-16:
            break
    return pi


def ehrenfest_covering_tvs(n: int, a: int, t_grid) -> list[float]:
    """TV to stationarity from the all-ones start at each horizon, by the
    covering process: reading the moves most-recent-first, each site keeps
    the coin of the first batch that contains it, so (covered sites, ones
    among covered) is a Markov chain on a quadratic state space, and the
    stationary law is the same process run to full coverage."""
    w = _covering_weights(n, a)
    pi = _covering_stationary(n, a, w)
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = 1.0
    out, t = [], 0
    for horizon in sorted(t_grid):
        for _ in range(t, horizon):
            p = _covering_step(p, w, a)
        t = horizon
        out.append(tv_distance(_covering_counts(p), pi))
    return out


def ehrenfest_dense_kernel(n: int, a: int) -> np.ndarray:
    """The one-count chain's kernel as a dense (n+1) x (n+1) matrix: from j
    ones the batch holds h of them with weight C(j, h) C(n - j, a - h) /
    C(n, a), from this module's own lgamma table and normalised over h, and
    one fair coin sends the count to j - h or to j - h + a."""
    lf = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
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
    ones, hits = np.nonzero(w)
    k = np.zeros((n + 1, n + 1))
    k[ones, ones - hits] = w[ones, hits]
    k[ones, ones - hits + a] += w[ones, hits]
    return k


def one_step_sweep(moves: np.ndarray, row: np.ndarray):
    """The laws one, two, ... steps on from the law row of the chain held as
    the band moves, moves[j, d] = P(j -> j + d - a), one step at a time at
    O(size a) a step: new[i] is the dot of the window row[i - a .. i + a]
    with the incoming band kin[i, e] = P(i - a + e -> i). The laws alternate
    between two zero-padded buffers, so each one yielded is overwritten two
    steps on."""
    size, width = moves.shape
    a = width // 2
    padded = np.zeros((size + 2 * a, width))
    padded[a : a + size] = moves
    step = padded.itemsize
    # kin[i, e] = padded[i + e, 2a - e], one anti-diagonal of padded per row
    strides = (width * step, (width - 1) * step)
    kin = as_strided(padded.reshape(-1)[2 * a :], (size, width), strides).copy()
    del padded
    laws = np.zeros((2, size + 2 * a))
    laws[0, a : a + size] = row
    windows = sliding_window_view(laws, width, axis=1)
    now = 0
    while True:
        np.einsum("ij,ij->i", windows[now], kin, out=laws[1 - now, a : a + size])
        now = 1 - now
        yield laws[now, a : a + size]


def dense_gth_stationary(k: np.ndarray) -> np.ndarray:
    """Stationary law by Grassmann-Taksar-Heyman elimination over the whole
    matrix, with no use of its band: censor the states from the top down,
    dividing by the escape mass below each pivot. The back-substituted
    prefix is scaled by 2^-900 whenever an entry passes 2^900, which is
    exact, so laws past the double range stay finite. The loop is
    right-looking: each pivot updates every entry above and left of it.
    ValueError names the first state, from the top, whose escape mass is
    not positive."""
    g = np.array(k, dtype=float)
    for m in range(g.shape[0] - 1, 0, -1):
        escape = g[m, :m].sum()
        if not escape > 0:
            raise ValueError(f"state {m} does not reach state 0")
        g[:m, m] /= escape
        g[:m, :m] += np.outer(g[:m, m], g[m, :m])
    pi = np.zeros(g.shape[0])
    pi[0] = 1.0
    for m in range(1, g.shape[0]):
        pi[m] = pi[:m] @ g[:m, m]
        if pi[m] > 2.0**900:
            pi[: m + 1] = np.ldexp(pi[: m + 1], -900)
    return pi / pi.sum()


def _fraction_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """x with a x = b, by Gauss-Jordan elimination in exact arithmetic."""
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    size = len(m)
    for col in range(size):
        piv = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [v / lead for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * u for v, u in zip(m[r], m[col])]
    return [row[-1] for row in m]


def ehrenfest_fraction_tvs(n: int, a: int, t_grid) -> list[float]:
    """TV to stationarity of the one-count chain from the all-ones start, in
    exact rational arithmetic: hypergeometric weights from integer binomials,
    the stationary law from the linear system pi (K - I) = 0, sum(pi) = 1.
    Only the final TV values are rounded to floats."""
    total = 2 * math.comb(n, a)
    kernel = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        for h in range(max(0, a - (n - j)), min(a, j) + 1):
            w = Fraction(math.comb(j, h) * math.comb(n - j, a - h), total)
            kernel[j][j - h] += w
            kernel[j][j - h + a] += w
    system = [[kernel[j][i] - (i == j) for j in range(n + 1)] for i in range(n)]
    system.append([Fraction(1)] * (n + 1))
    pi = _fraction_solve(system, [Fraction(0)] * n + [Fraction(1)])
    row = [Fraction(0)] * n + [Fraction(1)]
    out, t = [], 0
    for horizon in sorted(t_grid):
        for _ in range(t, horizon):
            row = [sum(row[j] * kernel[j][i] for j in range(n + 1)) for i in range(n + 1)]
        t = horizon
        out.append(float(sum(abs(r - p) for r, p in zip(row, pi)) / 2))
    return out


def helmert_columns(k: int) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace: column j-1 is
    (1, ..., 1, -j, 0, ..., 0) with j leading ones, normalized."""
    basis = np.zeros((k, k - 1))
    for j in range(1, k):
        col = np.zeros(k)
        col[:j] = 1.0
        col[j] = -float(j)
        basis[:, j - 1] = col / np.linalg.norm(col)
    return basis


def singular_values_on_mean_zero(q: np.ndarray) -> np.ndarray:
    """Singular values of q restricted to the mean-zero subspace, descending,
    as square roots of the eigenvalues of B^T B."""
    h = helmert_columns(q.shape[0])
    b = h.T @ np.asarray(q, dtype=float) @ h
    eigs = np.linalg.eigvalsh(b.T @ b)[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


def simplex_diameter(q) -> float:
    """Euclidean diameter of the image of the simplex under v -> qv.

    The image is the convex hull of the columns, so the diameter is attained
    at a pair of column vectors.
    """
    e = np.asarray(getattr(q, "entries", q), dtype=float)
    diff = e[:, :, None] - e[:, None, :]
    return float(np.sqrt((diff**2).sum(axis=0)).max())


@dataclass
class ProductState:
    """Running product Q_m with a QR-maintained orthonormal frame in the
    mean-zero subspace; log_r_sums[..., i] accumulates the log of diagonal
    entry i of each step's triangular factor. The leading (replicate) axes
    come from the first matrices stepped into it."""

    q: np.ndarray
    m: int
    frame: np.ndarray
    log_r_sums: np.ndarray

    @property
    def degenerate(self):
        """Whether a frame direction has collapsed (its sum is -inf)."""
        return np.isneginf(self.log_r_sums).any(axis=-1)


def new_product_state(k: int) -> ProductState:
    return ProductState(np.eye(k), 0, helmert_columns(k), np.zeros(k - 1))


def step(state: ProductState, s) -> ProductState:
    """Step-by-step QR accumulation: advance the ambient product by one
    matrix (or one per replicate, for s of shape (R, k, k)) and refresh the
    frame by a QR in Helmert coordinates with sign-fixed triangular
    diagonals; entries below 1e-13 count as collapsed (log -inf)."""
    e = np.asarray(getattr(s, "entries", s), dtype=float)
    h = helmert_columns(e.shape[-1])
    qv, r = np.linalg.qr(h.T @ (e @ state.frame))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    qv = qv * np.where(d < 0.0, -1.0, 1.0)[..., None, :]
    absd = np.abs(d)
    logs = np.where(absd < 1e-13, -np.inf, np.log(np.maximum(absd, 1e-300)))
    return ProductState(e @ state.q, state.m + 1, h @ qv, state.log_r_sums + logs)


def fraction_det(a) -> Fraction:
    """det a of a float matrix in exact arithmetic on its float entries, by
    Gaussian elimination."""
    m = [[Fraction(float(v)) for v in row] for row in np.asarray(a, dtype=float)]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [v - f * u for v, u in zip(m[r], m[col])]
    return det


def lyapunov_per_replicate(samples: np.ndarray, logdet_floor: float = -700.0) -> dict:
    """QR growth-rate estimate from pre-drawn samples (R, m, k, k), one
    replicate and one step at a time: per replicate a Helmert-coordinate QR
    frame with sign-fixed triangular diagonals (entries below 1e-13 count as
    collapsed, log -inf), and the per-step log |det| on the mean-zero subspace
    floored at logdet_floor, summed replicate by replicate. Since 1^T s = 1^T,
    that log |det| is log |det s| of the k x k sample, taken exactly by
    fraction_det. The spectrum lists the rates up to the first
    frame direction that collapses in any replicate, and None after it.
    Returns the fields of a Lyapunov estimate."""
    reps, m, k, _ = samples.shape
    h = helmert_columns(k)
    exponents = np.zeros((reps, k - 1))
    collapsed = np.zeros(k - 1, dtype=bool)
    kappa_sum = 0.0
    flags = set()
    for rep in range(reps):
        frame = h.copy()
        sums = np.zeros(k - 1)
        for t in range(m):
            s = samples[rep, t]
            qv, r = np.linalg.qr(h.T @ (s @ frame))
            d = np.diag(r)
            frame = h @ (qv * np.where(d < 0.0, -1.0, 1.0))
            for i, v in enumerate(np.abs(d)):
                sums[i] += -np.inf if v < 1e-13 else np.log(v)
            det = abs(fraction_det(s))
            logdet = math.log(det.numerator) - math.log(det.denominator) if det else -math.inf
            if logdet < logdet_floor:
                logdet = logdet_floor
                flags.add("logdet_floored")
            kappa_sum += logdet
        collapsed |= np.isneginf(sums)
        exponents[rep] = sums / m
    if collapsed.any():
        flags.add("super_exponential_collapse")
    mean_exp = exponents.mean(axis=0)
    if "super_exponential_collapse" in flags:
        lambda1, std_error = 0.0, 0.0
    else:
        lambda1 = float(np.exp(mean_exp.max()))
        per_rep = np.exp(exponents.max(axis=1))
        std_error = float(per_rep.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    kept = next((i + 1 for i in range(k - 1) if collapsed[i]), k - 1)
    spectrum = sorted(np.exp(mean_exp[:kept]).tolist(), reverse=True)
    return {
        "lambda1": lambda1,
        "spectrum": spectrum + [None] * (k - 1 - kept),
        "kappa_hat": kappa_sum / (reps * m),
        "std_error": std_error,
        "flags": sorted(flags),
    }


def collapse_counts(samples: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per horizon m = 1..M, the number of replicates whose running product
    Q_m (from pre-drawn samples (R, M, k, k)) contracts the mean-zero subspace
    (top singular value below 1 - delta) and the number with all entries
    positive."""
    reps, horizon, k, _ = samples.shape
    contract = np.zeros(horizon, dtype=np.int64)
    positive = np.zeros(horizon, dtype=np.int64)
    for rep in range(reps):
        q = np.eye(k)
        for t in range(horizon):
            q = samples[rep, t] @ q
            top = singular_values_on_mean_zero(q)[0] if k > 1 else 0.0
            contract[t] += top < 1.0 - delta
            positive[t] += bool(np.all(q > 0.0))
    return contract, positive


def multinomial_pmf(size: int, s) -> np.ndarray:
    """Multinomial(size, s) pmf over every count vector summing to size,
    term by term from exact integer coefficients and plain powers (0**0 is
    1, so a zero entry rules out exactly the positive counts)."""
    out = []
    for counts in itertools.product(range(size + 1), repeat=len(s)):
        if sum(counts) != size:
            continue
        coef = math.factorial(size)
        for c in counts:
            coef //= math.factorial(c)
        out.append(float(coef) * math.prod(float(p) ** c for p, c in zip(s, counts)))
    return np.array(out)


def _cell_laws(q: np.ndarray, x0_word, x1_word) -> tuple[np.ndarray, np.ndarray]:
    """Joint count laws of the two starts over all refinement cells (cells
    where the starts agree included) given one composed paintbox q."""
    vec_p = np.ones(1)
    vec_q = np.ones(1)
    for (a, b), cnt in Counter(zip(x0_word, x1_word)).items():
        vec_p = np.outer(vec_p, multinomial_pmf(cnt, q[:, a - 1])).ravel()
        vec_q = np.outer(vec_q, multinomial_pmf(cnt, q[:, b - 1])).ravel()
    return vec_p, vec_q


def conditional_tvs(qs: np.ndarray, x0_word, x1_word) -> np.ndarray:
    """Exact conditional TV of the two starts, one composed paintbox
    (row of qs, shape (R, k, k)) at a time."""
    return np.array([tv_distance(*_cell_laws(q, x0_word, x1_word)) for q in qs])


def binomial_tvs(p, q, n: int) -> np.ndarray:
    """TV(Bin(n, p[r]), Bin(n, q[r])) per row, from the dense pmfs of
    scipy.stats (computed in log space, so safe at any n)."""
    i = np.arange(n + 1)
    pmf_p = binom.pmf(i, n, np.asarray(p, dtype=float)[:, None])
    pmf_q = binom.pmf(i, n, np.asarray(q, dtype=float)[:, None])
    return np.array([tv_distance(a, b) for a, b in zip(pmf_p, pmf_q)])


def binomial_tv_fraction(p: float, q: float, n: int) -> float:
    """TV(Bin(n, p), Bin(n, q)) in exact rational arithmetic: a double is
    an exact rational, so the only rounding is the final conversion."""
    p, q = Fraction(p), Fraction(q)
    total = sum(
        abs(math.comb(n, j) * (p**j * (1 - p) ** (n - j) - q**j * (1 - q) ** (n - j)))
        for j in range(n + 1)
    )
    return float(total / 2)


def _block_pairs(k: int) -> list[tuple[int, int]]:
    return list(itertools.permutations(range(k), 2))


def block_statistic_pmfs(qs: np.ndarray, k: int, n_prime: int, tilde: bool) -> np.ndarray:
    """Law of the paired block design's summed count statistic given each
    composed paintbox q in qs (R, k, k), one row per paintbox: the
    convolution over ordered color pairs (i, j) of Binomial(n', p) pmfs with
    p = q[j, i] for x0 and q[j, j] for x0_tilde, as the product of their
    FFTs on a zero-padded power-of-two grid."""
    pairs = _block_pairs(k)
    length = len(pairs) * n_prime + 1
    padded = 1 << (length - 1).bit_length()
    spectrum = np.ones((len(qs), padded // 2 + 1), dtype=complex)
    counts = np.arange(n_prime + 1)
    for i, j in pairs:
        p = qs[:, j, j] if tilde else qs[:, j, i]
        spectrum *= np.fft.rfft(binom.pmf(counts, n_prime, p[:, None]), padded, axis=1)
    out = np.fft.irfft(spectrum, padded, axis=1)[:, :length]
    return np.clip(out, 0.0, None)


def block_statistic_pmf_fraction(q: np.ndarray, k: int, n_prime: int, tilde: bool) -> np.ndarray:
    """One row of block_statistic_pmfs in exact rational arithmetic: the
    binomial pmfs of the exact rationals q holds, convolved term by term."""
    pmf = [Fraction(1)]
    for i, j in _block_pairs(k):
        p = Fraction(float(q[j, j] if tilde else q[j, i]))
        term = [math.comb(n_prime, x) * p**x * (1 - p) ** (n_prime - x) for x in range(n_prime + 1)]
        conv = [Fraction(0)] * (len(pmf) + n_prime)
        for a, u in enumerate(pmf):
            for b, v in enumerate(term):
                conv[a + b] += u * v
        pmf = conv
    return np.array([float(v) for v in pmf])


def tv_lower_reference(qs: np.ndarray, k: int, n_prime: int) -> tuple[float, float]:
    """(value, standard error) of the block-statistic lower bound from
    per-row pmfs: the half-L1 distance of the replicate-mean laws less three
    standard errors (floored at 0), the error taken from each replicate's
    mass difference on the set where the mean law of x0 is larger."""
    pmf_p = block_statistic_pmfs(qs, k, n_prime, False)
    pmf_q = block_statistic_pmfs(qs, k, n_prime, True)
    mean_p = pmf_p.mean(axis=0)
    mean_q = pmf_q.mean(axis=0)
    best = mean_p > mean_q
    margins = pmf_p[:, best].sum(axis=1) - pmf_q[:, best].sum(axis=1)
    se = float(margins.std(ddof=1) / math.sqrt(len(qs))) if len(qs) > 1 else 0.0
    return max(0.0, tv_distance(mean_p, mean_q) - 3.0 * se), se


def refinement_cells(x0_word, x1_word) -> list[tuple[int, int, int]]:
    """(color in x0, color in x1, number of sites) per refinement cell, in
    order of first site occurrence, one site at a time."""
    return [(a, b, cnt) for (a, b), cnt in Counter(zip(x0_word, x1_word)).items()]


def atomic_tv(atoms, weights, x0_word, x1_word, m: int) -> float:
    """Exact TV at step m under a finitely supported paintbox law: one atom
    sequence at a time, each sequence's conditional count laws mixed with
    its weight."""
    k = len(atoms[0])
    mix_p = mix_q = 0.0
    for seq in itertools.product(range(len(atoms)), repeat=m):
        q = np.eye(k)
        w = 1.0
        for t in seq:
            q = np.asarray(atoms[t], dtype=float) @ q
            w *= weights[t]
        vec_p, vec_q = _cell_laws(q, x0_word, x1_word)
        mix_p = mix_p + w * vec_p
        mix_q = mix_q + w * vec_q
    return tv_distance(mix_p, mix_q)


def uniform_matrix(k: int) -> StochasticMatrix:
    return StochasticMatrix(np.full((k, k), 1.0 / k))


def sample_S(law: PaintboxLaw, rng) -> StochasticMatrix:
    """One draw from the law. rng may be an RngStream, a seed, or a Generator."""
    return StochasticMatrix(law.sample_batch(_as_generator(rng), 1)[0])


def sites_to_mask(sites) -> int:
    """The bitmask of a set of sites 1..n: bit i-1 represents site i."""
    mask = 0
    for s in sites:
        mask |= 1 << (s - 1)
    return mask


def _bits_to_mask(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sample_M_given_S(s: StochasticMatrix, n: int, rng) -> PartitionMatrix:
    """Random partition matrix given s: in column j, each site lands in row r
    with probability s[r, j], independently over sites and columns. The
    reference for the matrix construction's draw: one uniform per site and
    column, placed by a searchsorted into the cumulative column."""
    gen = _as_generator(rng)
    k = s.k
    cum = np.cumsum(s.entries, axis=0)
    cum[-1, :] = 1.0
    u = gen.random((n, k))
    cells = []
    for r in range(k):
        cells.append([0] * k)
    for j in range(k):
        rows = np.searchsorted(cum[:, j], u[:, j], side="right")
        for r in range(k):
            cells[r][j] = _bits_to_mask(rows == r)
    return PartitionMatrix(n, k, tuple(tuple(row) for row in cells))


class ScriptedLaw(PaintboxLaw):
    """A fake paintbox law that drives a chain runner with fixed paintboxes:
    sample_batch returns the next `size` matrices of a fixed list, raw as
    given, whatever generator it is handed."""

    def __init__(self, matrices):
        self.matrices = np.array([getattr(m, "entries", m) for m in matrices], dtype=float)
        self.used = 0

    @property
    def k(self) -> int:
        return self.matrices.shape[1]

    def sample_batch(self, rng, size):
        out = self.matrices[self.used:self.used + size]
        assert len(out) == size, "the script has run out of paintboxes"
        self.used += size
        return out


def efcp_by_column(boxes, x0_word, k: int, m_steps: int, gen_u, thin: int, per_column: bool):
    """The paintbox chain one step and one color at a time.

    boxes[t] is the raw draw that drives step t + 1: its negatives are
    clipped and each column divided by its sum. Per step one draw of
    uniforms from gen_u ((n, k) when per_column, site i reading its color's
    column; else (n,)) and a searchsorted of each color's sites into the
    cumulative column of S. Returns the kept words, x0 first."""
    n = len(x0_word)
    word = np.array(x0_word, dtype=np.int64) - 1
    traj = [tuple(x0_word)]
    for t in range(1, m_steps + 1):
        s = np.clip(np.array(boxes[t - 1], dtype=float), 0.0, None)
        s /= s.sum(axis=0)
        cum = np.cumsum(s, axis=0)
        cum[-1, :] = 1.0
        u = gen_u.random((n, k))[np.arange(n), word] if per_column else gen_u.random(n)
        new = np.empty_like(word)
        for c in range(k):
            mask = word == c
            if mask.any():
                new[mask] = np.searchsorted(cum[:, c], u[mask], side="right")
        word = new
        if t == m_steps or (thin > 0 and t % thin == 0):
            traj.append(tuple(int(v) + 1 for v in word))
    return traj


def worst_tv_profile_dense(kernel: np.ndarray, pi: np.ndarray, m_max: int) -> list[float]:
    """max_x TV(K^m(x, .), pi) for m = 1..m_max, from the full matrix power
    K^m = K^(m-1) K over every start."""
    out = []
    power = kernel
    for _ in range(m_max):
        out.append(float(0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()))
        power = power @ kernel
    return out


def _uniform_subset(gen, n: int, a: int) -> list[int]:
    swaps: dict[int, int] = {}
    picked = []
    for t in range(a):
        j = int(gen.integers(t, n))
        vt, vj = swaps.get(t, t), swaps.get(j, j)
        swaps[t], swaps[j] = vj, vt
        picked.append(vj)
    return picked


def ehrenfest_by_site(n: int, a: int, x0_word, m_steps: int, gen):
    """The batch-refresh chain with Python-int site masks: per step a
    uniform a-subset by partial Fisher-Yates and a coin in {1, 2} from gen.
    Returns (every word from x0 on, the (mask, color) of every step)."""
    word = list(x0_word)
    traj, trace = [tuple(word)], []
    for _ in range(m_steps):
        sites = _uniform_subset(gen, n, a)
        color = int(gen.integers(1, 3))
        mask = 0
        for i in sites:
            mask |= 1 << i
        for i in sites:
            word[i] = color
        traj.append(tuple(word))
        trace.append((mask, color))
    return traj, trace


def mixing_search_redraw(pair_estimates, epsilons, m_max: int, mc: bool, replicates: int):
    """The mixing-time search with every probe estimated afresh, as a plain
    forward loop: m = 1, 2, ... until the worst pair is certified below
    every epsilon, or m_max, or the budget.

    pair_estimates(m) gives every designed pair's estimate at horizon m,
    each redrawing its paintboxes from step 1 for MC; an estimate has
    .value, .kind and .mc_std_error. An exception with details["required"]
    stands for the enumeration budget. Returns the probed (m, estimate)
    pairs in order of m, the smallest certified horizon per epsilon, and
    the flags.
    """
    def certified(est, eps):
        if est.kind == "exact":
            return est.value < eps
        return est.value + 3.0 * est.mc_std_error < eps

    probed = []
    t_mix = {eps: None for eps in epsilons}
    flags = []
    for m in range(1, m_max + 1):
        try:
            worst = None
            for est in pair_estimates(m):
                if worst is None or est.value > worst.value:
                    worst = est
        except Exception as exc:
            if "required" not in getattr(exc, "details", {}):
                raise
            flags.append(f"enumeration budget reached at m={m} ({exc.details['required']} needed)")
            break
        probed.append((m, worst))
        for eps in epsilons:
            if t_mix[eps] is None and certified(worst, eps):
                t_mix[eps] = m
        if None not in t_mix.values():
            break
    else:
        for eps in sorted(epsilons, reverse=True):
            if t_mix[eps] is not None:
                continue
            if mc:
                flags.append(
                    f"inconclusive for epsilon={eps:g}: bands too wide within m <= {m_max} "
                    f"at {replicates} replicates"
                )
            else:
                flags.append(f"no certified horizon <= {m_max} for epsilon={eps:g}")
    return probed, t_mix, flags


def listed_permutation_draws(perms, weights, k: int, gen, size: int) -> np.ndarray:
    """Draws of a mixture of listed permutations (0-based image tuples) as
    (size, k, k) permutation matrices: one weighted choice of a list index
    per draw, then the chosen image vectors scattered as ones. The weights
    are used as given."""
    idx = gen.choice(len(perms), size=size, p=np.asarray(weights, dtype=float))
    order = np.array(perms)[idx]
    out = np.zeros((size, k, k))
    out[np.arange(size)[:, None], order, np.arange(k)[None, :]] = 1.0
    return out


def permutation_set_rce(perms, weights, k: int, tol: float = 1e-9) -> bool:
    """Whether a weighted list of permutations (0-based image tuples) is
    fixed by every adjacent row swap (relabel the images) and every
    adjacent column swap (reorder the sites), with duplicates merged by
    adding their weights."""
    merged: dict[tuple, float] = {}
    for p, w in zip(perms, weights):
        merged[tuple(p)] = merged.get(tuple(p), 0.0) + float(w)

    def invariant(transform) -> bool:
        image: dict[tuple, float] = {}
        for p, w in merged.items():
            q = transform(p)
            image[q] = image.get(q, 0.0) + w
        return set(image) == set(merged) and all(abs(image[p] - merged[p]) <= tol for p in merged)

    for t in range(k - 1):
        swap = list(range(k))
        swap[t], swap[t + 1] = swap[t + 1], swap[t]
        if not invariant(lambda p: tuple(swap[c] for c in p)):
            return False
        if not invariant(lambda p: tuple(p[swap[j]] for j in range(k))):
            return False
    return True


def atomic_rce_loop(mats, weights, k: int, atom_tol: float = 1e-12, weight_tol: float = 1e-9):
    """(verdict, failing swap or None, merged weights) of the atom-set
    closure test, one pair of atoms at a time: each atom merges into the
    first earlier representative within atom_tol in every entry, and under
    each adjacent row, then column, swap each moved representative takes the
    first unused one within atom_tol whose weight is within weight_tol."""
    reps: list[np.ndarray] = []
    wts: list[float] = []
    for a, w in zip(mats, weights):
        for i, r in enumerate(reps):
            if np.max(np.abs(a - r)) <= atom_tol:
                wts[i] += w
                break
        else:
            reps.append(a)
            wts.append(w)

    def matched(moved) -> bool:
        used = [False] * len(reps)
        for a, w in zip(moved, wts):
            for i, (r, wr) in enumerate(zip(reps, wts)):
                if not used[i] and np.max(np.abs(a - r)) <= atom_tol and abs(w - wr) <= weight_tol:
                    used[i] = True
                    break
            else:
                return False
        return all(used)

    for t in range(k - 1):
        swap = list(range(k))
        swap[t], swap[t + 1] = swap[t + 1], swap[t]
        if not matched([r[swap, :] for r in reps]):
            return False, ("rows", t), wts
        if not matched([r[:, swap] for r in reps]):
            return False, ("columns", t), wts
    return True, None, wts
