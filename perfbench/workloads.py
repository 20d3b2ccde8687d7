"""The benchmark's three workloads, as lists of CLI queries (README.md and
BENCHMARK.json say why each was chosen).

Every query is one `cutpaste` command with one generated JSON config. The
workload seed only picks the program's RNG seeds; laws, sizes and grids are
fixed, so exact answers do not depend on the seed and every seed does the
same amount of work up to the Monte Carlo search paths.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# A strictly positive, non-symmetric two-atom law on k = 3 colors.
ATOMIC_K3 = {
    "kind": "atomic",
    "atoms": [
        [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]],
        [[0.3, 0.1, 0.25], [0.2, 0.7, 0.15], [0.5, 0.2, 0.6]],
    ],
    "weights": [0.4, 0.6],
}
SELF_SIMILAR_K2 = {"kind": "self_similar", "nu": [1.0, 1.0]}
PERMUTATION_MIX_K3 = {"kind": "permutation_mix", "k": 3}

CUTOFF_N_GRID = [64, 128, 256, 512, 1024, 2048]
CUTOFF_REPLICATES = 400
# horizons the reference records for every cutoff size; the mixing search
# probes by doubling and bisection, so it stays well inside this range
CUTOFF_REFERENCE_M = list(range(1, 13))
STANDARD_N = 320
FIBONACCI_GRID = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def permuted_identity_blend(k: int, gamma: float) -> dict:
    """Uniform mixture of (1 - gamma) P + gamma J / k over all permutation
    matrices P: row-column exchangeable by construction."""
    atoms = []
    for perm in itertools.permutations(range(k)):
        atom = [[gamma / k] * k for _ in range(k)]
        for col, row in enumerate(perm):
            atom[row][col] += 1.0 - gamma
        atoms.append(atom)
    return {"kind": "atomic", "atoms": atoms, "weights": [1.0 / len(atoms)] * len(atoms)}


@dataclass(frozen=True)
class Query:
    """One CLI call: `cutpaste <command> --config <file>`.

    digest names the function in checks.py that reduces the output to the
    values compared with the reference; expect_exit is the exit code a
    correct program gives.
    """

    name: str
    command: str
    config: dict
    digest: str
    expect_exit: int = 0
    # queries whose digests widen this query's reference (MC horizons a seed
    # may probe); run only when the reference is regenerated
    coverage: tuple["Query", ...] = field(default=(), compare=False)

    def argv(self, config_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_dir / f"{self.name}.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]

    def query(self, name: str) -> Query:
        for q in self.queries:
            if q.name == name:
                return q
        raise KeyError(name)

    def write_configs(self, config_dir: Path) -> None:
        config_dir.mkdir(parents=True, exist_ok=True)
        for q in self.queries:
            for c in (q, *q.coverage):
                (config_dir / f"{c.name}.json").write_text(json.dumps(c.config, sort_keys=True))


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def threshold_k2(seed: int) -> Workload:
    s = _seeds("threshold_k2", seed)
    law = SELF_SIMILAR_K2
    cutoff_seed = next(s)
    coverage = tuple(
        Query(f"cutoff_ref_n{n}", "tv", {
            "law": law, "method": "upper", "pair": "constant", "n": n,
            "m_grid": CUTOFF_REFERENCE_M, "replicates": CUTOFF_REPLICATES,
            "seed": cutoff_seed,
        }, "tv_csv")
        for n in CUTOFF_N_GRID
    )
    n = STANDARD_N
    horizons = [math.ceil(c * n * math.log(n)) for c in (0.25, 0.4, 0.6, 0.75)]
    return Workload(
        "threshold_k2",
        (
            Query("cutoff", "cutoff", {
                "law": law, "k": 2, "n_grid": CUTOFF_N_GRID, "epsilon": 0.25,
                "method": "mc_sandwich", "replicates": CUTOFF_REPLICATES,
                "m_max": 64, "lyapunov_m": 1000, "lyapunov_replicates": 16,
                "seed": cutoff_seed,
            }, "cutoff", coverage=coverage),
            Query("lyapunov", "lyapunov", {
                "law": law, "m": 250, "replicates": 8, "seed": next(s),
            }, "lyapunov"),
            Query("tv_lower_block", "tv", {
                "law": law, "method": "lower", "pair": "block", "n": 1024,
                "m": 1, "replicates": 2000, "seed": next(s),
            }, "tv_json"),
            Query("ehrenfest_standard", "ehrenfest", {
                "n": n, "standard": True, "exact": True, "t_grid": horizons,
                "seed": next(s),
            }, "ehrenfest_csv"),
        ),
    )


def atomic_k3(seed: int) -> Workload:
    s = _seeds("atomic_k3", seed)
    law = ATOMIC_K3
    block = {"law": law, "pair": "block", "n": 12, "m_grid": [1, 2]}
    const = {"law": law, "pair": "constant", "n": 48, "m": 8}
    return Workload(
        "atomic_k3",
        (
            Query("lyapunov", "lyapunov", {
                "law": law, "m": 400, "replicates": 16, "seed": next(s),
            }, "lyapunov"),
            Query("collapse", "collapse", {
                "law": law, "m_max": 16, "replicates": 100, "seed": next(s),
            }, "collapse"),
            Query("mixing_exact", "mixing-time", {
                "law": law, "n": 48, "method": "exact_atomic", "epsilon": [0.25],
                "seed": next(s),
            }, "mixing"),
            Query("tv_const_exact", "tv", {**const, "method": "exact", "seed": next(s)}, "tv_json"),
            Query("tv_const_upper", "tv", {
                **const, "method": "upper", "replicates": 400, "seed": next(s),
            }, "tv_json"),
            Query("tv_block_exact", "tv", {**block, "method": "exact", "seed": next(s)}, "tv_csv"),
            Query("tv_block_lower", "tv", {
                **block, "method": "lower", "replicates": 2000, "seed": next(s),
            }, "tv_csv"),
            Query("tv_block_upper", "tv", {
                **block, "method": "upper", "replicates": 300, "seed": next(s),
            }, "tv_csv"),
            Query("simulate_matrix", "simulate", {
                "law": law, "n": 4096, "steps": 300, "construction": "matrix",
                "seed": next(s),
            }, "simulate"),
            Query("simulate_coordinate", "simulate", {
                "law": law, "n": 4096, "steps": 300, "construction": "coordinate",
                "seed": next(s),
            }, "simulate"),
            Query("project", "project", {
                "law": permuted_identity_blend(3, 0.2), "n": 6, "k": 3,
                "epsilon": [0.5, 0.25], "seed": next(s),
            }, "project"),
            Query("mixing_refused", "mixing-time", {
                "law": PERMUTATION_MIX_K3, "n": 48, "epsilon": [0.25], "seed": next(s),
            }, "refusal", expect_exit=3),
        ),
    )


def ehrenfest_batch(seed: int) -> Workload:
    s = _seeds("ehrenfest_batch", seed)
    return Workload(
        "ehrenfest_batch",
        (
            Query("exact_n320", "ehrenfest", {
                "n": 320, "alpha": 0.25, "exact": True, "seed": next(s),
            }, "ehrenfest_csv"),
            Query("exact_n256_fib", "ehrenfest", {
                "n": 256, "alpha": 1 / 16, "exact": True, "t_grid": FIBONACCI_GRID,
                "seed": next(s),
            }, "ehrenfest_csv"),
            Query("mixing_n256", "ehrenfest", {
                "n": 256, "alpha": 0.25, "mixing_eps": 0.25, "seed": next(s),
            }, "ehrenfest_mixing"),
            Query("bounds_n256", "ehrenfest", {
                "n": 256, "alpha": 0.25, "beta": 2.0, "seed": next(s),
            }, "ehrenfest_bounds"),
        ),
    )


WORKLOADS = {f.__name__: f for f in (threshold_k2, atomic_k3, ehrenfest_batch)}
