"""Per-layer timings of the k = 3 paths of the benchmark's `atomic_k3` workload.

Times, on one thread, at the sizes of the `atomic_k3` queries
(perfbench/workloads.py):

- `collapse_scan`: `products._collapse_scan` as the `collapse` query runs it
  (the two-atom law, 16 steps of 100 replicates) and as the mixing search's
  gate runs it on the uniform `permutation_mix` law of `mixing_refused` (32
  steps of 200 replicates, none a witness, so the gate reads them all);
- `conditional_tvs`: the multi-cell `tvlab.exact._conditional_tvs` of the
  block pair at n = 12 (six mixed cells, S = 729) on the 300 composed
  paintboxes of `tv_block_upper` at m = 1 and 2, and at n = 48 (S = 15^6)
  on two of them, where the joint statistic no longer fits the cache;
- `run_efcp`: `chains._run_efcp` through `run_efcp_matrix` and
  `run_efcp_coordinate` at n = 4096 and 300 steps, as the `simulate`
  queries run it.

Each case is called once to warm up, then REPS times, the cases taking
turns, and the record keeps the median and interquartile range of the
single-call times.

    python bench/atomic_layer.py [--src DIR]

`--src`, the tree digest and the record file work as in
`ehrenfest_layer.py`; the record goes into `BENCH_atomic.json`.
"""

from __future__ import annotations

# first, so that BLAS and OpenMP are held to one thread before numpy loads
from ehrenfest_layer import ROOT, _environment, _src, _write_record

import sys
import time

REPS = 60  # timed calls per case
RECORD = ROOT / "BENCH_atomic.json"


def _cases():
    """[(stage, case, zero-argument call)] at the query sizes."""
    from workloads import WORKLOADS

    from cutpaste import chains, products
    from cutpaste.paintbox import law_from_config
    from cutpaste.partitions import Coloring
    from cutpaste.tvlab import exact
    from cutpaste.tvlab.mc import batched_products, make_test_pair

    workload = WORKLOADS["atomic_k3"](0)
    collapse = workload.query("collapse").config
    law = law_from_config(collapse["law"])
    permutations = law_from_config(workload.query("mixing_refused").config["law"])
    upper = workload.query("tv_block_upper").config
    simulate = workload.query("simulate_matrix").config
    n, steps = simulate["n"], simulate["steps"]
    x0 = Coloring.constant(n, law.k, 1)

    def conditional(pair_n, m, replicates):
        x, y = make_test_pair(pair_n, law.k)
        qs = batched_products(law, m, replicates, 5)
        return lambda: exact._conditional_tvs(qs, x, y)

    cases = [
        ("collapse_scan", "collapse",
         lambda: products._collapse_scan(law, collapse["m_max"], collapse["replicates"], 1)),
        ("collapse_scan", "gate_refused",
         lambda: products._collapse_scan(permutations, seed=1, first_witness=True)),
    ]
    for m in upper["m_grid"]:
        cases.append(("conditional_tvs", f"n{upper['n']}_m{m}",
                      conditional(upper["n"], m, upper["replicates"])))
    cases.append(("conditional_tvs", "n48_m2", conditional(48, 2, 2)))
    cases.append(("run_efcp", "matrix", lambda: chains.run_efcp_matrix(law, x0, steps, 1)))
    cases.append(("run_efcp", "coordinate", lambda: chains.run_efcp_coordinate(law, x0, steps, 1)))
    return cases


def main(argv=None) -> int:
    src = _src(__doc__, argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    cases = _cases()
    for _, _, call in cases:
        call()
    times = [[] for _ in cases]
    for _ in range(REPS):
        for got, (_, _, call) in zip(times, cases):
            start = time.perf_counter()
            call()
            got.append(time.perf_counter() - start)
    rows = []
    for got, (stage, case, _) in zip(times, cases):
        q1, median, q3 = np.percentile(got, [25, 50, 75])
        rows.append({"stage": stage, "case": case, "median_s": float(median), "iqr_s": float(q3 - q1)})
        print(f"{stage:16s} {case:12s} median {median * 1e3:9.4f} ms  iqr {(q3 - q1) * 1e3:8.4f} ms")

    _write_record(RECORD, {"layer": "atomic", **_environment(src), "reps": REPS, "results": rows})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
