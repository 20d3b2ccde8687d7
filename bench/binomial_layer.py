"""Per-layer timings of the binomial family's coefficients and two-color TV.

Times two stages on one thread:

- `table`: the padded row of log C(n, x), x = 0..n, that
  `tvlab.exact._log_binomials` builds once per n (its uncached body, with
  the half window's padding), at n = 10^3 ... 10^6;
- `binomial_tvs`: `tvlab.exact._binomial_tvs` on 400 replicates at the sizes
  of the benchmark's `cutoff` query, n = 64 ... 2048, with the table
  already cached, as at every call after a size's first.

Each (stage, n) is called once to warm up, then up to REPS times within
about STAGE_S seconds (at least MIN_REPS calls), and the record keeps the
median and interquartile range of the single-call times. A stage skips its
larger sizes once one size's warm-up call took over SLOW_S seconds: a table
of exact integers, as older trees build, costs O(n^2) and takes minutes at
n = 10^6.

    python bench/binomial_layer.py [--src DIR]

`--src`, the tree digest and the record file work as in
`ehrenfest_layer.py`; the record goes into `BENCH_binomial.json`.
"""

from __future__ import annotations

# first, so that BLAS and OpenMP are held to one thread before numpy loads
from ehrenfest_layer import ROOT, _environment, _src, _write_record

import math
import time

TABLE_SIZES = [10**3, 10**4, 10**5, 10**6]
CUTOFF_SIZES = [64, 128, 256, 512, 1024, 2048]
REPLICATES = 400
REPS, MIN_REPS, STAGE_S, SLOW_S = 200, 5, 5.0, 1.0
RECORD = ROOT / "BENCH_binomial.json"


def _stages():
    """{stage: [(n, zero-argument call)]} in increasing n."""
    import numpy as np

    from cutpaste.tvlab import exact

    def pad(n):  # the half window _binomial_tvs uses at n
        return math.ceil(math.sqrt(n * math.log(1.0 / exact._TAIL_MASS) / 2.0)) + 1

    rng = np.random.default_rng(11)
    p, q = rng.random(REPLICATES), rng.random(REPLICATES)
    return {
        "table": [(n, lambda n=n: exact._log_binomials.__wrapped__(n, pad(n))) for n in TABLE_SIZES],
        "binomial_tvs": [(n, lambda n=n: exact._binomial_tvs(p, q, n)) for n in CUTOFF_SIZES],
    }


def main(argv=None) -> int:
    src = _src(__doc__, argv)
    import numpy as np

    rows = []
    for stage, calls in _stages().items():
        slow = False
        for n, call in calls:
            if slow:
                rows.append({"stage": stage, "n": n, "skipped": True})
                print(f"{stage:12s} n={n:8d} skipped")
                continue
            start = time.perf_counter()
            call()
            first = time.perf_counter() - start
            slow = first > SLOW_S
            times = []
            while len(times) < REPS and (len(times) < MIN_REPS or sum(times) < STAGE_S):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            q1, median, q3 = np.percentile(times, [25, 50, 75])
            rows.append({"stage": stage, "n": n, "reps": len(times), "median_s": float(median),
                         "iqr_s": float(q3 - q1)})
            print(f"{stage:12s} n={n:8d} median {median * 1e3:10.4f} ms  iqr {(q3 - q1) * 1e3:8.4f} ms"
                  f"  ({len(times)} calls)")

    _write_record(RECORD, {"layer": "binomial", **_environment(src), "replicates": REPLICATES,
                           "results": rows})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
