"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every workload's queries once at REFERENCE_SEED, plus the coverage
queries that record Monte Carlo estimates at every horizon a search may
probe, and stores each query's digest. Record it from a commit whose
answers are trusted; run.py compares later answers against it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, HERE, REFERENCE, SRC, THREAD_VARS, git_commit, run_query

import checks
from workloads import WORKLOADS

REFERENCE_SEED = 1


def reference_for(workload, config_dir: Path) -> dict:
    out = {}
    for q in workload.queries:
        digest = {}
        for c in (q, *q.coverage):
            rc, stdout, stderr = run_query(c.argv(config_dir))
            if rc != c.expect_exit:
                raise SystemExit(f"{workload.name}/{c.name}: exit {rc}, expected {c.expect_exit}\n{stderr}")
            for key, value in checks.DIGESTS[c.digest](stdout, stderr).items():
                digest.setdefault(key, value)
        out[q.name] = digest
    return out


def main() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    doc = {
        "meta": {
            "commit": git_commit(),
            "seed": REFERENCE_SEED,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "exact_tol": checks.EXACT_TOL,
            "z_mc": checks.Z_MC,
        },
        "workloads": {},
    }
    for name, make in WORKLOADS.items():
        workload = make(REFERENCE_SEED)
        with tempfile.TemporaryDirectory() as tmp:
            workload.write_configs(Path(tmp))
            doc["workloads"][name] = reference_for(workload, Path(tmp))
        print(f"{name}: {len(doc['workloads'][name])} queries recorded")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
