"""Per-layer timings of the exact batch-refresh (Ehrenfest) pass.

Times the kernels an exact Ehrenfest profile is built from, and the exact
call of a benchmark query, at the sizes of the benchmark's Ehrenfest
queries (perfbench/workloads.py):

- `count_moves`: the one-count chain's band, `tvlab.ehrenfest._count_moves`;
- `stationary`: its stationary law from that band, the GTH elimination;
- `advance`: one application of the band the sweep steps by, the band of
  K^b for the chain's block length b (`lumped._advance`);
- `cold_chain`: one `tvlab.ehrenfest._one_count_chain` call with no
  stationary law kept for its (n, a), as in a one-shot process;
- `warm`: the query's `ehrenfest_tv_profile` or `ehrenfest_mixing_time`
  call after its first call in this process, as in every benchmark pass
  after the first (a tree that keeps no stationary law eliminates in each).

The first three stages and `cold_chain` time what a one-shot process pays;
`warm` times what a process pays once it has seen the query.

BLAS and OpenMP are fixed to one thread before numpy is imported. Each stage
is called REPS times after a warm-up, the stages taking turns, and the
record keeps the median and interquartile range of the single-call times.

    python bench/ehrenfest_layer.py [--src DIR]

`--src` times another checkout's `src` directory (default: this one's), so
two trees can be run in turn and compared; the record names the commit of
the tree it timed and a digest of the sources it timed. The record goes
into `BENCH_ehrenfest.json` at the root of this checkout, which keeps one
record per digest of timed sources, so two trees timed in turn stand side
by side. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# (workload, query) of the benchmark's exact Ehrenfest queries: (n, a) of
# (320, 80), (256, 16), (256, 64) and the single-site (320, 1)
QUERIES = [("ehrenfest_batch", "exact_n320"), ("ehrenfest_batch", "exact_n256_fib"),
           ("ehrenfest_batch", "mixing_n256"), ("threshold_k2", "ehrenfest_standard")]
REPS = 200  # timed calls per stage and size
RECORD = ROOT / "BENCH_ehrenfest.json"


def _tree(src: Path) -> dict:
    """The commit of the checkout holding src, whether its src differs from
    that commit, and a digest of the timed sources, which names them either
    way."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no", "--", ".")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": git("rev-parse", "HEAD"), "src_modified": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def _blas(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy has no dict mode
        return {"name": None, "version": None}


def _src(doc: str, argv=None) -> Path:
    """The src directory named by --src on a layer script's command line
    (default: this checkout's), put first on sys.path."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src directory to time")
    src = parser.parse_args(argv).src.resolve()
    sys.path.insert(0, str(src))
    return src


def _environment(src: Path) -> dict:
    """What a layer record was timed on: the tree, Python, numpy and its
    BLAS, the thread settings and the machine."""
    import numpy as np

    return {
        **_tree(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine()},
    }


def _write_record(path: Path, record: dict) -> None:
    """Put record into the layer file at path, in place of any record of the
    same sources."""
    records = json.loads(path.read_text()).get("records", []) if path.exists() else []
    records = [r for r in records if r["src_sha256"] != record["src_sha256"]] + [record]
    path.write_text(json.dumps({"layer": record["layer"], "records": records}, indent=2) + "\n")


def _exact_call(workload: str, query: str):
    """The chain's parameters and the exact call a benchmark query makes,
    as the CLI makes it."""
    from workloads import WORKLOADS

    from cutpaste.chains import EhrenfestParams, standard_ehrenfest
    from cutpaste.cli import _default_ehrenfest_grid
    from cutpaste.tvlab.ehrenfest import ehrenfest_mixing_time, ehrenfest_tv_profile

    config = WORKLOADS[workload](0).query(query).config
    n = config["n"]
    params = standard_ehrenfest(n) if config.get("standard") else EhrenfestParams(n, config["alpha"])
    if "mixing_eps" in config:
        return params, lambda: ehrenfest_mixing_time(params, config["mixing_eps"])
    grid = config.get("t_grid") or _default_ehrenfest_grid(params)
    return params, lambda: ehrenfest_tv_profile(params, grid)


def _stages(workload: str, query: str):
    """(n, a), {stage: zero-argument call}, the block length b and the name
    of the elimination timed."""
    import numpy as np

    from cutpaste import lumped
    from cutpaste.tvlab import ehrenfest

    params, warm = _exact_call(workload, query)
    n, a = params.n, params.batch_size
    moves = ehrenfest._count_moves(n, a)
    # trees before the color-swap fold eliminate the whole band
    stationary = getattr(ehrenfest, "_folded_stationary", lumped._stationary)
    # trees that keep no stationary law have none to forget
    kept = getattr(ehrenfest, "_stationary_laws", {})
    b = ehrenfest._block_length(n, a)
    row = np.zeros(n + 1)
    row[n] = 1.0
    # the band the sweep applies once per block of b steps: its first call
    seen = []
    advance = lumped._advance
    lumped._advance = lambda band, law: seen.append(band) or advance(band, law)
    try:
        next(lumped._sweep(moves, row, [b], b))
    finally:
        lumped._advance = advance
    block = seen[0]

    def cold_chain():
        kept.clear()
        ehrenfest._one_count_chain(params)

    # cold_chain leaves the law kept, so warm, which runs after it, finds it
    return (n, a), {
        "count_moves": lambda: ehrenfest._count_moves(n, a),
        "stationary": lambda: stationary(moves),
        "advance": lambda: advance(block, row),
        "cold_chain": cold_chain,
        "warm": warm,
    }, b, stationary.__name__


def main(argv=None) -> int:
    src = _src(__doc__, argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    rows = []
    for workload, query in QUERIES:
        (n, a), stages, b, solver = _stages(workload, query)
        for call in stages.values():
            for _ in range(5):
                call()
        times = {name: [] for name in stages}
        for _ in range(REPS):
            for name, call in stages.items():
                start = time.perf_counter()
                call()
                times[name].append(time.perf_counter() - start)
        for name, got in times.items():
            q1, median, q3 = np.percentile(got, [25, 50, 75])
            rows.append({"query": query, "n": n, "a": a, "b": b, "stage": name, "median_s": float(median),
                         "iqr_s": float(q3 - q1)})
            print(f"n={n:4d} a={a:3d} b={b:2d} {name:12s} median {median * 1e3:8.4f} ms"
                  f"  iqr {(q3 - q1) * 1e3:7.4f} ms")

    _write_record(RECORD, {"layer": "ehrenfest", **_environment(src), "stationary": solver, "reps": REPS,
                           "results": rows})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
