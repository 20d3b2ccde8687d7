"""Per-layer timings of the exact batch-refresh (Ehrenfest) pass.

Times the three kernels an exact Ehrenfest profile is built from, at the
sizes of the benchmark's Ehrenfest queries:

- `count_moves`: the one-count chain's band, `tvlab.ehrenfest._count_moves`;
- `stationary`: its stationary law from that band, the GTH elimination;
- `advance`: one application of the band the sweep steps by, the band of
  K^b for the chain's block length b (`lumped._advance`).

BLAS and OpenMP are fixed to one thread before numpy is imported. Each stage
is called REPS times after a warm-up, the stages taking turns, and the
record keeps the median and interquartile range of the single-call times.

    python bench/ehrenfest_layer.py [--src DIR]

`--src` times another checkout's `src` directory (default: this one's), so
two trees can be run in turn and compared; the record names the commit of
the tree it timed and a digest of the sources it timed. Writes
`BENCH_ehrenfest.json` at the root of this checkout. The file name keeps
pytest from collecting it.
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
# (n, a) of exact_n320, exact_n256_fib, mixing_n256 and the single-site n = 320
SIZES = [(320, 80), (256, 16), (256, 64), (320, 1)]
REPS = 200  # timed calls per stage and size


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


def _stages(n: int, a: int):
    """{stage: zero-argument call}, the block length b and the name of the
    elimination timed."""
    import numpy as np

    from cutpaste import lumped
    from cutpaste.chains import EhrenfestParams
    from cutpaste.tvlab import ehrenfest

    assert EhrenfestParams(n, a / n).batch_size == a
    moves = ehrenfest._count_moves(n, a)
    # trees before the color-swap fold eliminate the whole band
    stationary = getattr(ehrenfest, "_folded_stationary", lumped._stationary)
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
    return {
        "count_moves": lambda: ehrenfest._count_moves(n, a),
        "stationary": lambda: stationary(moves),
        "advance": lambda: advance(block, row),
    }, b, stationary.__name__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src directory to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    rows = []
    for n, a in SIZES:
        stages, b, solver = _stages(n, a)
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
            rows.append({"n": n, "a": a, "b": b, "stage": name, "median_s": float(median),
                         "iqr_s": float(q3 - q1)})
            print(f"n={n:4d} a={a:3d} b={b:2d} {name:12s} median {median * 1e3:8.4f} ms"
                  f"  iqr {(q3 - q1) * 1e3:7.4f} ms")

    record = {
        "layer": "ehrenfest",
        **_tree(args.src.resolve()),
        "stationary": solver,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine()},
        "reps": REPS,
        "results": rows,
    }
    (ROOT / "BENCH_ehrenfest.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
