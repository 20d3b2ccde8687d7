"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's CLI queries through cutpaste.cli.main in this
interpreter, in a closed loop (one caller, queries back to back), until S
seconds have passed, and checks every answer. The first pass warms up and is
not timed into wall_s. With --trace 0 it reports the end-to-end metrics,
its timings in reference seconds (speed.py); with --trace 1 it runs untraced
passes for half the time, then traced passes, and reports per-layer metrics.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import DIGESTS, CheckError, compare, cross_checks  # noqa: E402
from speed import SpeedMeter, reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 60
# no pass starts once the process is this old and another pass would not
# finish in time, so a run ends well inside three minutes
DEADLINE_S = 150.0
REFERENCE = HERE / "reference.json"
PROCESS_START = time.perf_counter()


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    minor_faults: int
    attempted: int
    query_s: list[float]
    problems: dict[str, list[str]] = field(default_factory=dict)
    # wall_s in reference seconds, when a speed meter ran
    reference_s: float | None = None


def run_query(argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI call; the exit code is None when it raised."""
    import cutpaste.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cutpaste.cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed query, not a failed run
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def check_pass(workload, outputs, reference: dict) -> dict[str, list[str]]:
    """Problems per query name; a query with none passed."""
    problems: dict[str, list[str]] = {}
    digests = {}
    for q, (rc, out, err) in zip(workload.queries, outputs):
        found = []
        if rc != q.expect_exit:
            found.append(f"exit code {rc}, expected {q.expect_exit}: {err.strip()[-300:]}")
        elif q.name not in reference:
            found.append("no reference for this query")
        else:
            try:
                digests[q.name] = DIGESTS[q.digest](out, err)
                found += compare(digests[q.name], reference[q.name])
            except (CheckError, AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
                found.append(f"{type(e).__name__}: {e}")
        if found:
            problems[q.name] = found
    for name, found in cross_checks(workload, digests).items():
        if found:
            problems.setdefault(name, []).extend(found)
    return problems


def run_pass(workload, config_dir: Path, reference: dict, meter: SpeedMeter | None = None) -> PassResult:
    argvs = [q.argv(config_dir) for q in workload.queries]
    since = meter.mark() if meter else 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outputs, stamps = [], [start]
    for argv in argvs:
        outputs.append(run_query(argv))
        stamps.append(time.perf_counter())
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    wall = stamps[-1] - start
    return PassResult(
        wall, cpu, after.ru_minflt - before.ru_minflt, len(argvs),
        [b - a for a, b in zip(stamps, stamps[1:])],
        check_pass(workload, outputs, reference),
        reference_seconds(wall, *meter.window(since)) if meter else None,
    )


def fits(last: float, end: float) -> bool:
    """Whether a pass as long as the last one would end by `end` (a
    perf_counter time) and inside the process deadline."""
    return time.perf_counter() + last <= min(end, PROCESS_START + DEADLINE_S)


def run_passes(one_pass, end: float) -> list[PassResult]:
    """A warm-up pass, then timed passes while another fits by `end`; the
    first timed pass needs only to fit the deadline."""
    passes = [one_pass()]
    while fits(passes[-1].wall_s, end if len(passes) > 1 else math.inf):
        passes.append(one_pass())
    return passes


def run_traced(one_pass, end: float) -> tuple[list[PassResult], list[dict]]:
    """Traced passes until `end` (at least one), with each pass's layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    if tracer.missing:
        print(f"note: not traced (absent from the program): {', '.join(tracer.missing)}")
    passes, layers = [], []
    try:
        while not passes or fits(passes[-1].wall_s, end):
            tracer.reset()
            passes.append(one_pass())
            layers.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    return passes, layers


def probe(config_dir: Path, importtime: bool) -> tuple[float, float, str]:
    """Spawn a fresh interpreter that imports cutpaste and loads the configs;
    the time from spawn to its "ready" line in seconds and in reference
    seconds, and its stderr."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "probe.py"), str(config_dir)]
    # stderr goes to a file: -X importtime writes more than a pipe holds
    with tempfile.TemporaryFile("w+") as errfile:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errfile, text=True) as p:
            try:
                line = p.stdout.readline()
                elapsed = time.perf_counter() - start
                p.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                p.kill()
                p.wait()
                raise
        errfile.seek(0)
        err = errfile.read()
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed, reference_seconds(elapsed, float(fields[1]), float(fields[2])), err


def import_times(err: str) -> tuple[float, float]:
    """(import cutpaste, time inside scipy modules) from -X importtime lines."""
    total = scipy = 0.0
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue
        if name == "cutpaste":
            total = int(cum_us) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us) / 1e6
    return total, scipy


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def header(args, loadavg_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": loadavg_start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutpaste" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no cutpaste package under {SRC}; run from a full checkout\n")
        return 2
    if not REFERENCE.is_file():
        sys.stderr.write(f"run.py: reference outputs {REFERENCE} are missing\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    workload = WORKLOADS[args.workload](args.seed)

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            return measure(args, workload, Path(tmp), reference)
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()


def measure(args, workload, config_dir: Path, reference: dict) -> int:
    loadavg_start = os.getloadavg()
    workload.write_configs(config_dir)
    if args.trace:
        samples = [import_times(probe(config_dir, True)[2]) for _ in range(IMPORT_SAMPLES)]
    else:
        setup = [probe(config_dir, False)[:2] for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import cutpaste

    if Path(cutpaste.__file__).resolve().parent != SRC / "cutpaste":
        sys.stderr.write(f"run.py: imported cutpaste from {cutpaste.__file__}, not {SRC}\n")
        return 2
    head = header(args, loadavg_start)
    print("header " + json.dumps(head, sort_keys=True), flush=True)

    meter = None if args.trace else SpeedMeter()
    one_pass = functools.partial(run_pass, workload, config_dir, reference, meter)
    t0 = time.perf_counter()
    if meter:
        meter.start()
    try:
        passes = run_passes(one_pass, t0 + (args.seconds / 2 if args.trace else args.seconds))
    finally:
        if meter:
            meter.stop()
    traced, layer_runs = run_traced(one_pass, t0 + args.seconds) if args.trace else ([], [])

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.problems) for p in everything)
    for i, p in enumerate(everything):
        kind = "warm-up" if i == 0 else ("traced" if i >= len(passes) else "timed")
        ref = "" if p.reference_s is None else f" reference_s={p.reference_s:.4f}"
        print(f"pass {i} {kind} wall_s={p.wall_s:.4f}{ref} cpu_s={p.cpu_s:.4f} "
              f"minor_faults={p.minor_faults} failed={len(p.problems)}/{p.attempted}")
        for name, found in p.problems.items():
            sys.stderr.write(f"FAILED pass {i} {name}: {'; '.join(found)}\n")
    timed = passes[1:] or passes
    wall = median([p.wall_s for p in timed])
    for i, q in enumerate(workload.queries):
        times = [p.query_s[i] for p in timed]
        print(f"query {q.name} median_s={median(times):.4f} min_s={min(times):.4f}")
    error_rate = failed / attempted

    if not args.trace:
        print(f"metric setup_clock_s {median(s[0] for s in setup)!r} s")
        print(f"metric wall_clock_s {wall!r} s")
        metrics = {
            "setup_s": median(s[1] for s in setup),
            "wall_s": median([p.reference_s for p in timed]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {
            "import.s": median([s[0] for s in samples]),
            "import.scipy_s": median([s[1] for s in samples]),
            "process.cpu_s": median([p.cpu_s for p in timed]),
            "process.minor_faults": median([p.minor_faults for p in timed]),
            "trace.overhead_s": median([p.wall_s for p in traced]) - wall,
            "error_rate": error_rate,
        }
        for name in layer_runs[-1]:
            values = [run[name] for run in layer_runs]
            metrics[name] = median(values) if name.endswith("_s") else values[-1]
    print(f"timed passes {len(timed)}, traced passes {len(traced)}, "
          f"loadavg_end {list(os.getloadavg())}")
    if not args.trace:
        print(f"metric error_rate {error_rate!r} ratio")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {unit(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name == "error_rate":
        return "ratio"
    return "s" if name.endswith("_s") or name == "import.s" else "count"


if __name__ == "__main__":
    sys.exit(main())
