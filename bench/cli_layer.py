"""Per-layer timings of the CLI around each benchmark query.

At the argv of every benchmark query (perfbench/workloads.py, seed 0), times
the parts of a `cutpaste.cli.main` call that are not the query's mathematics:

- `parser_cold`: `cli.build_parser(command)` with no parser kept, as in a
  one-shot process;
- `parser_warm`: `cli.build_parser(command)` once the command's parser has
  been built in this process, as in every later call (a tree that keeps no
  parser builds it again);
- `settings`: `cli._settings` on the parsed arguments, which reads the
  query's config file and converts every setting;
- `emit`: the query's `cli._emit_json` or `cli._emit_csv` call on its
  result, written to a string. A refused query (exit 3) emits nothing.

Each stage is called once to warm up, then REPS times, the stages and
queries taking turns, and the record keeps the median and interquartile
range of the single-call times.

    python bench/cli_layer.py [--src DIR]

`--src`, the tree digest and the record file work as in
`ehrenfest_layer.py`; the record goes into `BENCH_cli.json`.
"""

from __future__ import annotations

# first, so that BLAS and OpenMP are held to one thread before numpy loads
from ehrenfest_layer import ROOT, _environment, _src, _write_record

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

REPS = 200  # timed calls per stage and query
RECORD = ROOT / "BENCH_cli.json"


def _emitted(cli, argv: list[str]):
    """The emitter call main makes for argv, as (emitter, args), or None
    when the query emits nothing; the query runs once, its output dropped."""
    seen = []
    emitters = {name: getattr(cli, name) for name in ("_emit_json", "_emit_csv")}
    for name, emit in emitters.items():
        setattr(cli, name, lambda *args, emit=emit: seen.append((emit, args)))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    finally:
        for name, emit in emitters.items():
            setattr(cli, name, emit)
    return seen[0] if seen else None


def _cases(config_dir: Path):
    """[(workload, query, command, {stage: zero-argument call})] for every
    benchmark query."""
    from workloads import WORKLOADS

    from cutpaste import cli

    # trees that keep no parser have none to forget
    forget = getattr(cli.build_parser, "cache_clear", lambda: None)
    cases = []
    for workload_name, make in WORKLOADS.items():
        workload = make(0)
        workload.write_configs(config_dir)
        for q in workload.queries:
            argv = q.argv(config_dir)
            command = argv[0]
            table = cli.COMMANDS[command][2]
            args = cli.build_parser(command).parse_args(argv[1:])

            def cold(command=command):
                forget()
                cli.build_parser(command)

            stages = {
                "parser_cold": cold,
                "parser_warm": lambda command=command: cli.build_parser(command),
                "settings": lambda args=args, table=table: cli._settings(args, table),
            }
            emitted = _emitted(cli, argv)
            if emitted is not None:
                def emit(emit=emitted[0], args=emitted[1]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        emit(*args)

                stages["emit"] = emit
            cases.append((workload_name, q.name, command, stages))
    return cases


def main(argv=None) -> int:
    src = _src(__doc__, argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    with tempfile.TemporaryDirectory() as config_dir:
        cases = _cases(Path(config_dir))
        for *_, stages in cases:
            for call in stages.values():
                call()
        times = [{name: [] for name in stages} for *_, stages in cases]
        for _ in range(REPS):
            for got, (*_, stages) in zip(times, cases):
                for name, call in stages.items():
                    start = time.perf_counter()
                    call()
                    got[name].append(time.perf_counter() - start)
    rows = []
    for got, (workload, query, command, _) in zip(times, cases):
        for stage, samples in got.items():
            q1, median, q3 = np.percentile(samples, [25, 50, 75])
            rows.append({"workload": workload, "query": query, "command": command, "stage": stage,
                         "median_s": float(median), "iqr_s": float(q3 - q1)})
            print(f"{workload:15s} {query:20s} {stage:12s} median {median * 1e3:8.4f} ms"
                  f"  iqr {(q3 - q1) * 1e3:7.4f} ms")

    _write_record(RECORD, {"layer": "cli", **_environment(src), "reps": REPS, "results": rows})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
