"""Self-tests for the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench/selftest_bench.py -q

The file name does not match pytest's test_*.py pattern, so a plain
`pytest` at the repository root does not collect it; it runs only when named.
The tests that start run.py take a few minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metrics the benchmark's definition names, end to end and per layer
NAMED_END_TO_END = ["setup_s", "wall_s", "peak_rss_mb"]
NAMED_PER_LAYER = [
    "import.s", "import.scipy_s",
    "tvlab.mc.self_s", "tvlab.mc.calls", "tvlab.mc.replicates",
    "tvlab.exact.self_s", "tvlab.exact.calls", "tvlab.exact.sequences",
    "tvlab.exact.statistic_size",
    "products.self_s", "products.qr_steps", "products.replicates",
    "tvlab.ehrenfest.self_s", "tvlab.ehrenfest.dp_steps", "tvlab.ehrenfest.state_cells",
    "process.minor_faults",
    "tvlab.mixing.self_s", "tvlab.mixing.probes",
    "paintbox.self_s", "paintbox.matrices",
    "chains.self_s", "chains.steps", "partitions.self_s", "partitions.act_calls",
    "projections.self_s", "projections.states", "smallspace.self_s",
    "cli.self_s", "cli.calls",
    "process.cpu_s", "trace.overhead_s", "error_rate",
]


def reference(workload: str) -> dict:
    return json.loads(run.REFERENCE.read_text())["workloads"][workload]


def one_query(workload: str, name: str, **changes) -> Workload:
    w = WORKLOADS[workload](7)
    q = dataclasses.replace(w.query(name), **changes)
    return Workload(w.name, (q,))


def problems(workload: Workload, ref: dict, tmp_path: Path) -> dict:
    workload.write_configs(tmp_path)
    return run.run_pass(workload, tmp_path, ref).problems


@pytest.mark.parametrize("workload, name", [
    ("ehrenfest_batch", "bounds_n256"),
    ("ehrenfest_batch", "mixing_n256"),
    ("atomic_k3", "mixing_exact"),
    ("atomic_k3", "tv_block_lower"),
])
def test_untampered_query_passes(workload, name, tmp_path):
    assert problems(one_query(workload, name), reference(workload), tmp_path) == {}


@pytest.mark.parametrize("workload, name, key, index, delta", [
    ("ehrenfest_batch", "bounds_n256", "upper_at_schedule", 1, 1e-6),
    ("ehrenfest_batch", "mixing_n256", "t_mix", 1, 1),
    ("atomic_k3", "mixing_exact", "exact:m=3", 1, 1e-6),
    ("atomic_k3", "tv_block_lower", "lower_bound:n=12:m=1", 1, 0.05),
])
def test_tampered_reference_fails(workload, name, key, index, delta, tmp_path):
    ref = reference(workload)
    ref[name][key][index] += delta
    found = problems(one_query(workload, name), ref, tmp_path)
    assert name in found and any(key in p for p in found[name])


def test_wrong_exit_code_fails(tmp_path):
    found = problems(one_query("ehrenfest_batch", "bounds_n256", expect_exit=3),
                     reference("ehrenfest_batch"), tmp_path)
    assert "exit code 0, expected 3" in found["bounds_n256"][0]
    found = problems(one_query("atomic_k3", "mixing_refused", expect_exit=0),
                     reference("atomic_k3"), tmp_path)
    assert "exit code 3, expected 0" in found["mixing_refused"][0]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in WORKLOADS:
        proc = run_bench(w, 1)
        assert proc.returncode == 0, proc.stderr
        out[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_untraced_metrics_match_benchmark_json():
    proc = run_bench("ehrenfest_batch", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert set(NAMED_END_TO_END) <= set(names)
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "metric error_rate 0.0 ratio" in proc.stdout
    assert "metric wall_clock_s " in proc.stdout
    assert "metric setup_clock_s " in proc.stdout


def test_speed_meter_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter()
    meter.start()
    try:
        since = meter.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        clock = time.perf_counter() - start
        overhead, speed_now = meter.window(since)
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert meter.mark() - since >= 5
    assert 0 < overhead < clock / 2
    assert speed_now > 0
    assert speed.reference_seconds(clock, overhead, speed_now) > 0
    # an interval too short for the timer is measured by a sample taken after it
    since = meter.mark()
    overhead, speed_now = meter.window(since)
    assert overhead == 0 and speed_now > 0 and meter.mark() == since + 1


def test_traced_metrics_match_benchmark_json(traced):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(NAMED_PER_LAYER) <= set(names)
    for result in traced.values():
        assert result["correct"]
        assert sorted(result["metrics"]) == sorted(names)
        for m in BENCHMARK["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_placement_claims(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("threshold_k2", "tvlab.exact.calls") == 0
    for name in ("products.qr_steps", "paintbox.matrices", "tvlab.mc.replicates"):
        assert value("ehrenfest_batch", name) == 0
    assert value("atomic_k3", "tvlab.ehrenfest.dp_steps") == 0
    # and each layer does work where the workload says it does
    assert value("threshold_k2", "tvlab.mc.replicates") > 0
    assert value("atomic_k3", "tvlab.exact.sequences") > 0
    assert value("ehrenfest_batch", "tvlab.ehrenfest.dp_steps") > 0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("atomic_k3", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def collected(*extra: str) -> list[str]:
    """Items a plain `pytest` at the repository root collects, as the
    package's own test command runs it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_repository_collection_is_unchanged():
    items = collected()
    assert items, "nothing collected"
    assert not [i for i in items if i.startswith("perfbench")]
    assert items == collected("--ignore=perfbench")
