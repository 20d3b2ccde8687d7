"""Shared pytest wiring: a one-line verdict per acceptance criterion,
fixtures that set the enumeration budget or the chunk budget for one test,
one that measures a call's peak of traced allocations, and one that makes
every test start with no kept Ehrenfest stationary law.

Tests named ``test_criterion_NN_*`` in test_acceptance.py are the acceptance
gate. This plugin collects their outcomes and prints a compact block at the
end of the run, one line per criterion, so the gate can be read off without
scrolling through the full report. Supplement tests (``_supplement`` in the
name) document which clauses of a failing criterion do hold; they get no
line of their own.
"""

from __future__ import annotations

import re
import tracemalloc

import pytest

from cutpaste.errors import BUDGETS
from cutpaste.tvlab import ehrenfest, exact

_CRITERION = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")

_results: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    m = _CRITERION.match(item.name)
    if m is None or "_supplement" in item.name:
        return
    number = int(m.group(1))
    label = m.group(2).replace("_", " ")
    if rep.passed:
        verdict = "pass"
    elif rep.skipped and hasattr(rep, "wasxfail"):
        verdict = "fail (expected)"
    elif rep.failed:
        verdict = "FAIL"
    else:
        verdict = rep.outcome
    _results[number] = (label, verdict)


@pytest.fixture
def enumeration_budget(monkeypatch):
    """Call with a limit to set BUDGETS["enumeration"] until the test ends."""
    return lambda limit: monkeypatch.setitem(BUDGETS, "enumeration", limit)


@pytest.fixture
def cache_budget(monkeypatch):
    """Call with a limit to set the chunked kernels' element budget,
    exact._CACHE_BUDGET, until the test ends."""
    return lambda limit: monkeypatch.setattr(exact, "_CACHE_BUDGET", limit)


@pytest.fixture(autouse=True)
def cold_stationary_laws():
    """Forget the stationary laws that ehrenfest._one_count_chain keeps, so
    a test's elimination counts and memory peaks are those of a cold call
    whatever ran before it."""
    ehrenfest._stationary_laws.clear()


@pytest.fixture
def traced_peak():
    """Call with a function and its arguments to run it under tracemalloc
    and get the peak of its traced allocations in bytes (numpy reports its
    buffers to tracemalloc)."""

    def peak(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_results):
        label, verdict = _results[number]
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {label}: {verdict}")
