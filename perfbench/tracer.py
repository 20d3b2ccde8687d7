"""Per-layer spans and work counters, recorded from outside the program.

A Tracer wraps every public function of each cutpaste module (and the
public methods of the classes defined there) in a timing wrapper, and
rebinds the name in every loaded cutpaste module that holds the original,
because the package imports functions by name. Spans are kept in memory with
their parent; a layer's self time is the time of its spans minus the time
of their direct child spans.

Work counters are read at the same public boundaries, from arguments and
results (for example replicates requested, or horizons swept), so they count
the work asked of a layer, not how the layer carries it out.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# module -> layer name; every layer reports <layer>.self_s
LAYERS = {
    "cutpaste.cli": "cli",
    "cutpaste.tvlab.mixing": "tvlab.mixing",
    "cutpaste.tvlab.mc": "tvlab.mc",
    "cutpaste.tvlab.exact": "tvlab.exact",
    "cutpaste.tvlab.ehrenfest": "tvlab.ehrenfest",
    "cutpaste.products": "products",
    "cutpaste.paintbox": "paintbox",
    "cutpaste.chains": "chains",
    "cutpaste.partitions": "partitions",
    "cutpaste.projections": "projections",
    "cutpaste.smallspace": "smallspace",
}


def _joint_size(x0, x1) -> int:
    """Size of the count statistic on the refinement cells of a pair."""
    cells: dict = defaultdict(int)
    for a, b in zip(x0.word, x1.word):
        cells[(a, b)] += 1
    return math.prod(math.comb(c + x0.k - 1, x0.k - 1) for c in cells.values())


def _exact_atomic(a, result):
    law, m = a["law"], a["m"]
    if m < 1:
        return {}
    return {
        "tvlab.exact.sequences": len(law.as_atomic().atoms) ** m,
        "tvlab.exact.statistic_size": _joint_size(a["x0"], a["x0_tilde"]),
    }


def _dp_sweep(n: int, steps: int) -> dict:
    return {"tvlab.ehrenfest.dp_steps": steps, "tvlab.ehrenfest.state_cells": steps * (n + 1) ** 2}


# "module:qualname" -> f(bound arguments, result) -> counter increments
COUNTERS = {
    "cutpaste.tvlab.mc:tv_upper_mc": lambda a, r: {"tvlab.mc.replicates": a["replicates"]},
    "cutpaste.tvlab.mc:tv_lower_mc": lambda a, r: {"tvlab.mc.replicates": a["replicates"]},
    "cutpaste.tvlab.exact:tv_exact_atomic": _exact_atomic,
    "cutpaste.tvlab.exact:tv_exact_conditional": lambda a, r: {
        "tvlab.exact.statistic_size": _joint_size(a["x0"], a["x0_tilde"])},
    "cutpaste.tvlab.mixing:mixing_time": lambda a, r: {"tvlab.mixing.probes": len(r.estimates)},
    "cutpaste.tvlab.ehrenfest:ehrenfest_tv_profile": lambda a, r: _dp_sweep(
        a["params"].n, max(int(t) for t in a["t_grid"])),
    "cutpaste.tvlab.ehrenfest:ehrenfest_mixing_time": lambda a, r: _dp_sweep(a["params"].n, r),
    "cutpaste.products:estimate_lyapunov": lambda a, r: {
        "products.qr_steps": a["m"] * a["replicates"], "products.replicates": a["replicates"]},
    "cutpaste.products:lyapunov_trace": lambda a, r: {"products.qr_steps": a["m"], "products.replicates": 1},
    "cutpaste.products:collapse_diagnostic": lambda a, r: {"products.replicates": a["replicates"]},
    "cutpaste.paintbox:sample_M_given_S": lambda a, r: {"paintbox.matrices": 1},
    "cutpaste.chains:run_efcp_matrix": lambda a, r: {"chains.steps": a["m_steps"]},
    "cutpaste.chains:run_efcp_coordinate": lambda a, r: {"chains.steps": a["m_steps"]},
    "cutpaste.chains:run_ehrenfest": lambda a, r: {"chains.steps": a["m_steps"]},
    "cutpaste.chains:run_group_chain": lambda a, r: {"chains.steps": a["m_steps"]},
    "cutpaste.chains:run_induced_simplex": lambda a, r: {"chains.steps": a["m_steps"]},
    "cutpaste.partitions:act": lambda a, r: {"partitions.act_calls": 1},
    "cutpaste.projections:projected_mixing_equivalence": lambda a, r: {"projections.states": a["k"] ** a["n"]},
}
# sample_batch is a method of every law class, so it is matched by name
METHOD_COUNTERS = {"sample_batch": lambda a, r: {"paintbox.matrices": a["size"]}}

# <layer>.calls counts calls into these functions from outside their layer
ENTRY_POINTS = {
    "cli": ("main",),
    "tvlab.mc": ("tv_upper_mc", "tv_lower_mc", "batched_products"),
    "tvlab.exact": ("tv_exact_atomic", "tv_exact_conditional", "tv_exact_product_multinomial"),
}

COUNTER_NAMES = sorted(
    {"tvlab.mc.replicates", "tvlab.exact.sequences", "tvlab.exact.statistic_size",
     "tvlab.mixing.probes", "tvlab.ehrenfest.dp_steps", "tvlab.ehrenfest.state_cells",
     "products.qr_steps", "products.replicates", "paintbox.matrices", "chains.steps",
     "partitions.act_calls", "projections.states"}
)


class Tracer:
    """Installs the wrappers, records spans and counters, and removes the
    wrappers again on uninstall."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [layer, start, end, parent index, entry point?]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, layer: str, counter):
        sig = inspect.signature(fn) if counter else None
        entry = fn.__name__ in ENTRY_POINTS.get(layer, ())
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, entry])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, v in counter(bound.arguments, result).items():
                    counters[key] += v
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                self.missing.append(modname)
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, layer, COUNTERS.get(f"{modname}:{name}"))
                    wrapped[id(obj)] = (obj, w)
                    self._set(mod, name, w)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(member):
                            continue
                        self._set(obj, attr, self._wrap(member, layer, METHOD_COUNTERS.get(attr)))
        # rebind every other name that still refers to an original function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cutpaste" or modname.startswith("cutpaste.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        known = {f"{m}:{n}" for m in LAYERS if m in sys.modules for n in vars(sys.modules[m])}
        self.missing += [key for key in COUNTERS if key not in known]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_metrics(self) -> dict[str, float]:
        """<layer>.self_s, <layer>.calls and the work counters, for the spans
        recorded since reset()."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS.values()}
        out.update({f"{layer}.calls": 0 for layer in ENTRY_POINTS})
        for i, (layer, start, end, parent, entry) in enumerate(self.spans):
            out[f"{layer}.self_s"] += end - start - child_time[i]
            if entry and (parent < 0 or self.spans[parent][0] != layer):
                out[f"{layer}.calls"] += 1
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0)
        return out
