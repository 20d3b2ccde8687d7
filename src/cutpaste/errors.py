"""Exception taxonomy shared across the package.

Two failure families matter to callers. ValidationError means the input
itself is malformed (bad dimensions, bad config fields) and maps to CLI
exit code 2. Refusal means the input was well formed but a precondition
gate declined to run (theory hypotheses, enumeration budgets, step
allowances), and maps to CLI exit code 3. Every size gate refuses through
check_budget, against one named limit of BUDGETS.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager


class ValidationError(ValueError):
    """Malformed input or configuration."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def coerce(value, kind, field):
    """kind(value) for a setting read from outside the program: a value that
    kind rejects is malformed input for the named field. A boolean is no
    number, and an int setting takes only an integral number."""
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{field} cannot take the value {value!r}", field=field) from None


def _epsilon_grid(epsilon, descending: bool = False) -> tuple[float, ...]:
    """The distinct thresholds of an epsilon setting, one number or several,
    sorted; each must lie in [1e-9, 1)."""
    try:
        grid = tuple(sorted({float(e) for e in epsilon}, reverse=descending))
    except TypeError:
        grid = (float(epsilon),)
    if not grid:
        raise ValidationError("epsilon needs at least one threshold", field="epsilon")
    if not all(0.0 < e < 1.0 for e in grid):
        raise ValidationError("epsilon must lie in (0, 1)", field="epsilon")
    # 100 times the 1e-11 error of an exact value's entries (tvlab/exact.py):
    # below it, rounding alone would certify a horizon
    if min(grid) < 1e-9:
        raise ValidationError("epsilon must be at least 1e-09", field="epsilon")
    return grid


def _fields_json(report) -> dict:
    """The JSON of a dataclass report: every field under its own name, a
    tuple as a list. A report whose JSON differs in some fields starts from
    this and reshapes only those. A report's instance dict holds its fields
    and nothing else, in their order."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(report).items()}


@contextmanager
def _renamed(fields: dict):
    """Report malformed input raised inside the block under the caller's own
    names: fields maps the field a callee names (None for none) to the
    caller's setting, and the callee's name is replaced as a whole word in
    the message too."""
    try:
        yield
    except ValidationError as e:
        if e.field not in fields:
            raise
        name = fields[e.field]
        message = str(e)
        if e.field is not None:
            message = re.sub(rf"\b{re.escape(e.field)}\b", name, message)
        raise ValidationError(message, field=name) from None


class Refusal(RuntimeError):
    """A computation declined to run for a stated, machine-readable reason."""

    code = "refused"

    def __init__(self, reason, **details):
        super().__init__(reason)
        self.reason = reason
        self.details = details


class TheoryRefusal(Refusal):
    """A theoretical precondition (ergodicity, exchangeability, density) is not established."""

    code = "theory_gate"


class BudgetRefusal(Refusal):
    """An exact enumeration would exceed the configured budget."""

    code = "budget_exceeded"


# The most work each kind of exact enumeration may do, by name: three kinds,
# one budget each.
BUDGETS = {
    "enumeration": 20_000_000,  # atom sequences x count vectors, or the count statistic
    # every enumeration of the k^n labeled states; `project` keeps one dense
    # k^n x k^n kernel, 128 MiB at 4096, and no other array of that size
    "project_states": 4096,
    # n: the exact pass holds O(n a) memory, so this bounds its time, the
    # elimination's O(n a^2) and the sweep's O(t n a)
    "ehrenfest_sites": 1100,
}


def check_budget(name: str, required, reason: str) -> None:
    """Refuse work whose size exceeds the named entry of BUDGETS, with the
    details {budget_name, required, budget}. required is a count, or a power
    (base, exponent, *factors), base^exponent times the factors. A power that would pass 2^63 is refused whatever the budget,
    without being built (its digits alone can take seconds, and Python will
    not print past 4300 of them), and reported as "base^exponent*factor"."""
    budget = BUDGETS[name]
    if isinstance(required, tuple):
        base, exponent, *factors = required
        if exponent * math.log2(base) + sum(map(math.log2, factors)) < 63:
            required = base**exponent * math.prod(factors)
        else:
            required = "*".join([f"{base}^{exponent}", *map(str, factors)])
    if isinstance(required, str) or required > budget:
        raise BudgetRefusal(reason, budget_name=name, required=required, budget=budget)


class InconclusiveRefusal(Refusal):
    """A search certified no horizon below its threshold within its step allowance."""

    code = "inconclusive"
