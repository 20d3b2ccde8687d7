"""The refusal contract, read from the package source: a budget refusal is
built only by errors.check_budget, whose details are then exactly
budget_name, required and budget; every check_budget call names an entry of
BUDGETS, and every entry is named; and every kind of Refusal is raised
somewhere, so each code the CLI documents can occur."""

import ast
from pathlib import Path

import cutpaste
from cutpaste.errors import BUDGETS

SRC = Path(cutpaste.__file__).resolve().parent


def _called(call: ast.Call):
    """The name a call calls: f for f(...) and for module.f(...)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _walk():
    """(module, innermost enclosing function or None, node) for every node of
    every module of the package."""
    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            yield module, scope, child
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, module, child.name if named else scope)

    for path in sorted(SRC.rglob("*.py")):
        yield from visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), None)


def test_refusals_keep_their_contract():
    nodes = list(_walk())
    calls = [(module, scope, node) for module, scope, node in nodes if isinstance(node, ast.Call)]

    built = {(module, scope) for module, scope, call in calls if _called(call) == "BudgetRefusal"}
    assert built == {("errors.py", "check_budget")}

    named = [call.args[0] for _, _, call in calls if _called(call) == "check_budget"]
    assert all(isinstance(arg, ast.Constant) and arg.value in BUDGETS for arg in named)
    assert {arg.value for arg in named} == set(BUDGETS)

    classes = [node for _, _, node in nodes if isinstance(node, ast.ClassDef)]
    kinds = {"Refusal"}
    while True:  # subclasses of subclasses too, wherever they are defined
        found = {c.name for c in classes if any(getattr(b, "id", None) in kinds for b in c.bases)}
        if found <= kinds:
            break
        kinds |= found
    raised = {_called(node.exc) for _, _, node in nodes
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)}
    assert kinds - {"Refusal"} <= raised, sorted(kinds - {"Refusal"} - raised)
