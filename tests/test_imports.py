"""What importing the package and running one CLI call load, each checked in
a fresh interpreter: names are loaded on first use, and a command loads
only the modules it calls."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import cutpaste

SRC = str(Path(cutpaste.__file__).resolve().parents[1])

# prints the loaded modules of cutpaste and numpy, as a JSON list
LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('cutpaste', 'numpy'))))")


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that finds this package."""
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys; sys.path.insert(0, {SRC!r}); {code}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def _cli_loads(argv) -> tuple[int, list]:
    """The exit code of one CLI call in a fresh interpreter, and the modules
    of cutpaste and numpy it loaded."""
    out = _fresh(
        "from cutpaste.cli import main\n"
        f"try:\n    rc = main({argv!r})\nexcept SystemExit as e:\n    rc = e.code\n"
        "print(rc); " + LOADED
    )
    rc, loaded = out.strip().splitlines()[-2:]
    return int(rc), json.loads(loaded)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must not pull it in
    code = "import cutpaste; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code).strip() == "[]"


def test_import_loads_no_submodule_and_no_numpy():
    assert json.loads(_fresh("import cutpaste; " + LOADED)) == ["cutpaste"]


def test_every_public_name_is_the_object_its_module_defines():
    code = """
import importlib, pkgutil
import cutpaste, cutpaste.tvlab
names = [(pkg, name) for pkg in (cutpaste, cutpaste.tvlab) for name in pkg.__all__
         if name != "__version__"]
got = {(pkg.__name__, name): getattr(pkg, name) for pkg, name in names}
modules = [importlib.import_module(m.name)
           for m in pkgutil.walk_packages(cutpaste.__path__, "cutpaste.")]
bad = []
for (pkg, name), obj in got.items():
    owners = {m.__name__ for m in modules if vars(m).get(name) is obj and m.__name__ != pkg}
    home = getattr(obj, "__module__", None)
    if not owners or (home is not None and home.startswith("cutpaste.") and home not in owners):
        bad.append((pkg, name))
print(json.dumps([len(got), bad]))
"""
    count, bad = json.loads(_fresh(code))
    assert bad == []
    assert count == len(cutpaste.__all__) - 1 + len(cutpaste.tvlab.__all__)


def test_star_import_dir_and_subpackage_after_a_bare_import():
    code = """
import cutpaste
listed = dir(cutpaste)
before = sorted(m for m in sys.modules if m.startswith("cutpaste."))
ns = {}
exec("from cutpaste import *", ns)
print(json.dumps([
    before,
    sorted(set(cutpaste.__all__) - set(listed)),
    [m for m in ("tvlab", "projections", "chains") if m not in listed],
    sorted(set(cutpaste.__all__) - set(ns)),
    ns["mixing_time"] is cutpaste.tvlab.mixing.mixing_time,
    cutpaste.projections.__name__,
    sorted(set(cutpaste.tvlab.__all__) - set(dir(cutpaste.tvlab))),
]))
"""
    before, unlisted, submodules, unstarred, same, projections, tv_unlisted = json.loads(_fresh(code))
    assert before == []
    assert unlisted == [] and submodules == [] and tv_unlisted == []
    assert unstarred == []
    assert same
    assert projections == "cutpaste.projections"


def test_a_command_loads_only_its_modules(tmp_path):
    rc, loaded = _cli_loads(["ehrenfest", "--n", "8", "--alpha", "0.25", "--t", "1"])
    assert rc == 0
    assert "cutpaste.tvlab.ehrenfest" in loaded
    unused = ("products", "projections", "tvlab.mc", "tvlab.mixing")
    assert [m for m in unused if f"cutpaste.{m}" in loaded] == []
    # the crossing helper's home carries no Monte Carlo or chain machinery
    # into the projection check
    law = {"kind": "atomic", "atoms": [[[0.8, 0.2], [0.2, 0.8]], [[0.2, 0.8], [0.8, 0.2]]],
           "weights": [0.5, 0.5]}
    config = tmp_path / "project.json"
    config.write_text(json.dumps({"law": law}))
    rc, loaded = _cli_loads(["project", "--config", str(config), "--n", "3", "--k", "2"])
    assert rc == 0
    ours = [m for m in loaded if m.startswith("cutpaste")]
    assert [m for m in ours if m.startswith(("cutpaste.tvlab", "cutpaste.products",
                                             "cutpaste.chains"))] == []


def test_help_and_a_bad_integer_load_no_numpy():
    for argv, code in ((["--help"], 0), (["ehrenfest", "--n", "x", "--t", "1"], 2)):
        rc, loaded = _cli_loads(argv)
        assert rc == code
        assert "numpy" not in loaded, argv


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads. `from __future__`
    imports and a package's `__init__` (its imports are re-exports) are
    exempt."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    root = Path(SRC).parent
    files = sorted([*Path(SRC, "cutpaste").rglob("*.py"), *Path(root, "tests").glob("*.py")])
    assert len(files) > 20
    assert [line for path in files for line in _unused_imports(path)] == []
