import subprocess
import sys
from pathlib import Path

import cutpaste


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must not pull it in
    code = "import sys, cutpaste; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cutpaste.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
