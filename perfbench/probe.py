"""Set-up probe: a fresh interpreter imports cutpaste and loads every config
in the directory given as its argument, then prints "ready", the time its
speed meter's kernels took and the speed they measured, and exits.

run.py times it from spawn to the "ready" line. Under -X importtime the
meter stays off (and numpy is not imported before cutpaste), so that the
import times are those of cutpaste alone.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

metered = "importtime" not in sys._xoptions
if metered:
    from speed import SpeedMeter

    meter = SpeedMeter()
    meter.start()

import cutpaste  # noqa: E402

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    cfg = json.loads(path.read_text())
    if "law" in cfg:
        cutpaste.law_from_config(cfg["law"])
overhead, speed = 0.0, 1.0
if metered:
    meter.stop()
    overhead, speed = meter.window(0)
print(f"ready {overhead!r} {speed!r}", flush=True)
