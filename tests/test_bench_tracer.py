"""The benchmark's tracer still finds every package name it wraps.

`bench/tracer.py` wraps names that `searchbias.cli` and `searchbias.trainer`
import; a renamed or removed name silently turns its per-layer metrics into
absent ones. The check runs in a fresh interpreter, so the wrappers never leak
into this test process, and with bytecode writing off, so it leaves no file.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer
t = tracer.Tracer()
tracer.install(t)
print(json.dumps(t.missing))
"""


def test_tracer_wraps_every_target_name():
    code = PROBE.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
