"""The benchmark's smoke run passes its own oracle.

`bench/run.py --smoke` generates every workload's inputs at tiny shapes, runs
each pipeline through the CLI and checks the outputs against the brute-force
oracle in `bench/oracle.py`, then every later pipeline for byte-identical
outputs. Its work files go to the git-ignored `.bench_work/`. With `--trace 1`
every other pipeline runs under the tracer's wrappers (`bench/tracer.py`); a
wrapper that no longer fits the function it wraps, such as a callback of the
wrong arity, fails only those traced commands.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert result["failed"] == 0
    assert proc.returncode == 0


def test_traced_bench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert result["failed"] == 0
    assert proc.returncode == 0
