"""The benchmark's tracer still finds every package name it wraps.

`bench/tracer.py` wraps names that `searchbias.cli` and `searchbias.trainer`
import; a renamed or removed name silently turns its per-layer metrics into
absent ones. It also relies on `train` calling `on_epoch(row)` once per
epoch, which no benchmark workload exercises. Each check runs in a fresh
interpreter, so the wrappers never leak into this test process, and with
bytecode writing off, so it leaves no file.
"""

import json
import subprocess
import sys
from pathlib import Path

from searchbias.cli import main

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


TRAIN_PROBE = """
import json, os, sys
bench, src, data = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracer
from searchbias.cli import main
t = tracer.Tracer()
tracer.install(t)
flags = [arg for name in ("images", "texts", "labels", "truth")
         for arg in (f"--{name}", os.path.join(data, f"{name}.jsonl"))]
code = main(["train", *flags, "--epochs", "2", "--batch-size", "16", "--emb-dim", "4",
             "--out-dir", os.path.join(data, "train")])
print(json.dumps({"code": code, "missing": t.missing, "metrics": tracer.layer_metrics(t.spans)}))
"""


def test_tracer_counts_the_epochs_of_a_traced_train(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--n-images", "30", "--n-texts", "40", "--dim", "6",
                 "--bias-dims", "0", "--out-dir", str(data)]) == 0
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRAIN_PROBE, str(ROOT / "bench"), str(ROOT / "src"), str(data)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 0 and got["missing"] == []
    metrics = got["metrics"]
    assert metrics["trainer.train.calls"] == 1
    assert metrics["trainer.epochs"] == 2
    # Each epoch is validated once, under the train span.
    assert metrics["retrieval.retrieve_all.calls"] == 2
