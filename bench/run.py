"""searchbias benchmark: closed-loop CLI pipelines checked by an output oracle.

Run from a checkout of the repository (no install needed):

    python3 bench/run.py --workload coco-clip --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 1 --trace 1 --smoke

A run generates the workload's inputs from the seed (set-up, timed), then
runs the workload's command pipeline in a fresh client process
(bench/client.py) again and again until --seconds have passed, timing one
more set-up whenever SETUP_EVERY_S have passed since the last. The first
pipeline is a warm-up: its outputs are checked against the oracle
(bench/oracle.py) and every later one must reproduce them byte for byte, but
its times are not reported.

With --trace 0 it reports the end-to-end metrics: times are trimmed means
over the timed pipelines, memory and set-up time are medians.
With --trace 1 it alternates untraced and traced pipelines and reports the
per-layer metrics of the traced ones (bench/tracer.py) plus the tracing
overhead, and writes the spans to .bench_work/. --smoke uses tiny shapes.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (each {"value", "unit"}).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# The client runs one thread. A second BLAS thread did not make the pipelines
# faster on the 2-core benchmark host; it only made their times depend on
# what else ran on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from machine import machine_facts  # noqa: E402  (numpy must see the settings above)
from tracer import COMPUTED, PER_LAYER, absent_metrics, layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# A run must finish within 180 s; stop starting pipelines well before that.
RUN_LIMIT_S = 150.0
# Seconds of pipelines between two timed set-ups.
SETUP_EVERY_S = 6.0


def trimmed_mean(values):
    """Mean of the values without the lowest and the highest (given five or more).

    A run holds only five to eleven timed pipelines. The mean of the middle
    ones varies less from run to run than their median, and dropping the two
    extremes keeps one stalled pipeline from moving it much.
    """
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return statistics.fmean(values)


# name -> (unit, statistic over the run's samples)
END_TO_END = {
    "run_s": ("s", trimmed_mean),
    "main_cmd_s": ("s", trimmed_mean),
    "peak_rss_mb": ("MB", statistics.median),
    "setup_s": ("s", statistics.median),
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _out_dir(argv):
    return argv[argv.index("--out-dir") + 1]


def _digest(path):
    """SHA-256 over the names and bytes of the files in one output directory."""
    if not os.path.isdir(path):
        return None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _client(spec, work, timeout):
    """Run one pipeline in a fresh process; None if the process itself failed."""
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "client.py"), spec_path, result_path],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, proc.stderr[-1000:]
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), None


class Run:
    """One workload at one seed: set-up, the timed loop and its checks."""

    def __init__(self, workload, shape, seed, seconds, trace):
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(WORK, f"{workload.name}-s{seed}-t{int(trace)}")
        self.in_dir = os.path.join(self.work, "inputs")
        self.spare_dir = os.path.join(self.work, "spare-inputs")
        self.out_dir = os.path.join(self.work, "out")
        self.setup_s = []
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self, in_dir):
        """Generate the inputs into `in_dir` and time it."""
        shutil.rmtree(in_dir, ignore_errors=True)
        os.makedirs(in_dir)
        start = time.perf_counter()
        self.workload.make_inputs(in_dir, self.seed, self.shape)
        self.setup_s.append(time.perf_counter() - start)

    def loop(self, deadline):
        """Run pipelines for `seconds`, then check the first one's outputs.

        Every SETUP_EVERY_S the inputs are generated once more, into a spare
        directory, so that `setup_s` is sampled across the whole run.
        """
        from oracle import CHECKS

        commands = self.workload.commands(self.in_dir, self.out_dir, self.shape)
        out_dirs = [_out_dir(argv) for _, argv in commands]
        first = os.path.join(self.work, "first")
        reference = None
        started = last_setup = time.perf_counter()
        while True:
            traced = self.trace and len(self.samples) % 2 == 1
            shutil.rmtree(self.out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            spec = {"src": SRC, "trace": traced, "commands": commands}
            try:
                result, error = _client(spec, self.work, timeout=max(1.0, deadline - t0))
            except subprocess.TimeoutExpired:
                result, error = None, "client timed out"
            if result is None:
                self.attempted += len(commands)
                self.failed += len(commands)
                self.problems.append(f"client process failed: {error}")
                break
            digests = [_digest(d) for d in out_dirs]
            if reference is None:
                reference = digests
                os.rename(self.out_dir, first)
            result["issues"] = [
                [f"exit code {cmd['rc']}: {cmd['stderr'].strip()[-300:]}"] if cmd["rc"] != 0 else []
                for cmd in result["commands"]
            ]
            for issues, digest, ref in zip(result["issues"], digests, reference):
                if digest != ref:
                    issues.append("outputs differ from the first pipeline's")
            result["traced"] = traced
            result["warmup"] = not self.samples
            self.samples.append(result)
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                self.setup(self.spare_dir)
                last_setup = time.perf_counter()
            now = time.perf_counter()
            step = now - t0
            # The warm-up, then at least one timed pipeline of each kind.
            enough = len(self.samples) >= (3 if self.trace else 2)
            if enough and (now - started + step > self.seconds or now + step > deadline):
                break
        if self.samples:
            # Later pipelines reproduced the first byte for byte; check it once.
            checks = CHECKS[self.workload.name](self.in_dir, first, self.shape)
            for issues, extra in zip(self.samples[0]["issues"], checks):
                issues.extend(extra)
        for sample in self.samples:
            for cmd, issues in zip(sample["commands"], sample["issues"]):
                self.attempted += 1
                if issues:
                    self.failed += 1
                    self.problems.append(f"{cmd['name']}: " + "; ".join(issues))

    def _untraced(self):
        return [s for s in self.samples if not s["traced"] and not s["warmup"]]

    def end_to_end(self):
        """name -> list of per-pipeline values (setup_s: per set-up)."""
        untraced = self._untraced()
        main = self.workload.main_command
        return {
            "run_s": [s["run_s"] for s in untraced],
            "main_cmd_s": [sum(c["s"] for c in s["commands"] if c["name"] == main) for s in untraced],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
            "setup_s": self.setup_s,
        }

    def per_command(self):
        from workloads import COMMAND_METRIC

        names = dict.fromkeys(c["name"] for s in self.samples for c in s["commands"])
        return {
            COMMAND_METRIC[name]: [
                sum(c["s"] for c in s["commands"] if c["name"] == name) for s in self._untraced()
            ]
            for name in names
        }

    def per_layer(self):
        traced = [s for s in self.samples if s["traced"]]
        samples = [layer_metrics(s["spans"]) for s in traced]
        values = {name: [m[name] for m in samples] for name in samples[0]} if samples else {}
        untraced = self._untraced()
        if traced and untraced:
            values["trace.overhead_s"] = [
                trimmed_mean(s["run_s"] for s in traced)
                - trimmed_mean(s["run_s"] for s in untraced)
            ]
        return values

    def missing(self):
        return sorted({name for s in self.samples for name in s["missing"]})

    def write_records(self, machine):
        os.makedirs(WORK, exist_ok=True)
        stem = os.path.join(WORK, f"{self.workload.name}-s{self.seed}-t{int(self.trace)}")
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "shape": self.shape,
            "machine": machine,
            "setup_s": self.setup_s,
            "pipelines": [{k: v for k, v in s.items() if k != "spans"} for s in self.samples],
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if self.trace:
            runs = [
                {"run_id": i, "spans": s["spans"]} for i, s in enumerate(self.samples) if s["traced"]
            ]
            trace = {
                "fields": ["id", "name", "start", "end", "parent", "attrs", "error"],
                "missing": self.missing(),
                "runs": runs,
            }
            with open(stem + "-trace.json", "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
        shutil.rmtree(self.work, ignore_errors=True)


def _table(title, rows):
    """One line per metric: reported value, median, quartiles, max, unit, n."""
    head = f"  {'metric':<34} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'max':>12}  unit   n  note"
    lines = [title, head]
    for name, values, unit, stat, note in rows:
        if not values:
            lines.append(f"  {name:<34} {'-':>12} {'':>12} {'':>12} {'':>12} {'':>12}  {unit:<5}  0  {note}")
            continue
        q1, q3 = _quartiles(values)
        lines.append(
            f"  {name:<34} {stat(values):>12.6g} {statistics.median(values):>12.6g} {q1:>12.6g} "
            f"{q3:>12.6g} {max(values):>12.6g}  {unit:<5} {len(values):>2}  {note}"
        )
    return "\n".join(lines)


def report(run):
    """Print the run's tables; return its metrics as name -> (value, unit)."""
    head = (
        f"== {run.workload.name}  seed {run.seed}  trace {int(run.trace)}  shape "
        + " ".join(f"{k}={v}" for k, v in run.shape.items())
    )
    traced = sum(s["traced"] for s in run.samples)
    print(
        f"{head}\n{len(run.samples)} pipelines (1 warm-up, {traced} traced), "
        f"set-up x{len(run.setup_s)}"
    )
    metrics = {}
    if run.trace:
        values = run.per_layer()
        absent = set(absent_metrics(run.missing()))
        rows = []
        for name, unit in PER_LAYER.items():
            note = "absent" if name in absent else "computed from shapes" if name in COMPUTED else ""
            rows.append((name, values.get(name, []), unit, statistics.median, note))
            if values.get(name):
                metrics[name] = (statistics.median(values[name]), unit)
        print(_table("per-layer (traced pipelines)", rows))
        if run.missing():
            print(f"names not found to wrap: {', '.join(run.missing())}")
    else:
        values = run.end_to_end()
        rows = [(name, values[name], unit, stat, "") for name, (unit, stat) in END_TO_END.items()]
        rows += [
            (name, v, "s", trimmed_mean, "per command") for name, v in run.per_command().items()
        ]
        print(_table("end-to-end (timed untraced pipelines)", rows))
        metrics = {
            name: (stat(values[name]), unit)
            for name, (unit, stat) in END_TO_END.items()
            if values[name]
        }
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  error_rate {rate:.6g} ({run.failed} failed of {run.attempted} commands)")
    for problem in run.problems[:10]:
        print(f"  FAILED {problem}")
    return metrics


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "searchbias", "cli.py")):
        print(f"bench: no package source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import searchbias
    from workloads import WORKLOADS

    if not os.path.abspath(searchbias.__file__).startswith(SRC + os.sep):
        print(f"bench: imported searchbias from {searchbias.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, oracle still on")
    args = parser.parse_args(argv)

    machine = machine_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        workload = WORKLOADS[name]
        shape = workload.smoke if args.smoke else workload.full
        run = Run(workload, shape, args.seed, args.seconds, bool(args.trace))
        deadline = time.perf_counter() + RUN_LIMIT_S
        run.setup(run.in_dir)
        run.loop(deadline)
        run.write_records(machine)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in report(run).items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += run.attempted
        failed += run.failed
    print("machine " + json.dumps(machine, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
