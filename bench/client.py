"""One closed-loop client: run a workload's commands in turn in this process.

    python3 bench/client.py SPEC.json RESULT.json

SPEC.json holds {"src": <package source dir>, "trace": bool, "commands":
[[name, argv], ...]}. Each command is one call of `searchbias.cli.main`; the
next starts when the previous returns. RESULT.json receives each command's
exit code and wall time, the pipeline's wall time, this process's peak RSS
and, when traced, the recorded spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident memory of this process, in MiB.

    VmHWM belongs to this process's own address space. ru_maxrss would also
    count the parent's resident memory, which Linux carries across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec):
    sys.path.insert(0, spec["src"])
    from searchbias import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    commands = []
    start = time.perf_counter()
    for name, argv in spec["commands"]:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        commands.append(
            {"name": name, "rc": rc, "s": time.perf_counter() - t0, "stderr": err.getvalue()[-2000:]}
        )
    run_s = time.perf_counter() - start
    return {
        "run_s": run_s,
        "commands": commands,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.spans if tracer else None,
        "missing": tracer.missing if tracer else [],
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
