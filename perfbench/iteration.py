"""One iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/iteration.py <workload> <seed> <trace: 0 or 1>

Each command line invocation of gammacert starts a new process and pays its
lazy set-up (such as mpmath's constant caches) again, so every iteration gets
a process of its own.  The commands run in process through
``gammacert.cli.main``.  The last line of standard output is one JSON object:
the commands' wall time, every checked outcome, this process's peak RSS and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import List, Tuple

from workloads import WORKLOADS, Outcome, Result, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def call(cli, argv: List[str]) -> Result:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed outcome, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
    return argv, code, buf.getvalue()


def run_once(cli, wl: Workload, seed: int) -> Tuple[float, List[Outcome]]:
    """Run the workload's commands once; return their wall time and outcomes."""
    out_dir = os.path.join(RUN_DIR, wl.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    gc.collect()
    runs = []
    t0 = perf_counter()
    for argv in wl.commands(out_dir, seed):
        runs.append(call(cli, argv))
    elapsed = perf_counter() - t0
    try:
        outcomes = wl.check(out_dir, runs)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        outcomes = [("reading the outputs", False, f"{type(exc).__name__}: {exc}")]
    return elapsed, outcomes


def main(argv: List[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, SRC)
    from gammacert import cli

    wl = WORKLOADS[name]
    result = {}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            elapsed, outcomes = run_once(cli, wl, seed)
        finally:
            tracer.restore()
        tracer.write_spans(os.path.join(RUN_DIR, wl.name, "spans.jsonl"))
        metrics = tracer.layer_metrics()
        # the self times of all layers, cli's included, should add up to the
        # traced run_s; what is left is the loop around the commands
        accounted = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        metrics["trace.unaccounted_s"] = (elapsed - accounted, "s")
        result["metrics"] = metrics
    else:
        elapsed, outcomes = run_once(cli, wl, seed)
    result.update(run_s=elapsed, outcomes=outcomes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
