"""Benchmark of the gammacert command line.

Runs the commands a user runs (``verify``, ``build``, ``report``) with
``threads=1`` and one caller at a time (a closed loop), checks every verdict
against the reference pinned in ``workloads.py``, and prints one JSON result
as the last line of standard output.  Run it from the repository root:

    python3 perfbench/run.py --workload toy-verify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Each iteration runs in a fresh interpreter (``iteration.py``), as each
command line invocation does.  ``--trace 0`` reports the end-to-end metrics
of untraced iterations:

- ``run_s``: median wall time of the workload's commands.  Iterations repeat
  while the next one is expected to end within ``--seconds``; there are
  always at least two.
- ``setup_s``: median time for a fresh interpreter to import
  ``gammacert.cli`` from its bytecode cache and parse the workload's config,
  which every command line invocation pays; a few samples are taken before
  the iterations and a few after each one.
- ``peak_rss_mb``: median over iterations of the iteration process's peak
  resident memory.

``--trace 1`` runs one untraced and one traced iteration, and reports the
per-layer metrics (``spans.py``), the tracing overhead (traced minus
untraced ``run_s``) and how much of the traced run the spans leave
unaccounted.

Every checked outcome that differs from the reference, or comes back
undecided, counts in ``failed``; ``failed / attempted`` is the failed share.
Outputs, including ``spans.jsonl`` of a traced iteration, go to
``.bench_run/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

from iteration import ROOT, SRC
from workloads import WORKLOADS, Outcome, Workload

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_BATCH = 4
MIN_ITERATIONS = 2
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import gammacert.cli as cli; "
              "cli.config_from_sources(sys.argv[2], {})")

Metrics = Dict[str, Tuple[float, str]]


def environment() -> dict:
    import mpmath
    import numpy

    commit = "unknown"
    git_dir = os.path.join(ROOT, ".git")
    if os.path.isdir(git_dir):
        got = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {"python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "commit": commit}


def iterate(wl: Workload, seed: int, trace: bool) -> dict:
    got = subprocess.run(
        [sys.executable, os.path.join(HERE, "iteration.py"), wl.name, str(seed),
         "1" if trace else "0"],
        capture_output=True, text=True, cwd=ROOT)
    if got.returncode != 0:
        raise RuntimeError(f"{wl.name} iteration exited {got.returncode}:\n{got.stderr}")
    return json.loads(got.stdout.splitlines()[-1])


def setup_times(config: str, n: int) -> List[float]:
    # an installed package imports from compiled bytecode, so allow the cache
    # whatever the environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, config],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT, env=env)
        times.append(perf_counter() - t0)
    return times


def timed(wl: Workload, seed: int, seconds: float) -> Tuple[Metrics, List[Outcome]]:
    # set-up is sampled before the iterations and after each one, so that a
    # burst of load from elsewhere on the machine skews fewer of the samples;
    # the first start writes the bytecode cache and is not counted
    setup = setup_times(wl.config, SETUP_BATCH + 1)[1:]
    runs: List[dict] = []
    start = perf_counter()
    while True:
        runs.append(iterate(wl, seed, trace=False))
        setup += setup_times(wl.config, SETUP_BATCH)
        expected = statistics.median(r["run_s"] for r in runs)
        if len(runs) >= MIN_ITERATIONS and perf_counter() - start + expected > seconds:
            break
    print(f"{wl.name}: {len(runs)} iteration(s), run_s "
          + ", ".join(f"{r['run_s']:.3f}" for r in runs) + " s")
    return ({"run_s": (statistics.median(r["run_s"] for r in runs), "s"),
             "setup_s": (statistics.median(setup), "s"),
             "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB")},
            [tuple(o) for r in runs for o in r["outcomes"]])


def traced(wl: Workload, seed: int) -> Tuple[Metrics, List[Outcome]]:
    plain = iterate(wl, seed, trace=False)
    run = iterate(wl, seed, trace=True)
    metrics = {k: tuple(v) for k, v in run["metrics"].items()}
    metrics["trace.overhead_s"] = (run["run_s"] - plain["run_s"], "s")
    print(f"{wl.name}: traced run_s {run['run_s']:.3f} s, untraced {plain['run_s']:.3f} s")
    return metrics, [tuple(o) for r in (plain, run) for o in r["outcomes"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="base seed of the property suites, the only seeded input")
    ap.add_argument("--seconds", type=float, default=50,
                    help="how long the untraced iterations may run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gammacert", "cli.py")):
        print(f"error: no gammacert sources under {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"seed: {args.seed}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: Metrics = {}
    outcomes: List[Outcome] = []
    for name in names:
        wl = WORKLOADS[name]
        if args.trace:
            got, checked = traced(wl, args.seed)
        else:
            got, checked = timed(wl, args.seed, args.seconds)
        failed = [o for o in checked if not o[1]]
        for what, _, detail in failed:
            print(f"{name}: MISMATCH {what}: {detail}")
        for metric, (value, unit) in got.items():
            print(f"{name}: {metric} = {value:.6g} {unit}")
        print(f"{name}: failed_share = {len(failed)}/{len(checked)} "
              f"= {len(failed) / len(checked):.4g}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        outcomes += checked
    failed_n = sum(1 for o in outcomes if not o[1])
    print(json.dumps({
        "correct": failed_n == 0, "attempted": len(outcomes), "failed": failed_n,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
