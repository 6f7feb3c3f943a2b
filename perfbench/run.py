"""Repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pmi_fleet --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (an untraced
half, for the tracing overhead and CPU shares, then a traced half).  Every
metric is printed by name with its unit, then a provenance line, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output check passed and
no server process or checkpoint directory outlived the run.  Without the
program's sources next to it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("pmi_fleet", "batch_backfill", "paper_sweep")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of the runs, inside the checkout (ignored by git).
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

Metrics = Dict[str, Tuple[float, str]]


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip()


def provenance(args: argparse.Namespace) -> Dict[str, object]:
    """Host, program version and run settings stamped on every result."""
    from repro.exec.spec import CODE_VERSION

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "code_version": CODE_VERSION,
        "git_commit": git_commit(),
    }


def measure(args: argparse.Namespace, run_dir: str, notes: List[str]) -> Tuple[Metrics, int, int, List[str]]:
    """Run the workload; metrics, ops attempted and failed, problems."""
    import serving
    import sweep

    tmpdir = os.path.join(run_dir, "tmp")
    os.makedirs(tmpdir)
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmpdir)
    ctx = serving.Context(ROOT, run_dir, sys.executable, env)
    if args.workload == "paper_sweep":
        run = sweep.per_layer if args.trace else sweep.end_to_end
        return run(ctx, args.seed, args.seconds, notes)
    run_serving = serving.per_layer if args.trace else serving.end_to_end
    return run_serving(ctx, args.workload, args.seed, args.seconds, notes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Servers are stopped with SIGINT.  A shell that starts this program in
    # the background ignores SIGINT, and an ignored signal stays ignored
    # across exec; a handled one is reset to the default, so handling it
    # here lets every server it launches take SIGINT as KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    # The build step of a pure-Python program: byte-compile the sources
    # once, so the first run's set-up time is not a compile time.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the program sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    notes: List[str] = []
    metrics: Metrics = {}
    attempted = failed = 0
    problems: List[str] = []
    try:
        metrics, attempted, failed, problems = measure(args, run_dir, notes)
    except Exception:  # the run failed; report it as such, with the cause
        problems.append(traceback.format_exc())
    correct = not problems and failed == 0 and attempted > 0
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"# run files kept in {run_dir}")
    if attempted == 0:  # nothing ran to completion
        attempted = failed = 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
