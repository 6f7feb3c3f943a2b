"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, exits 0 and prints
   every metric ``BENCHMARK.json`` names, each with its unit, and a last
   line with exactly the result keys.
2. One corrupted outcome row makes a ``pmi_fleet`` run fail: ``correct``
   is false, ``failed`` > 0 and the exit code is nonzero.
3. A directory holding only ``BENCHMARK.json`` and this directory (no
   program) makes the run exit nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List

import run
import serving

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _last_json(stdout: str) -> Dict[str, object]:
    return json.loads(stdout.strip().splitlines()[-1])


def check_tiny_runs(spec: Dict[str, object], failures: List[str]) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {entry["name"]: entry["unit"] for entry in spec[group]}  # type: ignore[index]
        for workload in run.WORKLOADS:
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
                continue
            result = _last_json(done.stdout)
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            metrics = result["metrics"]
            got = {name: entry["unit"] for name, entry in metrics.items()}  # type: ignore[union-attr]
            if got != wanted:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
            printed = {line.split()[0] for line in done.stdout.splitlines() if line and not line.startswith(("#", "{"))}
            if printed != set(wanted):
                failures.append(f"{label}: printed names differ: {sorted(printed ^ set(wanted))}")
            print(f"ok   tiny run {label}", flush=True)


def check_corrupted_row(failures: List[str]) -> None:
    original = serving.outcome_rows
    seen = {"rows": 0}

    def corrupted(answer: Dict[str, object]) -> List[List[object]]:
        rows = original(answer)
        seen["rows"] += len(rows)
        if seen["rows"] == 100:  # flip the phase of one row
            rows = [list(row) for row in rows]
            rows[-1][1] = int(rows[-1][1]) % 6 + 1  # type: ignore[call-overload]
        return rows

    serving.outcome_rows = corrupted
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "pmi_fleet", "--seed", "7", "--seconds", "1"])
    finally:
        serving.outcome_rows = original
    for line in stdout.getvalue().splitlines():
        if line.startswith("# run files kept in "):  # the failed run's files
            shutil.rmtree(line[len("# run files kept in "):], ignore_errors=True)
    result = _last_json(stdout.getvalue())
    if code == 0 or result["correct"] or not int(result["failed"]) > 0:  # type: ignore[call-overload]
        failures.append(f"corrupted row: exit {code}, result {result}")
    else:
        print(f"ok   corrupted row fails the run (failed={result['failed']}, exit {code})", flush=True)


def check_bare_directory(failures: List[str]) -> None:
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(os.path.join(run.ROOT, "perfbench")):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(run.ROOT, "perfbench", name), os.path.join(bare, "perfbench"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pmi_fleet",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        failures.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}")
    else:
        print(f"ok   bare directory exits {done.returncode} without a result", flush=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures: List[str] = []
    check_bare_directory(failures)
    check_corrupted_row(failures)
    check_tiny_runs(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
