#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/selftest.py

For each workload and `--trace 0/1` it checks that the last stdout line is
the result object, that it carries exactly the metrics BENCHMARK.json names
for that mode with their units, and that no command failed.  It also checks
that the benchmark refuses to report a result from a copy that holds only
BENCHMARK.json and this directory.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _check_result(spec: dict, workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{where}: metrics/units differ: {sorted(set(got) ^ set(want))}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        raise SystemExit(f"{where}: non-numeric metric value")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: correct={result['correct']} failed={result['failed']}"
                         f" attempted={result['attempted']}\n{proc.stderr}")
    if trace and result["metrics"]["bench.error_rate"]["value"] != 0:
        raise SystemExit(f"{where}: error_rate is not 0")
    print(f"ok  {where}: {result['attempted']} commands")


def _check_bare_copy() -> None:
    """Without the package sources the benchmark must fail without a result."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise SystemExit("bare copy: benchmark reported a result without the sources")
        print(f"ok  bare copy: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace in (0, 1):
            _check_result(spec, workload, trace)
    _check_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
