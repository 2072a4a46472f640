"""Smoke test of the benchmark, so that it cannot rot silently.

    python3 benchmarks/smoke.py

Runs every workload once at the tiny size, untraced and traced, and fails
unless every output check passes and every metric named in BENCHMARK.json
is reported.  It also fails when BENCHMARK.json differs from spec.py, and
when the benchmark prints a result in a copy of itself that has no source
tree to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spec
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args], capture_output=True, text=True, timeout=600)


def main() -> int:
    problems = []
    if json.loads((ROOT / "BENCHMARK.json").read_text()) != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.py; regenerate it with run.py --write-spec")

    for workload in workloads.NAMES:
        for trace, wanted in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            label = f"{workload} --trace {trace}"
            done = _run(BENCH_DIR / "run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
            if done.returncode != 0:
                problems.append(f"{label}: exit status {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: checks failed:\n{done.stdout}")
            names = [name for name, *_ in wanted]
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{label}: metrics {sorted(set(names) ^ set(result['metrics']))} missing or extra")
            print(f"{label}: {result['attempted']} checks, {len(result['metrics'])} metrics")

    # A copy of the benchmark alone, with no source tree beside it, must fail without a result.
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare / BENCH_DIR.name / "run.py", "--workload", "gate", "--seed", "1", "--trace", "0")
    if done.returncode == 0 or "metrics" in done.stdout:
        problems.append(f"without a source tree: exit status {done.returncode}, stdout {done.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
