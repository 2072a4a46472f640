"""Benchmark of the triads package: one workload, one seed, one run.

    python3 benchmarks/run.py --workload gate --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (worker.py), because users of the
command line pay the package's lazy caches on every run.  Passes run back
to back, one process at a time: a closed loop with one client.

--trace 0  set-up probes, then plain passes until --seconds have gone by
           (at least three); prints the end-to-end metrics as medians.
--trace 1  one plain pass, one pass under cProfile and two counting
           passes; prints the per-layer metrics.

Every pass's outputs are checked against the benchmark's own references.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
``--write-spec`` writes BENCHMARK.json from spec.py instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_SAMPLES = 3
SETUP_PROBES = 10
PASS_TIMEOUT_S = 170
UNTOUCHED = (
    "No machine setting was touched: no CPU pinning, no cache drop, no cgroup change. "
    "Noise from other tenants of the machine is therefore uncontrolled."
)


class BenchError(RuntimeError):
    """A worker pass that did not complete."""


def spawn(mode: str, workload: str, inputs_path: Path) -> tuple[float, dict]:
    """Run one worker pass; returns (set-up seconds, the pass's result)."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py"), str(ROOT), mode, workload, str(inputs_path)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S} s")
    if ready != "ready\n" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"{mode} pass of {workload} exited with status {proc.returncode}")
    return setup_s, json.loads(rest.splitlines()[-1])


class Checks:
    """Check outcomes across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout_sha256: str | None = None

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def add_pass(self, mode: str, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures += [f"{mode} pass: {name}" for name in result["failed"]]
        if self.stdout_sha256 is None:
            self.stdout_sha256 = result["stdout_sha256"]
        else:
            self.add(f"{mode} pass: stdout byte-identical to the first pass", result["stdout_sha256"] == self.stdout_sha256)


def measure(workload: str, inputs_path: Path, seconds: int, checks: Checks) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics as medians over set-ups and passes."""
    start = time.perf_counter()
    setups = [spawn("setup", workload, inputs_path)[0] for _ in range(SETUP_PROBES)]
    passes = []
    while len(passes) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        setup_s, result = spawn("plain", workload, inputs_path)
        checks.add_pass("plain", result)
        setups.append(setup_s)
        passes.append(result)
    samples = {"setup_s": setups, **{key: [p[key] for p in passes] for key in ("wall_s", "cpu_s", "peak_rss_mib")}}
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def trace(workload: str, inputs_path: Path, checks: Checks) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from cProfile and from the counting pass."""
    _, plain = spawn("plain", workload, inputs_path)
    checks.add_pass("plain", plain)
    _, profiled = spawn("profile", workload, inputs_path)
    checks.add_pass("profile", profiled)
    counts = []
    for _ in range(2):
        _, counted = spawn("count", workload, inputs_path)
        checks.add_pass("count", counted)
        counts.append(counted["counts"])
    checks.add("two counting passes give identical counts", counts[0] == counts[1])
    metrics = {
        **profiled["layers"],
        **counts[0],
        "cli.stdout_bytes": profiled["stdout_bytes"],
        "trace.wall_s": profiled["wall_s"],
        "trace.overhead_ratio": profiled["wall_s"] / plain["wall_s"],
    }
    return metrics, {"plain_wall_s": plain["wall_s"], "counts": counts}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help="tiny is for the smoke test")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "triads" / "__init__.py").is_file():
        print(f"error: no triads source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(workloads.make_inputs(args.workload, args.seed, args.size, workdir)))

    checks = Checks()
    try:
        if args.trace:
            values, detail = trace(args.workload, inputs_path, checks)
            wanted = spec.PER_LAYER
        else:
            values, detail = measure(args.workload, inputs_path, args.seconds, checks)
            wanted = spec.END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in wanted}

    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"profile": 1, "count": 2, "plain": 1} if args.trace else {
            "setup": len(detail["setup_s"]),
            "plain": len(detail["wall_s"]),
        },
        "machine": UNTOUCHED,
    }
    (workdir / "report.json").write_text(json.dumps({"meta": meta, "samples": detail, "metrics": metrics}, indent=1))

    print(f"triads benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("meta " + json.dumps(meta))
    for name, unit, *_ in wanted:
        line = f"{name:40s} {_fmt(values[name]):>12s} {unit}"
        if not args.trace:
            q1, _, q3 = statistics.quantiles(detail[name], n=4)
            line += f"  median (q1 {_fmt(q1)}, q3 {_fmt(q3)}, n={len(detail[name])})"
        print(line)
    failed = len(checks.failures)
    print(f"{'fail_ratio':40s} {failed / checks.attempted:>12.6g}  ({failed}/{checks.attempted} checks failed)")
    for name in checks.failures[:10]:
        print(f"FAILED {name}")
    print(json.dumps({"correct": not failed, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
