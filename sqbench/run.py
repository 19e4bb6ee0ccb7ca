#!/usr/bin/env python3
"""Builds and runs the Squirrel benchmark.

    python3 sqbench/run.py --workload register|boot|degraded --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources under src/ together with the driver in sqbench/ (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR/sqbench, default
.bench_build/sqbench; later runs rebuild only what changed.

An untraced run (--trace 0) is one driver process that reports raw samples;
this script turns them into the end-to-end metrics. A trace run (--trace 1)
prints the per-layer metrics and writes a Chrome trace (open it in Perfetto)
next to the build.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is nonzero when a correctness check failed, when the build
failed, or when the library sources are missing.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
# Sample counts the reported percentiles need (ten samples beyond each).
MIN_REGISTER_SAMPLES = 100
MIN_BOOT_SAMPLES = 200


def fail(message, code):
    print(f"sqbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(command, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (a build's compiler children too) is killed and reaped."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def source_id():
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix not in (".h", ".cpp", ".txt", ".py"):
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
        cache.unlink()  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(build_dir / "build.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}", 3)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}", 3)
    binary = build_dir / "sqbench"
    if not binary.exists():
        fail("build produced no sqbench binary", 3)
    return binary


def percentile(values, p):
    """Nearest-rank percentile, as the driver binary computes it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def end_to_end(result):
    """End-to-end metrics from a run's raw samples; None if a sample count
    is too small."""
    samples = result["samples"]
    scalars = result["scalars"]
    if len(samples["register_ms"]) < MIN_REGISTER_SAMPLES or \
            len(samples["boot_ms"]) < MIN_BOOT_SAMPLES:
        print("sqbench: too few samples for the reported percentiles",
              file=sys.stderr)
        return None
    attempted = result["attempted"]
    failed = result["failed"]
    register_s = sum(samples["register_ms"]) / 1000.0
    values = {
        "register_mb_s": (sum(samples["register_bytes"]) / 1e6 / register_s,
                          "MB/s"),
        "register_ms_p50": (percentile(samples["register_ms"], 50), "ms"),
        "register_ms_p90": (percentile(samples["register_ms"], 90), "ms"),
        "restore_mb_s": (percentile(samples["restore_mb_s"], 50), "MB/s"),
        "boot_ms_p50": (percentile(samples["boot_ms"], 50), "ms"),
        "boot_ms_p95": (percentile(samples["boot_ms"], 95), "ms"),
        "setup_s": (percentile(samples["setup_s"], 50), "s"),
        "boot_sim_s_p50": (percentile(samples["boot_sim_s"], 50), "sim_s"),
        "boot_sim_s_p95": (percentile(samples["boot_sim_s"], 95), "sim_s"),
        "register_sim_s_p50": (percentile(samples["register_sim_s"], 50),
                               "sim_s"),
        "disk_per_raw": (scalars["disk_per_raw"], "ratio"),
        "ddt_core_kib_per_image": (scalars["ddt_core_kib_per_image"], "KiB"),
        "wire_kib_per_image": (scalars["wire_kib_per_image"], "KiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def run_binary(command, timeout):
    """Runs one driver process; returns (exit code, parsed last line)."""
    try:
        code, out = run_group(command, timeout, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = out.splitlines()
    if not lines:
        fail(f"no output (exit code {code})", 5)
    for line in lines[:-1]:
        print(line)
    try:
        return code, json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("last output line is not a JSON result", 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=["register", "boot", "degraded"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)
    if args.seconds < 1:
        fail("--seconds must be >= 1", 2)

    if not (ROOT / "src" / "core" / "squirrel.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "sqbench"
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", args.trace,
               "--source-id", source_id()]
    started = time.monotonic()
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        code, result = run_binary(
            command + ["--seconds", str(args.seconds), "--trace-out",
                       str(traces / f"{args.workload}-seed{args.seed}.json")],
            RUN_TIMEOUT_S)
        correct = result.get("correct") is True and "metrics" in result
    else:
        code, raw = run_binary(command + ["--seconds", str(args.seconds)],
                               RUN_TIMEOUT_S)
        metrics = end_to_end(raw)
        correct = code == 0 and metrics is not None and \
            raw["correct"] is True
        result = {
            "correct": correct,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": metrics or {},
        }
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys", 5)
    result["correct"] = correct
    print(f"wall: {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result), flush=True)
    if not correct:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
