#!/usr/bin/env python3
"""Builds and runs the GenClus system benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-weather --seed 1 --trace 0

Builds the libraries and the harness from source into .bench_build/
(Release, no sanitizers, no failpoints), generates the seed's inputs once
per checkout (not timed), runs the workload and prints, as the last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end metrics; with --trace 1 its per_layer metrics, and the span
trace is written to .bench_build/traces/. Exits non-zero, without a result
line, when the checkout holds no GenClus sources or a step fails; exits
non-zero after the result line when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Inputs of this many seeds stay cached in the build directory.
CACHED_SEEDS = 24
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")


def source_digest():
    """SHA-256 over the library sources and build files (the checkout is
    not necessarily a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "cmake"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1][:12]


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", "-DGENCLUS_SANITIZE=OFF",
                     "-DGENCLUS_FAILPOINTS=OFF", "-DGENCLUS_WERROR=OFF"],
                    timeout=300, stdout=sys.stderr, check=False)
    jobs = str(os.cpu_count() or 1)
    result = run_checked(["cmake", "--build", str(build_dir), "-j", jobs,
                          "--target", "genclus_perfbench"],
                         timeout=840, stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("build failed")
    return build_dir / "genclus_perfbench"


def inputs(binary, data_root, workload, seed, kind):
    data_dir = data_root / f"{kind}-{seed}"
    if not (data_dir / "done").exists():
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        result = run_checked([str(binary), "gen", "--workload", workload,
                              "--seed", str(seed), "--dir", str(data_dir)],
                             timeout=RUN_TIMEOUT_S, check=False)
        if result.returncode != 0:
            shutil.rmtree(data_dir, ignore_errors=True)
            fail("input generation failed")
        (data_dir / "done").touch()
    # Keep the most recently used inputs only.
    data_dir.touch()
    cached = sorted((p for p in data_root.iterdir() if p.is_dir()),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in cached[CACHED_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return data_dir


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "engine.h").is_file():
        fail(f"no GenClus sources at {ROOT}")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = ROOT / ".bench_build"
    binary = build(build_root / "perfbench")
    kind = "acp" if args.workload == "fit-acp" else "weather"
    data_dir = inputs(binary, build_root / "data", args.workload, args.seed,
                      kind)
    print(f"# source {source_digest()} commit {git_commit()}", flush=True)

    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(data_dir)]
    if args.trace:
        trace_dir = build_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(trace_dir / f"{args.workload}-{args.seed}.json")]
    result = run_checked(cmd, timeout=RUN_TIMEOUT_S, capture_output=True,
                         text=True, check=False)
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited {result.returncode} without a result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for metric in wanted:
        value = raw["metrics"].get(metric["name"])
        if value is None or value["unit"] != metric["unit"]:
            missing.append(metric["name"])
        else:
            metrics[metric["name"]] = value
    for name in missing:
        print(f"perfbench: metric {name} missing or in another unit",
              file=sys.stderr)
    correct = raw["correct"] and not missing and result.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"] + len(missing),
                      "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
