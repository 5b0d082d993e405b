#!/usr/bin/env python3
"""The repository benchmark: builds the simulator, runs one workload, checks
its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload batch-net1 --seed 1 --seconds 10 --trace 0

Run from the repository root. Build trees, the benchmark's private model
cache and run outputs go to $CARGO_TARGET_DIR (default .bench_build). The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
The exit code is 0 only when every output was correct.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-net1", "serve-net2-open", "serve-net1-ckpt")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout, env=None):
    """Runs cmd with output appended to log; fails with the log's tail."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        try:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{cmd[0]} failed ({rc}); full log in {log}")


def build(build_dir):
    """Builds the repository's libraries, then the driver package."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    log = build_dir / "build.log"
    libs = build_dir / "sei"
    if not (libs / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", libs,
                    "-DCMAKE_BUILD_TYPE=Release", "-DSEI_BUILD_TESTS=OFF",
                    "-DSEI_BUILD_BENCH=OFF", "-DSEI_BUILD_EXAMPLES=OFF"],
                   log, 300)
    run_logged(["cmake", "--build", libs, "-j", jobs], log, 900)
    drv = build_dir / "driver"
    if not (drv / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", HERE, "-B", drv, f"-DSEI_BUILD_DIR={libs}"],
                   log, 300)
    run_logged(["cmake", "--build", drv, "-j", jobs], log, 300)
    return drv / "perfbench_driver"


def prepare(driver, build_dir, env):
    """Trains network1/network2 into the private cache once and checks that
    the cached quantized models are the expected ones."""
    run_logged([driver, "prepare"], build_dir / "prepare.log", 900, env)
    cache = Path(env["SEI_CACHE_DIR"])
    for line in (HERE / "models.sha256").read_text().splitlines():
        want, name = line.split()
        got = hashlib.sha256((cache / name).read_bytes()).hexdigest()
        if got != want:
            fail(f"{cache / name} has sha256 {got}, expected {want}: the "
                 "trained model changed, so sim.error_pct would move; "
                 "update models.sha256 only in a change that means to")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    driver = build(build_dir)
    env = dict(os.environ, SEI_CACHE_DIR=str(build_dir / "cache"))
    prepare(driver, build_dir, env)

    work = build_dir / "run"
    work.mkdir(exist_ok=True)
    out = work / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.unlink(missing_ok=True)
    sys.stdout.flush()
    try:
        rc = subprocess.run(
            [driver, "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work), "--out", str(out)],
            env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if not out.is_file():
        fail(f"driver exited with {rc} and wrote no report")
    result = json.loads(out.read_text())

    correct = rc == 0 and result["correct"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} [{m['unit']}] not measured "
                  f"as specified (got {got})", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
