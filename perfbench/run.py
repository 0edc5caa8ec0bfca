#!/usr/bin/env python3
"""End-to-end benchmark of the deployed TriggerMan path (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload select_hot --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --replay-modes --seed 1

Builds perfbench/ (which builds the library from src/) into the directory
named by $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints host context plus, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
`--workload all` runs every workload of BENCHMARK.json in turn and prints
the two lines of each. Full results and span files go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-cmake")


def build():
    """Configures and builds tman_e2e; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no TriggerMan sources under", os.path.join(ROOT, "src"))
        return None
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "tman_e2e",
                  "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr)
        if rc != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    exe = os.path.join(bdir, "tman_e2e")
    return exe if os.access(exe, os.X_OK) else None


def source_digest():
    """sha256 over the files the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(exe, argv):
    """Runs tman_e2e; returns its stdout lines, or None on failure."""
    try:
        proc = subprocess.run([exe] + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: tman_e2e timed out")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("run.py: tman_e2e exited with", proc.returncode)
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay-modes", action="store_true",
                    help="replay join_window's input through one driver in "
                         "every staging mode and print the firing mismatch")
    args = ap.parse_args()
    if not args.replay_modes and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.replay_modes:
        lines = run_binary(exe, ["--replay-modes", "--seed", str(args.seed)])
        if lines is None:
            return 1
        for line in lines:
            print(line)
        return 0

    if args.workload != "all":
        return run_one(exe, args.workload, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    return max(run_one(exe, w, args) for w in workloads)


def run_one(exe, workload, args):
    """Runs one workload and prints its context and result lines."""
    try:
        names = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log("run.py: cannot read BENCHMARK.json:", e)
        return 1

    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    started = time.time()
    lines = run_binary(exe, [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", OUT_DIR])
    load_after = os.getloadavg()
    if not lines:
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("run.py: tman_e2e printed no result")
        return 1

    metrics = result.get("metrics", {})
    missing = [n for n in names if n not in metrics]
    if missing:
        log("run.py: metrics missing from the run:", ", ".join(missing))
        return 1
    detail = result.get("detail", {})
    context = {
        "nproc": nproc,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_before": [round(x, 2) for x in load_before],
        "load_after": [round(x, 2) for x in load_after],
        "overloaded_at_start": load_before[0] > nproc,
        "build_type": detail.get("build_type"),
        "compiler": detail.get("compiler"),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "wall_s": round(time.time() - started, 3),
    }
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }
    record = dict(final, context=context, detail=detail)
    name = "result-%s-seed%d-trace%d.json" % (workload, args.seed,
                                               args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    if context["overloaded_at_start"]:
        log("run.py: warning: load average %.2f above nproc %d at start"
            % (load_before[0], nproc))
    print(json.dumps({"context": context, "detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
