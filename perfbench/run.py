#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload <paper_repro|hint_select|trace_replay>
        [--seed 2000] [--seconds 20] [--trace 0|1]

Builds the `sdbp-perfbench` worker (perfbench/Cargo.toml) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it once per iteration,
each iteration in its own process, for `--seconds` seconds (at least two
iterations), after timing set-up in processes that only set up. Prints a metadata line (host fingerprint, run settings, result
checks) and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1` (one untraced and one
traced iteration). Exits nonzero when a result check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = "sdbp-perfbench"
# Seconds any single worker process may take before the run is abandoned.
WORKER_TIMEOUT = 170
# No new iteration starts once this much of the run has passed, so a run
# ends well inside the 180-second limit even on a slow host.
LAST_START = 120
# Every run makes at least this many iterations: one paper_repro
# iteration takes longer than a whole run of the others, and a median of
# two halves the weight of a single slow iteration on a shared host.
MIN_ITERATIONS = 2
# Set-up time is measured in processes of their own that only set up (each
# repeats set-up, see the worker's --setup-only): at least SETUP_PROCESSES
# of them, and more until SETUP_SECONDS have passed. setup_s is the median
# of their medians. The median of a set-up that takes a fraction of a
# millisecond differs by up to 40% from one process to the next (heap
# layout), so a few processes are not enough.
SETUP_PROCESSES = 5
SETUP_SECONDS = 3
# Files whose contents decide the results: a recorded results digest holds
# only for the sources it was recorded from.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src", "perfbench/reference")
# The library reads these and changes the measured program when they are
# set; every worker runs with exactly these values (threads added below).
PINNED_ENV = {"SDBP_SCALE": "1", "SDBP_TRACE_CACHE": "128000000"}
UNSET_ENV = ("SDBP_STORE", "SDBP_RESUME")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        fail("building the benchmark failed")


def run_worker(binary, args, env, log):
    """Runs one iteration; returns its JSON result."""
    with open(log, "w") as err:
        done = subprocess.run([binary, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=err,
                              text=True, timeout=WORKER_TIMEOUT)
    if done.returncode != 0:
        with open(log) as err:
            tail = err.read()[-2000:]
        fail(f"worker exited with {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_digest():
    """A digest of the files under SOURCES: what a commit's results rest on."""
    h = hashlib.sha256()
    for top in SOURCES:
        top = os.path.join(ROOT, top)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def check_digest(workload, seed, digest, problems):
    """Two runs of the same sources at one seed must produce the same
    results. Digests are kept per source digest, so a commit that changes
    results starts a record of its own."""
    folder = os.path.join(ROOT, ".perfbench", "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-{seed}-{source_digest()}")
    if os.path.exists(path):
        with open(path) as f:
            recorded = f.read().strip()
        if recorded != digest:
            problems.append(f"results digest {digest} differs from {recorded} "
                            f"recorded by an earlier run at seed {seed}")
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2000)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    for needed in ("Cargo.toml", "crates", "results_full.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a checkout of the repository")

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    overridden = sorted(k for k in [*PINNED_ENV, *UNSET_ENV, "SDBP_THREADS"] if k in env)
    for key in UNSET_ENV:
        env.pop(key, None)
    env.update(PINNED_ENV)
    env["SDBP_THREADS"] = str(threads)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build(env)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", WORKER)

    tmp = os.path.join(ROOT, ".perfbench", "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    log = os.path.join(tmp, "worker.log")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--threads", str(threads), "--tmp", tmp]
    results = []
    try:
        if args.trace:
            results.append(run_worker(binary, base, env, log))
            results.append(run_worker(binary, [*base, "--traced"], env, log))
        else:
            setup_only = [*base, "--setup-only"]
            setup_medians = []
            started = time.monotonic()
            while len(setup_medians) < SETUP_PROCESSES or (
                    time.monotonic() - started < SETUP_SECONDS):
                setup_medians.append(statistics.median(
                    run_worker(binary, setup_only, env, log)["setup_s"]))
            started = time.monotonic()
            while len(results) < MIN_ITERATIONS or (
                    time.monotonic() - started < min(args.seconds, LAST_START)):
                results.append(run_worker(binary, base, env, log))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [m for r in results for m in r["mismatches"]]
    for kind in {r["digest_of"] for r in results}:
        digests = {r["digest"] for r in results if r["digest_of"] == kind}
        if len(digests) != 1:
            problems.append(f"iterations disagree on the {kind} digest: {sorted(digests)}")
    digest = results[0]["digest"]
    effective_seed = results[0]["seed"]
    if not results[0]["reference_checked"]:
        check_digest(args.workload, effective_seed, digest, problems)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    untraced = [r for r in results if not r["traced"]]
    if args.trace:
        traced = results[1]
        # Counts that stage order cannot change must agree exactly.
        for name, value in untraced[0]["counts"].items():
            if name in traced["counts"] and traced["counts"][name] != value:
                problems.append(f"count {name}: untraced {value}, traced {traced['counts'][name]}")
        plain = untraced[0]
        values = dict(traced["layers"])
        values["core.sweep_busy_ratio"] = plain["cpu_s"] / (plain["wall_s"] * plain["threads"])
        values["trace.overhead_ratio"] = values["bench.spans_s"] / plain["cpu_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup_medians),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "sim_mbrs": statistics.median(r["work_branches"] / r["wall_s"] / 1e6
                                          for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload,
        "requested_seed": args.seed,
        "seed": effective_seed,
        "traced_run": bool(args.trace),
        "iterations": len(results),
        "threads": threads,
        "workload_threads": results[0]["threads"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_profile": "release (lto = thin), cargo --offline",
        "env": {**PINNED_ENV, "SDBP_THREADS": str(threads)},
        "env_overridden": overridden,
        "digest": digest,
        "reference_checked": results[0]["reference_checked"],
        "result_mismatches": len(problems),
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:10],
        "setup_s_process_medians": [] if args.trace else setup_medians,
        "wall_s_samples": [r["wall_s"] for r in untraced],
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in results],
    }
    print(json.dumps({"meta": meta}))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
