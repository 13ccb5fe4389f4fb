#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds e2e_driver from source into
$CARGO_TARGET_DIR (default .bench_build), runs one workload with an
explicit thread budget, and prints a human-readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exits non-zero without a result line when
the build, the run, the exact-count check or a metric rule fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
SHARDS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """Absolute build directory ($CARGO_TARGET_DIR is relative to ROOT)."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(jobs):
    """Configure once, then bring e2e_driver up to date (a no-op when
    nothing changed)."""
    bdir = build_dir()
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "e2e_driver",
                    "-j", str(jobs)], cwd=ROOT, check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "e2e_driver")


def host_record():
    cpus = os.sched_getaffinity(0)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(cpus), "cpus": sorted(cpus), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def thread_budget(workload, cpus):
    """Pool threads + client dispatch threads + server workers <= nproc.

    PPM_THREADS=1 is the serial pool (no worker threads); N >= 2 spawns
    N workers. The paper loop and refit run in the caller and the pool,
    so the pool gets nproc - 1 workers (plus the caller = nproc).

    The serve workloads run a serial pool, one worker per shard and
    one dispatch thread per shard (when nproc >= 2 x shards; else the
    caller sends the chunks itself), and all of them are pinned to one
    CPU. Every hand-off between client and shard is then a same-CPU
    context switch. Cross-CPU wake-ups cost a varying amount on a
    shared VM: with one CPU per shard and one for the client, predict's
    p99 spread 69% and points_per_s 33% over five seeds. The serve
    figures are therefore single-core figures: the shards' chunks never
    run in parallel, and cross-CPU hand-off is not in them. The thread
    count stays within the host's nproc, but on the one CPU up to four
    threads are runnable at once while a multi-chunk batch is served.
    """
    nproc = len(cpus)
    if workload in ("paper_loop", "refit"):
        workers = nproc - 1 if nproc >= 3 else 0
        return {"pool": workers, "dispatch": 0, "server": 0,
                "cpus": sorted(cpus), "PPM_THREADS": max(1, workers),
                "max_connections": 1}
    dispatch = SHARDS if nproc >= 2 * SHARDS else 1
    return {"pool": 0, "dispatch": dispatch, "server": SHARDS,
            "cpus": [max(cpus)], "PPM_THREADS": 1,
            "max_connections": dispatch}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="self-test: corrupt the reply of this op")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("run.py: unknown workload %r" % args.workload)
        return 2

    host = host_record()
    try:
        driver = build(host["nproc"])
    except (subprocess.CalledProcessError, OSError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    budget = thread_budget(args.workload, host["cpus"])
    # Relative to the driver's working directory (ROOT): Unix socket
    # paths inside it must stay under the 108-byte sun_path limit.
    run_dir = os.path.relpath(
        os.path.join(build_dir(), "run-%d" % os.getpid()), ROOT)
    env = dict(os.environ, PPM_THREADS=str(budget["PPM_THREADS"]))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--max-connections", str(budget["max_connections"]),
           "--corrupt-op", str(args.corrupt_op)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, budget["cpus"]))
    except subprocess.TimeoutExpired:
        log("run.py: e2e_driver timed out")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if proc.returncode != 0:
        log("run.py: e2e_driver exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = metrics.counts(raw)
    print("# host: " + json.dumps(host))
    print("# threads: " + json.dumps(
        {k: budget[k] for k in ("pool", "dispatch", "server", "cpus")}))
    print("# exact: " + json.dumps(raw["exact"], sort_keys=True))
    try:
        if args.trace:
            spec = bench["per_layer"]
            values = dict(raw["layers"])
            values["run.failed_frac"] = failed / attempted
            values["host.nproc"] = host["nproc"]
            values["host.load1"] = host["loadavg"][0]
            notes = {}
        else:
            spec = bench["end_to_end"]
            values, notes = metrics.end_to_end(raw)
    except ValueError as e:
        log("run.py: %s" % e)
        return 1

    out = {}
    for m in spec:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"])
        print("# %-24s %14.6g %-6s%s" % (m["name"], values[m["name"]],
                                        m["unit"],
                                        "  (%s)" % note if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
