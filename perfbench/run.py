#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of fresh_pw2, warm_pw2, daemon_zipf, delta_pw (see
perfbench/README.md). The script builds the benchmark executable and the
certd_server daemon from source with dune, runs one workload, and passes
its report through. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when the run completed and every correctness check passed. A failed
check prints the result with "correct": false and exits 1; so does a
result whose metrics are not exactly those BENCHMARK.json lists for the
mode, in its units. A build failure, a timeout or a process left behind
exits 1 without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fresh_pw2", "warm_pw2", "daemon_zipf", "delta_pw"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "certd_server.exe")
# one run, set-up and checks included, must end well inside 180 s
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/certd_server.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build failed (dune exit {proc.returncode})")


def manifest_units(trace):
    """Name -> unit of every metric BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def reap_group(pgid):
    """Kill whatever is left of the run's process group; True if anything was."""
    if not group_alive(pgid):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.time() + 5
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build()
    cmd = [os.path.join(ROOT, BENCH), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server", os.path.join(ROOT, SERVER)]
    # The run, daemon included, is confined to one CPU. On a 2-vCPU
    # virtual machine the wakeups between client, server and worker
    # across CPUs made daemon_zipf swing between 370 and 770 jobs/s from
    # run to run; on one CPU it read 950 to 1120.
    cpu = max(os.sched_getaffinity(0))
    # a session of its own, so every process the run starts can be
    # found, and stopped, through its process group
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if reap_group(proc.pid):
        fail("a process of the run outlived it")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail(f"no result line (benchmark exit {proc.returncode})")
    sys.stdout.write(out)
    want = manifest_units(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"unit differs {sorted(n for n in want if n in got and got[n] != want[n])}")
    if proc.returncode != 0 or not result["correct"]:
        fail(f"correctness checks failed (benchmark exit {proc.returncode})")


if __name__ == "__main__":
    main()
