#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]

Runs every workload twice with one seed, untraced and traced, and checks
that the figures which count work rather than time come out identical:
the reference-sample costs (alloc_kw_per_job, label_bits_mean,
bundle_bits_mean), and the traced replay's sample size, store hit and
filter ratios, flush count, delta miss share and the other per-layer
counts and minor-word figures. Timings are not compared. Exits 1 on any
difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fresh_pw2", "warm_pw2", "daemon_zipf", "delta_pw"]
EXACT_E2E = ["alloc_kw_per_job", "label_bits_mean", "bundle_bits_mean"]


def exact_layer(name, unit):
    """Per-layer figures that count work: everything but times."""
    return unit != "ms" and name != "trace.overhead_ratio"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} trace={trace}: run failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            a = run(w, args.seed, args.seconds, trace)
            b = run(w, args.seed, args.seconds, trace)
            names = EXACT_E2E if trace == 0 else [
                n for n, m in a.items() if exact_layer(n, m["unit"])]
            for n in names:
                same = n in b and a[n]["value"] == b[n]["value"]
                bad += not same
                print(f"{'ok  ' if same else 'DIFF'} {w:12s} {n:26s} "
                      f"{a[n]['value']!r} {b.get(n, {}).get('value')!r}")
    print("identical" if bad == 0 else f"{bad} figure(s) differ")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
