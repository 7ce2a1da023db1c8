"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds 20] [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric its median over the runs and the distance between the first and
third quartile as a share of the median; for the raw (unscaled) and the
scaled job_s.p50 as well, which shows how much spread the host-speed
scaling removes, and for the median kernel time inside and between jobs.
Exits non-zero if a run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    rows = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        summary = [line for line in out.stderr.splitlines() if line.startswith("summary ")]
        if out.returncode != 0 or not summary:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        summary = json.loads(summary[-1][len("summary "):])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
            return 1
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["raw job_s.p50"] = summary["raw_job_s_p50"]
        values["kernel in jobs"] = summary["kernel_in_jobs_s"]
        values["kernel between jobs"] = summary["kernel_between_jobs_s"]
        if "raw_setup_s" in summary:
            values["raw setup_s"] = summary["raw_setup_s"]
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{name}={value:.6g}" for name, value in values.items()), flush=True)
        for name, value in values.items():
            rows.setdefault(name, []).append(value)
    print(f"{args.workload}: {last - first + 1} runs of {args.seconds} s")
    for name, values in rows.items():
        median, iqr = spread(values)
        print(f"  {name:28s} median {median:12.6g}   IQR/median {100 * iqr:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
