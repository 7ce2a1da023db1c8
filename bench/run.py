"""The char3iso benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Runs one workload in this process, one job at a time on one thread. A job
calls char3iso.cli.main(argv) with stdout captured; its time runs from the
call to the return, on a clock that leaves out the host-speed kernel, and
is scaled to the nominal host speed of hostspeed.py. Jobs run in whole
rounds until the run has lasted about S seconds. Every output is checked
with the independent arithmetic of workloads.py and gf.py. With --trace 1
each round runs every job twice, untraced and then traced, and the
per-layer metrics come from the traced runs.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. A summary with the raw (unscaled) times goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 9

sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """char3iso.cli.main from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import char3iso.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import char3iso from {SRC}: {exc}") from None
    if not char3iso.cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"char3iso imported from {char3iso.cli.__file__}, not from {SRC}")
    return char3iso.cli.main


def call(main, argv):
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


class Runner:
    def __init__(self, main, jobs, sampler):
        self.main, self.jobs, self.sampler = main, jobs, sampler
        self.outputs = set()        # distinct (job index, exit code, stdout)
        self.attempted = 0
        self.failed = 0

    def run(self, index, tracer=None):
        """Run job `index` once; (net seconds, scale), or None if it raised."""
        argv, sampler = self.jobs[index].argv, self.sampler
        gc.collect()
        sampler.between_jobs()
        mark = len(sampler.samples)
        sampler.arm()
        start = sampler.clock()
        try:
            if tracer is None:
                rc, text = call(self.main, argv)
            else:
                rc, text = tracer.run_job(lambda: call(self.main, argv))
        except Exception:
            sampler.disarm()
            print(f"job {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        net = sampler.clock() - start
        sampler.disarm()
        scale = sampler.scale_since(mark)
        if tracer is not None:
            tracer.end_job(scale, len(text.encode()))
        self.outputs.add((index, rc, text))
        return net, scale

    def timed(self, index, times, tracer=None):
        self.attempted += 1
        result = self.run(index, tracer)
        if result is None:
            self.failed += 1
        else:
            times.append(result)

    def check_outputs(self):
        correct = True
        for index, rc, text in sorted(self.outputs, key=lambda o: o[:2]):
            try:
                self.jobs[index].check(rc, text)
            except Exception as exc:  # a malformed output fails its check too
                correct = False
                print(f"check failed for {self.jobs[index].argv}: {exc!r}", file=sys.stderr)
        return correct


def setup_seconds(jobs):
    """Median scaled set-up time over SETUP_PROBES fresh interpreters, after
    one discarded probe that may write bytecode caches."""
    picks = [jobs[i * len(jobs) // SETUP_PROBES] for i in range(SETUP_PROBES)]
    values = []
    for job in picks[:1] + picks:
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                              json.dumps(job.argv)],
                             capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        values.append((probe["net_s"], probe["net_s"] * probe["scale"]))
    values = values[1:]
    return (statistics.median(v[1] for v in values), statistics.median(v[0] for v in values))


def measure(workload, seed, seconds, traced):
    main = load_program()
    jobs = workloads.WORKLOADS[workload](seed)
    sampler = hostspeed.Sampler(seed=seed)
    runner = Runner(main, jobs, sampler)
    tracer = tracing.Tracer(sampler.clock) if traced else None
    runner.run(0)  # warm-up, untimed
    plain, traced_times = [], []
    start, rounds = time.perf_counter(), 0
    while True:
        for index in range(len(jobs)):
            runner.timed(index, plain)
            if tracer is not None:
                runner.timed(index, traced_times, tracer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    kernel_in_jobs = statistics.median(sampler.samples)
    kernel_between_jobs = statistics.median(sampler.between)
    sampler.close()
    scaled = [net * scale for net, scale in plain]
    p50 = statistics.median(scaled)
    summary = dict(workload=workload, seed=seed, rounds=rounds, jobs=len(plain),
                   elapsed_s=round(elapsed, 3), kernel_in_jobs_s=kernel_in_jobs,
                   kernel_between_jobs_s=kernel_between_jobs,
                   raw_job_s_p50=statistics.median(net for net, _ in plain),
                   job_s_p50=p50)
    if tracer is None:
        setup_s, raw_setup_s = setup_seconds(jobs)
        summary.update(setup_s=setup_s, raw_setup_s=raw_setup_s)
        metrics = {
            "job_s.p50": (p50, "s"),
            "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_p50 = statistics.median(net * scale for net, scale in traced_times)
        summary.update(traced_job_s_p50=traced_p50, spans=len(tracer.spans))
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in tracer.metrics().items()}
        metrics["trace.job_s.p50"] = (traced_p50, "s")
        metrics["trace.overhead_pct"] = (100 * (traced_p50 / p50 - 1), "%")
        write_spans(workload, seed, tracer.first_job_spans())
    correct = runner.check_outputs()
    summary["distinct_outputs"] = len(runner.outputs)
    print("summary " + json.dumps(summary), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def write_spans(workload, seed, spans):
    """The first traced job's spans, one JSON array per line:
    name, parent line (-1 for the root), start and end in seconds."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as f:
        for name, parent, start, end in spans:
            f.write(json.dumps([name, parent, start - origin, end - origin]) + "\n")


# ---- self-test: a corrupted output must fail its check -------------------------

def _value(text, key):
    return text.split(f"\n{key}=")[1].split("\n")[0]


def _replace_line(text, key, value, occurrence=0):
    lines = text.splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(key + "=")]
    lines[hits[occurrence]] = f"{key}={value}"
    return "\n".join(lines) + "\n"


def _bump_eta(text, occurrence=0):
    """Change the value of the middle listed eta coefficient."""
    lines = text.splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith("eta_coeffs=")]
    pairs = lines[hits[occurrence]][len("eta_coeffs="):].split(" ")
    e, _, v = pairs[len(pairs) // 2].partition(":")
    pairs[len(pairs) // 2] = f"{e}:{'2' if v == '1' else '1'}"
    lines[hits[occurrence]] = "eta_coeffs=" + " ".join(pairs)
    return "\n".join(lines) + "\n"


def _drop_last_solution(text):
    lines = text.splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("solution="))
    count = int(lines[last][len("solution="):])
    return _replace_line("\n".join(lines[:last]) + "\n", "num_solutions", str(count))


CORRUPTIONS = {
    "construct-mul2": [
        ("one eta coefficient changed", lambda t: _bump_eta(t, 1)),
        ("y_factor negated", lambda t: _replace_line(
            t, "y_factor", f"-({_value(t, 'y_factor')})")),
        ("last solution dropped", _drop_last_solution),
    ],
    "construct-nonrational": [
        ("one eta coefficient changed", lambda t: _bump_eta(t, 2)),
        ("rational form claimed", lambda t: _replace_line(t, "rational", "x")),
        ("last solution dropped", _drop_last_solution),
    ],
    "identify-mul2": [
        ("scalar=3", lambda t: _replace_line(t, "scalar", "3")),
        ("points off by one", lambda t: _replace_line(
            t, "points", str(int(_value(t, "points")) - 1))),
    ],
    "sweep-small": [
        ("one eta coefficient changed", lambda t: _bump_eta(t, 0)),
        ("last solution dropped", _drop_last_solution),
        ("psi0 changed", lambda t: _replace_line(
            t, "psi0", "2" if _value(t, "psi0") == "1" else "1")),
    ],
}


def self_test():
    main = load_program()
    ok = True
    for name, corruptions in CORRUPTIONS.items():
        # the last job whose answer has three solutions (for the sweep, a
        # GF(3^5) job near prec 64)
        for job in reversed(workloads.WORKLOADS[name](1)):
            rc, text = call(main, job.argv)
            if "num_solutions=3" in text or "command=identify" in text:
                break
        job.check(rc, text)
        print(f"{name}: output passes its check")
        for label, corrupt in corruptions:
            bad = corrupt(text)
            try:
                job.check(rc, bad)
            except Exception as exc:
                print(f"  caught   {label}: {exc}")
            else:
                ok = False
                print(f"  MISSED   {label}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
