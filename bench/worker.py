"""One benchmark process: set up a workload, run operations in a closed loop.

Started by `run.py` with BLAS threads pinned to 1 and `src` on the path,
from the root of a checkout. A single client runs one operation at a time
for about `--seconds`. With `--trace 1` every second operation runs
with the layer tracer installed, so traced and untraced operations share
the process; without it, the set-up is also timed in fresh processes
between operations, and each operation runs under a `speed.SpeedProbe`,
which samples the machine's speed while it runs.
Prints one JSON line: the set-up times, one record per operation, the
operations' simulated vessel-seconds and the peak RSS.
With `--setup-only` it sets up, prints the set-up time and exits.
"""
import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

from speed import SpeedProbe, speed_now

BENCH_OUT = ".bench_out"
# set-up is timed in this many fresh processes, spread over the run
SETUP_SAMPLES = 24
SMOKE_SETUP_SAMPLES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def time_setup(args):
    """Set-up time of a fresh process: this script with `--setup-only`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["speed"]


def run_ops(workload, workdir, args, tracer, setup_times):
    """Closed loop: operations back to back while the next one fits in the time.

    A run takes at least one operation (three when tracing: untraced,
    traced, untraced, so that a traced operation can be paired with the warm
    untraced one after it) and starts no operation that the last one's
    duration says would end after `--seconds`, so a run's length stays
    close to `--seconds`.
    Untraced runs also time the set-up in fresh processes between
    operations, in step with the elapsed time, until `setup_times` holds
    the run's share of samples: the machine's speed drifts over seconds,
    and samples spread over the run see the same drift as the operations.
    Untraced runs sample the machine's speed through every operation, and
    record its own time (`op_s`, without the probe's), the probe's time,
    the mean relative speed and the time scaled to the reference speed.
    """
    probe = None if tracer else SpeedProbe()
    ops = []
    needed = 3 if tracer else 1
    samples = 0 if tracer else SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
    start = perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        out = os.path.join(workdir, "op")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if traced:
            tracer.reset()
            tracer.op = len(ops)
            tracer.install()
        t0 = perf_counter()
        try:
            with probe or contextlib.nullcontext():
                result = workload.run(out)
            run_error = None
        except Exception as exc:  # an operation that raises counts as failed
            run_error = f"{type(exc).__name__}: {exc}"
        op_s = perf_counter() - t0
        if traced:
            tracer.uninstall()
        if run_error:
            errors, prints = [run_error], {}
        else:
            try:
                errors, prints = workload.check(out, result)
            except Exception as exc:  # unreadable or missing output
                errors, prints = [f"check: {type(exc).__name__}: {exc}"], {}
        record = {"op_s": op_s, "traced": traced, "errors": errors, "fingerprints": prints}
        if probe:
            record.update(op_s=probe.own_s, probe_s=probe.probe_s, speed=probe.speed,
                          scaled_s=probe.scaled_s)
        if traced:
            record["layers"] = tracer.layer_metrics()
        ops.append(record)
        done = len(ops) >= needed and (args.smoke
                                        or perf_counter() - start + op_s > args.seconds)
        share = 1.0 if done else min(1.0, (perf_counter() - start) / args.seconds)
        while len(setup_times) < round(samples * share):
            setup_times.append(time_setup(args))
        if done:
            return ops


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_spans(tracer, args):
    """Write the traced spans of this run, times relative to the first span."""
    spans = tracer.spans
    t0 = spans[0][2] if spans else 0.0
    path = os.path.join(BENCH_OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"fields": ["op", "name", "start_s", "end_s", "parent"],
                   "spans": [[op, name, start - t0, end - t0, parent]
                             for op, name, start, end, parent in spans]}, f)
    return path


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    os.makedirs(BENCH_OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_OUT)
    try:
        speed_before = speed_now()
        start = perf_counter()
        import surgeseek
        import surgeseek.cli  # noqa: F401  (the CLI is part of what users load)
        import workloads
        workload = workloads.WORKLOADS[args.workload](
            surgeseek, root, workdir, args.seed, args.smoke)
        setup_s = perf_counter() - start
        speed = (speed_before + speed_now()) / 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "speed": speed}))
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(surgeseek)
        setup_times = [(setup_s, speed)]
        ops = run_ops(workload, workdir, args, tracer, setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import numpy
        result = {
            "setup_s": setup_times,
            "ops": ops,
            "vessel_seconds": workload.vessel_seconds,
            "peak_rss_mb": peak_rss_mb,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "surgeseek": getattr(surgeseek, "__version__", "unknown"),
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
        }
        if tracer:
            result["trace_file"] = write_spans(tracer, args)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
