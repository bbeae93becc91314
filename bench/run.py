"""surgeseek benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload compare --seed 1 --seconds 30 --trace 0

Workloads are `compare`, `sweep` and `audit` (see `workloads.py`). Each run
is a fresh worker process with BLAS threads pinned to 1, one client in a
closed loop and no worker threads. With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1`, the per-layer
metrics, taken from traced operations that alternate with untraced ones.
The machine's speed is sampled while each untraced operation runs, and
`op_s`, `sim_rate` and `setup_s` are scaled to a fixed reference speed
(see `speed.py`); the record line keeps the raw wall times.
`--smoke` runs a tiny horizon and the fewest operations, to check that
every metric is emitted.

Prints a record line (environment, seed, per-operation times, output
fingerprints, failures), every metric by name with its unit, and as the
last line one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. Exits 0 only when every operation passed its checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("compare", "sweep", "audit")
REQUIRED = ("BENCHMARK.json", os.path.join("src", "surgeseek", "__init__.py"),
            os.path.join("scenarios", "benchmark.ini"))
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# counts that must repeat exactly between operations and between runs
EXACT_COUNTS = ("integrator.steps", "integrator.rhs_evals", "costs.value.calls",
                "scenario.write_trajectory_csv.bytes",
                "passivity.passivity_residual.samples")


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny horizon and fewest operations (checks metric names)")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def median(values):
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def check_consistency(ops):
    """Fail operations whose fingerprints or exact counts disagree with the first."""
    good = [op for op in ops if not op["errors"]]
    for op in good[1:]:
        if op["fingerprints"] != good[0]["fingerprints"]:
            op["errors"].append("output fingerprint differs from the first operation's")
    traced = [op for op in good if op["traced"]]
    for op in traced[1:]:
        for key in EXACT_COUNTS:
            if op["layers"][key] != traced[0]["layers"][key]:
                op["errors"].append(f"{key} = {op['layers'][key]}, first traced "
                                    f"operation had {traced[0]['layers'][key]}")


def trace_pairs(ops):
    """(traced, next untraced) operations of a traced run."""
    return list(zip(ops[1::2], ops[2::2]))


def compute_metrics(args, run, setup_times):
    ops = run["ops"]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        metrics = {name: median(op["layers"][name] for op in traced)
                   for name in traced[0]["layers"]}
        # pairing each traced operation with the untraced one right after it
        # cancels most of the machine's drift in speed; the first operation,
        # which runs cold, is in no pair
        metrics["trace.overhead_s"] = statistics.median(
            t["op_s"] - u["op_s"] for t, u in trace_pairs(ops))
        return metrics
    # the machine's speed flips between two levels 1.8x apart; an operation's
    # own time scaled to the reference speed (see speed.py) is steady across runs
    op_s = statistics.median(op["scaled_s"] for op in ops)
    failed = sum(1 for op in ops if op["errors"])
    return {
        "op_s": op_s,
        "sim_rate": run["vessel_seconds"] / op_s,
        # each set-up scaled by the speed measured right before and after it
        "setup_s": statistics.median(s * speed for s, speed in setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_rate": (len(ops) - failed) / len(ops),
    }


def print_baseline(workload, metrics):
    with open(os.path.join(HERE, "reference.json")) as f:
        rows = json.load(f)["roadmap_baseline"]["rows"]
    for name, row in rows.items():
        if metrics[name] and row.get("workload", workload) == workload:
            print(f"baseline {name}: traced median {metrics[name]:.4g}, ROADMAP "
                  f"{row['value']:g} ({row['row']}), ratio {metrics[name] / row['value']:.3f}")


def main(argv=None):
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        run = call_worker(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    setup_times = run["setup_s"]
    ops = run["ops"]
    check_consistency(ops)
    metrics = compute_metrics(args, run, setup_times)
    if set(metrics) != set(units):
        print(f"bench: emitted metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 3

    failed = sum(1 for op in ops if op["errors"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_commit": git_commit(),
        **run["env"],
        "op_s": [round(op["op_s"], 6) for op in ops],
        **({} if args.trace else {
            "scaled_s": [round(op["scaled_s"], 6) for op in ops],
            "speed": [round(op["speed"], 4) for op in ops],
            "probe_s": [round(op["probe_s"], 4) for op in ops]}),
        "traced": [op["traced"] for op in ops],
        "setup_s": [round(s, 6) for s, _ in setup_times],
        "setup_speed": [round(speed, 4) for _, speed in setup_times],
        "fingerprints": next((op["fingerprints"] for op in ops if not op["errors"]), {}),
        "failures": [{"op": i, "errors": op["errors"]} for i, op in enumerate(ops)
                     if op["errors"]],
        "trace_file": run.get("trace_file"),
        "trace_pairs": len(trace_pairs(ops)) if args.trace else None,
    }
    print(json.dumps({"record": record}))
    if args.trace:
        print(f"trace: per-layer medians of {sum(record['traced'])} traced operation(s); "
              f"trace.overhead_s from {record['trace_pairs']} paired with the untraced "
              f"one after it")
        print_baseline(args.workload, metrics)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
