"""Command-line interface for simulation, averaging, comparison, and sweeps."""
import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from . import averaging, passivity, scenario as sc
from .dither import validate_dither
from .integrator import IntegratorSettings, integrate
from .vehicle import dynamics_rhs


def _output_dir(default):
    out = os.environ.get(sc.OUTPUT_DIR_ENV, default)
    if not out:
        raise ValueError(f"{sc.OUTPUT_DIR_ENV}: empty; give a directory or unset it")
    os.makedirs(out, exist_ok=True)
    return out


def _write_meta(path, s, extra):
    meta = {
        "gains": {"k": s.gains.k, "c": s.gains.c, "epsilon": s.gains.epsilon},
        "cost": s.cost.name,
        "horizon": s.horizon,
        "samples_per_period": s.samples_per_period,
        "warnings": s.warnings,
        "declared_constants": sc.DECLARED_CONSTANTS,
    }
    meta.update(extra)
    # strict JSON: a non-finite number fails the write, where json would
    # write Infinity or NaN, which a strict parser rejects
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True, allow_nan=False)


def _print_warnings(warnings):
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


@contextlib.contextmanager
def _renamed(*paths):
    """Temporary names for `paths`, each renamed to its path once the block
    completes: a failure in the block leaves every path as it was. No
    temporary file is left either way."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _runs(args, names, meta, extra=lambda s, *runs: {}):
    """The scenario and the runs `names` ("full", "averaged"), each written
    to `<name>.csv` by one task of `sc.run_forked`, and the meta file
    `meta`, with the keys `extra(s, *runs)` adds. The full run's task is
    `sc.write_full_run`, which on two CPUs writes a long CSV in three
    shares while the run is integrating, the averaged run's
    `sc.run_to_csv` of `sc.run_averaged`; each returns its run's times and
    states only. Before a child is forked, this process builds both runs'
    loops (`sc.build_loops`), so the child does not. The CSVs and the meta
    are renamed into place together, only once every run, every write and
    the meta have succeeded. Returns the scenario, the path of each CSV and
    the added keys."""
    s = sc.load_scenario(args.scenario)
    out = _output_dir(s.output_dir)
    writers = {"full": sc.write_full_run,
               "averaged": partial(sc.run_to_csv, sc.run_averaged)}
    paths = [os.path.join(out, f"{name}.csv") for name in names]

    def exited(i, code):
        raise RuntimeError(f"{names[i]} run worker exited with code {code} "
                           f"before sending its run")

    with _renamed(*paths, os.path.join(out, meta)) as temps:
        tasks = [partial(writers[name], s, temp) for name, temp in zip(names, temps)]
        sc.build_loops(s, tasks)
        runs = sc.run_forked(tasks, exited)
        added = extra(s, *runs)
        _write_meta(temps[-1], s, added)
    return s, paths, added


def cmd_simulate(args):
    s, (path,), _ = _runs(args, ["full"], "full_meta.json")
    _print_warnings(s.warnings)
    print(path)
    return 0


def cmd_average(args):
    s, (path,), _ = _runs(args, ["averaged"], "averaged_meta.json")
    _print_warnings(s.warnings)
    print(path)
    return 0


def cmd_compare(args):
    if args.radius is not None and not 0 < args.radius < math.inf:
        raise ValueError(f"--radius: {args.radius!r} is not a finite positive number")

    def metrics(s, full, averaged):
        found = asdict(sc.compare(full, averaged, s, radius=args.radius))
        if math.isinf(found["convergence_time"]):
            found["convergence_time"] = None  # the radius is never reached
        return {"metrics": found}

    s, _, added = _runs(args, ["full", "averaged"], "compare_meta.json", metrics)
    _print_warnings(s.warnings)
    for key, val in added["metrics"].items():
        print(f"{key}={math.inf if val is None else val:.6g}")
    return 0


def _sweep_values(text):
    """The comma-separated `--values` as floats; a bad item is named."""
    values = []
    for item in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(float(item))
        except ValueError:
            raise ValueError(f"--values: {item!r} is not a number") from None
    if not values:
        raise ValueError("--values: no sweep values given")
    return values


def cmd_sweep(args):
    values = _sweep_values(args.values)
    s = sc.load_scenario(args.scenario)
    out = _output_dir(s.output_dir)
    rows = sc.sweep(s, args.axis, values)
    path = os.path.join(out, f"sweep_{args.axis}.csv")
    with _renamed(path) as (temp,):
        sc.write_metrics_csv(rows, temp)
    warnings = {}  # each distinct warning once, in the order of the values
    for value in values:
        # a value that fails its scenario fails its row instead
        with contextlib.suppress(Exception):
            warnings.update(dict.fromkeys(sc._with_value(s, args.axis, value).warnings))
    _print_warnings(warnings)
    print(path)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


_SIGNALS = {
    "cos": math.cos,
    "sin": math.sin,
    "const": lambda _t: 1.0,
}


def cmd_validate_dither(args):
    w = _SIGNALS[args.signal]
    check = validate_dither(w, args.period, tol=args.tol)
    status = "pass" if check.passed else "fail"
    print(f"{status} mean_residual={check.mean_residual:.3e} "
          f"iterated_residual={check.iterated_residual:.3e} tol={check.tol:g}")
    return 0 if check.passed else 1


def cmd_passivity(args):
    s = sc.load_scenario(args.scenario)
    c = args.c if args.c is not None else s.gains.c
    bound = passivity.c_hat_bound(s.vehicle)
    mono = passivity.monotonicity_check(s.vehicle, c)
    # short trajectory under seeded random inputs to audit the storage inequality
    rng = np.random.default_rng(0)
    us = rng.uniform(-2.0, 2.0, size=(100, 2)) + np.array([0.0, c])

    def rhs(t, y):
        u = us[min(int(t / 0.01), len(us) - 1)]
        return dynamics_rhs(s.vehicle, y, u)

    traj = integrate(rhs, s.initial, IntegratorSettings(step=0.01, tf=1.0))
    traj.inputs = np.vstack([us, us[-1:]])
    residual = passivity.passivity_residual(traj, s.vehicle, c)
    print(f"c_hat={bound:.6g} c={c:g} monotone={mono} "
          f"storage_residual={residual:.3e}")
    return 0


def cmd_demo_di(args):
    def h(z):
        return (z - 1.0) ** 2 + 1.0

    path = os.path.join(_output_dir("."), "demo_di.csv")
    report = averaging.double_integrator_demo(
        h, alpha=args.alpha, omega_freq=args.omega, horizon=args.horizon,
        minimizer=1.0, h_prime=lambda z: 2.0 * (z - 1.0))
    with _renamed(path) as (temp,):
        sc.write_columns(temp, "t,xi1,xi2", [report.full.t, report.full.states])
    print(f"sup_gap={report.sup_gap:.6g} "
          f"final_error_full={report.final_error_full:.6g} "
          f"final_error_averaged={report.final_error_averaged:.6g}")
    print(path)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="surgeseek",
        description="Surge-force extremum-seeking simulation toolkit "
                    "for planar underactuated vehicles")
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (("simulate", cmd_simulate), ("average", cmd_average),
                     ("compare", cmd_compare)):
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario configuration file")
        if name == "compare":
            sp.add_argument("--radius", type=float, default=None,
                            help="convergence radius for the timing metric")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("sweep")
    sp.add_argument("scenario")
    sp.add_argument("--axis", required=True, choices=sc.SWEEP_AXES)
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate-dither")
    sp.add_argument("--signal", required=True, choices=sorted(_SIGNALS))
    sp.add_argument("--period", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_validate_dither)

    sp = sub.add_parser("passivity")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--c", type=float, default=None)
    sp.set_defaults(func=cmd_passivity)

    sp = sub.add_parser("demo-di")
    sp.add_argument("--omega", type=float, default=20.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--horizon", type=float, default=50.0)
    sp.set_defaults(func=cmd_demo_di)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}".replace("\n", " "),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
