"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload is built from the seed alone and hands the program only the
generated scenario INI or arrays. `run(out)` is the timed operation; it
writes any files into the directory `out`. `check(out, result)` returns the
list of failed checks and the sha256 fingerprints of what the operation
produced.

- compare: CLI `compare` on the reference scenario, the path users run
  most. One vessel at a time; the averaged run and the two trajectory CSVs
  are each a large share of it. The seed moves only the rest start
  (position and heading); seed 0 reproduces the reference file exactly.
- sweep: CLI `sweep --axis k` over seeded gains in [0.5, 1.5]. All runs
  share one time grid, and only the small metrics CSV is written.
- audit: shifted-passivity audit over seeded random-input trajectories,
  then the generic averaged RHS against the closed-form self product at
  every audited state. The only path through `vehicle`, `passivity` and the
  generic averaging code; no `scenario` work.
"""
import configparser
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

DEFAULT_SEED = 0
REFERENCE_SCENARIO = os.path.join("scenarios", "benchmark.ini")
REFERENCE_VALUES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "reference.json")
SMOKE_HORIZON = 2.0

FINAL_ERROR_LIMIT = 0.5      # declared eps=0.1 convergence threshold
SWEEP_VALUES = 3
AUDIT_TRAJECTORIES = 20
AUDIT_HORIZON = 10.0
AUDIT_STEP = 0.01
STORAGE_RESIDUAL_LIMIT = 1e-9
FORCING_MISMATCH_LIMIT = 1e-6    # relative, as acceptance claim 6


def write_scenario(root, path, initial=None, horizon=None):
    """Copy the reference scenario to `path`, overriding start and horizon."""
    source = os.path.join(root, REFERENCE_SCENARIO)
    if initial is None and horizon is None:
        shutil.copyfile(source, path)
        return
    cp = configparser.ConfigParser()
    cp.read(source)
    for key, value in (initial or {}).items():
        cp["initial"][key] = repr(value)
    if horizon is not None:
        cp["run"]["horizon"] = repr(horizon)
    with open(path, "w") as f:
        cp.write(f)


def run_cli(pkg, argv, out):
    """Call the CLI in-process with its outputs directed to `out`."""
    os.environ[pkg.scenario.OUTPUT_DIR_ENV] = out
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = pkg.cli.main(argv)
    return code, err.getvalue().strip()


def csv_fingerprints(out):
    prints = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as f:
                prints[name] = hashlib.sha256(f.read()).hexdigest()
    return prints


def cli_errors(result):
    code, stderr = result
    return [] if code == 0 else [f"exit code {code}: {stderr}"]


class Compare:
    def __init__(self, pkg, root, workdir, seed, smoke):
        self.pkg, self.smoke = pkg, smoke
        self.ini = os.path.join(workdir, "scenario.ini")
        initial = None
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            initial = {"x": rng.uniform(-1.0, 1.0), "y": rng.uniform(-1.0, 1.0),
                       "theta": rng.uniform(-math.pi, math.pi)}
        write_scenario(root, self.ini, initial, SMOKE_HORIZON if smoke else None)
        scenario = pkg.scenario.load_scenario(self.ini)
        self.vessel_seconds = 2 * scenario.horizon     # full and averaged runs
        self.reference = None
        if seed == DEFAULT_SEED and not smoke:
            with open(REFERENCE_VALUES) as f:
                self.reference = json.load(f)["compare_default_seed"]

    def run(self, out):
        return run_cli(self.pkg, ["compare", self.ini], out)

    def check(self, out, result):
        errors = cli_errors(result)
        if errors:
            return errors, {}
        with open(os.path.join(out, "compare_meta.json")) as f:
            metrics = json.load(f)["metrics"]
        must_be_finite = ["final_error", "path_length", "sup_deviation"]
        if not self.smoke:
            must_be_finite.append("convergence_time")
            if not metrics["final_error"] < FINAL_ERROR_LIMIT:
                errors.append(f"final_error {metrics['final_error']} >= {FINAL_ERROR_LIMIT}")
        errors += [f"{key} = {metrics[key]} is not finite"
                   for key in must_be_finite if not math.isfinite(metrics[key])]
        if self.reference is not None:
            tol = self.reference["rel_tol"]
            for key, want in self.reference["metrics"].items():
                if not abs(metrics[key] - want) <= tol * abs(want):
                    errors.append(f"{key} = {metrics[key]!r}, reference {want!r} "
                                  f"(rel tol {tol})")
        prints = csv_fingerprints(out)
        if sorted(prints) != ["averaged.csv", "full.csv"]:
            errors.append(f"expected full.csv and averaged.csv, found {sorted(prints)}")
        return errors, prints


class Sweep:
    def __init__(self, pkg, root, workdir, seed, smoke):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        self.values = [float(v) for v in rng.uniform(0.5, 1.5, 2 if smoke else SWEEP_VALUES)]
        self.ini = os.path.join(workdir, "scenario.ini")
        write_scenario(root, self.ini, horizon=SMOKE_HORIZON if smoke else None)
        scenario = pkg.scenario.load_scenario(self.ini)
        # every k is distinct, so each value runs a full and an averaged loop
        self.vessel_seconds = 2 * len(self.values) * scenario.horizon

    def run(self, out):
        values = ",".join(repr(v) for v in self.values)
        return run_cli(self.pkg, ["sweep", self.ini, "--axis", "k", "--values", values], out)

    def check(self, out, result):
        # the CLI exits 1 when a row fails; the rows say why
        errors = cli_errors(result)
        with open(os.path.join(out, "sweep_k.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        got = [float(r["param_value"]) for r in rows]
        if len(got) != len(self.values) or not np.allclose(got, self.values, rtol=1e-12):
            errors.append(f"sweep rows for k={got}, expected {self.values}")
        errors += [f"k={r['param_value']}: status {r['status']}"
                   for r in rows if r["status"] != "ok"]
        return errors, csv_fingerprints(out)


class Audit:
    def __init__(self, pkg, root, workdir, seed, smoke):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        count, self.horizon = (2, 1.0) if smoke else (AUDIT_TRAJECTORIES, AUDIT_HORIZON)
        self.boat = pkg.vehicle.reference_boat()
        self.c = rng.uniform(0.5, 0.9 * pkg.passivity.c_hat_bound(self.boat))
        self.k = rng.uniform(0.5, 1.5)
        steps = round(self.horizon / AUDIT_STEP)
        self.inputs = [rng.uniform(-2.0, 2.0, (steps, 2)) + np.array([0.0, self.c])
                       for _ in range(count)]
        self.initial = [rng.uniform(-1.0, 1.0, 6) for _ in range(count)]
        self.vessel_seconds = count * self.horizon

    def run(self, _out):
        pkg, boat = self.pkg, self.boat
        vehicle, passivity, averaging = pkg.vehicle, pkg.passivity, pkg.averaging
        settings = pkg.integrator.IntegratorSettings(step=AUDIT_STEP, tf=self.horizon)
        states, residual = [], -math.inf
        for initial, us in zip(self.initial, self.inputs):
            def rhs(t, y, us=us):
                return vehicle.dynamics_rhs(boat, y, us[min(int(t / AUDIT_STEP), len(us) - 1)])

            traj = pkg.integrator.integrate(rhs, initial, settings)
            traj.inputs = np.vstack([us, us[-1:]])
            residual = max(residual, passivity.passivity_residual(traj, boat, self.c))
            states.append(traj.states)
        monotone = passivity.monotonicity_check(boat, self.c)

        cost = pkg.costs.get_field("quadratic")
        gains = pkg.dither.EsGains(k=self.k, c=self.c, epsilon=0.1)
        lam = averaging.lambda_matrix(pkg.dither.es_dither_set(gains, cost))
        b1 = averaging.es_input_field(boat, self.k, cost)
        closed = averaging.es_self_product(boat, self.k, cost)
        b0 = np.array([0.0, self.c])
        mismatch = 0.0
        # the averaged velocity RHS is the drift under b0 minus the forcing;
        # the states are iterated in place, since where the allocator put a
        # 1 MB concatenated copy moved the peak RSS by 1 MB from run to run
        for state in itertools.chain.from_iterable(states):
            generic = (vehicle.dynamics_rhs(boat, state, b0)[3:]
                       - averaging.averaged_rhs(boat, b0, [b1], lam, state)[3:])
            want = lam[0, 0] * closed(state[:3])
            mismatch = max(mismatch, float(np.max(np.abs(generic - want)))
                           / max(1.0, float(np.max(np.abs(want)))))
        return residual, monotone, mismatch, states

    def check(self, _out, result):
        residual, monotone, mismatch, states = result
        errors = []
        if not residual <= STORAGE_RESIDUAL_LIMIT:
            errors.append(f"storage residual {residual:.3e} > {STORAGE_RESIDUAL_LIMIT:g} "
                          f"at c={self.c!r}")
        if not monotone:
            errors.append(f"not monotone at c={self.c!r}, below c_hat")
        if not mismatch <= FORCING_MISMATCH_LIMIT:
            errors.append(f"generic and closed-form forcing differ by {mismatch:.3e}")
        digest = hashlib.sha256()
        for traj_states in states:
            digest.update(np.ascontiguousarray(traj_states).tobytes())
        return errors, {"audit_states": digest.hexdigest()}


WORKLOADS = {"compare": Compare, "sweep": Sweep, "audit": Audit}
