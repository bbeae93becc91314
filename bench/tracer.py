"""In-memory tracing of surgeseek's layers, installed from outside the package.

`Tracer.install()` replaces the module attributes through which each layer
is entered with timing wrappers, and `uninstall()` puts the originals back;
nothing under `src/` changes. Coarse calls (CLI, scenario runners,
integration, CSV writers, the passivity and averaging entry points) are
kept as spans with their parent span. Per-step calls (the integrator's RHS,
the cost field, the vessel dynamics, the averaged RHS) run hundreds of
thousands of times per operation, so they are only counted and timed.

All `.s` figures are inclusive of the calls nested in them;
`integrator.self_s` is the integrator's time outside its RHS.
"""
import dataclasses
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, package):
        self._pkg = package
        self._saved = []
        self._stack = []
        self.spans = []     # (op, name, start, end, parent span index or None)
        self.op = 0
        self._acc = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.reset()

    def reset(self):
        """Start the per-operation totals afresh; spans are kept."""
        for acc in self._acc.values():
            acc[:] = [0, 0.0]
        self.counts = defaultdict(int)

    def _span(self, name, fn, after=None):
        acc = self._acc[name]

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (self.op, name, start, end, parent)
                acc[0] += 1
                acc[1] += end - start
            if after is not None:
                after(args, result)
            return result
        return traced

    def _tally(self, name, fn):
        # the cheapest wrapper: these run once per RHS evaluation
        acc = self._acc[name]

        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            acc[1] += perf_counter() - start
            acc[0] += 1
            return result
        return traced

    def _integrate(self, fn):
        def integrate(rhs, initial, settings):
            traj = fn(self._tally("integrator.rhs", rhs), initial, settings)
            self.counts["integrator.steps"] += len(traj.t) - 1
            return traj
        return self._span("integrator.integrate", integrate)

    def _get_field(self, fn):
        def get_field(name, **params):
            field = fn(name, **params)
            return dataclasses.replace(
                field, value=self._tally("costs.value", field.value),
                gradient=self._tally("costs.gradient", field.gradient))
        return get_field

    def _count(self, key, measure):
        def after(args, _result):
            self.counts[key] += measure(args)
        return after

    def install(self):
        pkg = self._pkg
        sc, ps = pkg.scenario, pkg.passivity
        csv_bytes = self._count("scenario.write_trajectory_csv.bytes",
                                lambda args: os.path.getsize(args[1]))
        samples = self._count("passivity.passivity_residual.samples",
                              lambda args: len(args[0].states))
        patches = [
            (pkg.cli, "main", self._span("cli.main", pkg.cli.main)),
            (pkg.costs, "get_field", self._get_field(pkg.costs.get_field)),
            (pkg.integrator, "integrate", self._integrate(pkg.integrator.integrate)),
            (sc, "integrate", self._integrate(sc.integrate)),
            (sc, "write_trajectory_csv", self._span(
                "scenario.write_trajectory_csv", sc.write_trajectory_csv, csv_bytes)),
            (pkg.vehicle, "dynamics_rhs",
             self._tally("vehicle.dynamics_rhs", pkg.vehicle.dynamics_rhs)),
            (ps, "dynamics_rhs", self._tally("vehicle.dynamics_rhs", ps.dynamics_rhs)),
            (ps, "passivity_residual", self._span(
                "passivity.passivity_residual", ps.passivity_residual, samples)),
            (ps, "monotonicity_check",
             self._span("passivity.monotonicity_check", ps.monotonicity_check)),
            (pkg.averaging, "averaged_rhs",
             self._tally("averaging.averaged_rhs", pkg.averaging.averaged_rhs)),
            (pkg.averaging, "lambda_matrix",
             self._span("averaging.lambda_matrix", pkg.averaging.lambda_matrix)),
        ]
        for fn in ("load_scenario", "run_full", "run_averaged", "compare", "sweep",
                   "write_metrics_csv"):
            patches.append((sc, fn, self._span(f"scenario.{fn}", getattr(sc, fn))))
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self):
        """Per-layer metrics of the operations traced since `reset()`."""
        n = defaultdict(int, {name: acc[0] for name, acc in self._acc.items()})
        s = defaultdict(float, {name: acc[1] for name, acc in self._acc.items()})
        c = self.counts
        steps = c["integrator.steps"]
        samples = c["passivity.passivity_residual.samples"]
        metrics = {
            "integrator.steps": steps,
            "integrator.rhs_evals": n["integrator.rhs"],
            "integrator.self_s": s["integrator.integrate"] - s["integrator.rhs"],
            "integrator.us_per_step":
                1e6 * s["integrator.integrate"] / steps if steps else 0.0,
            "scenario.write_trajectory_csv.bytes":
                c["scenario.write_trajectory_csv.bytes"],
            "passivity.passivity_residual.samples": samples,
            "passivity.us_per_sample":
                1e6 * s["passivity.passivity_residual"] / samples if samples else 0.0,
        }
        for name in ("integrator.integrate", "integrator.rhs", "costs.value",
                     "costs.gradient", "scenario.run_full", "scenario.run_averaged",
                     "scenario.compare", "scenario.sweep", "scenario.load_scenario",
                     "scenario.write_trajectory_csv", "scenario.write_metrics_csv",
                     "vehicle.dynamics_rhs", "passivity.passivity_residual",
                     "passivity.monotonicity_check", "averaging.averaged_rhs",
                     "averaging.lambda_matrix", "cli.main"):
            metrics[f"{name}.s"] = s[name]
        for name in ("integrator.integrate", "costs.value", "costs.gradient",
                     "vehicle.dynamics_rhs", "averaging.averaged_rhs"):
            metrics[f"{name}.calls"] = n[name]
        return metrics
