"""
Scenario configuration, end-to-end runners, and comparison metrics.

A scenario bundles the vehicle, the cost field, the seeking gains, the
initial state, and the run settings. `run_full` integrates the
oscillatory closed loop on a grid set by the dither period; `run_averaged`
integrates the smooth symmetric product system with the single-dither
closed form on its own grid of `AVERAGED_STEPS` steps, which depends on
the horizon alone; `compare` evaluates the averaged run on the full run's
grid by cubic Hermite dense output and reports planar-position deviation
metrics. Heading deviation is deliberately excluded from the metrics: only
the linear motion is claimed to converge, while the vehicle keeps spinning.

Each runner integrates its loop and then records the cost and the inputs
along the states. The metrics read states and times only, so `sweep`
integrates the same two loops and records states only. Independent work
(a sweep's full and averaged runs, CLI `compare`'s two runs, the shares
of a long full-run CSV) goes through `run_forked`, which shares the tasks
out over the usable CPUs by their costs; a sweep's runs cost their RK4
step counts. `write_full_run`, the only writer that splits a CSV, writes a
long full-run CSV on two CPUs while the run is still integrating: its
first half is written by a child started through `_children`, the fork
and join code of `run_forked`, while this process steps the second half
by `step_rows`. Every output keeps its bits whatever the number of CPUs.
"""
import configparser
import contextlib
import math
import numbers
import os
import shutil
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import costs
from .averaging import AVERAGED_STEPS, LAMBDA_11, es_product_gain, es_surge_self_product
from .dither import EsGains, surge_law
from .formatting import format_block
from .integrator import (IntegratorSettings, Trajectory, allocate, dividing_step, hermite,
                         integrate, prepare, step_rows)
from .passivity import c_hat_bound
from .vehicle import VehicleParams, model_rhs

# chosen operationalizations of the asymptotic convergence claims;
# echoed into run metadata so outputs are self-describing
DECLARED_CONSTANTS = {
    "final_error_threshold_eps_0.1": 0.5,
    "final_error_threshold_eps_0.05": 0.3,
    "deviation_ratio_band": [1.5, 3.0],
    "convergence_radius_default": 0.5,
}

OUTPUT_DIR_ENV = "SURGESEEK_OUTPUT_DIR"

TRAJECTORY_HEADER = "t,x,y,theta,vx,vy,omega,u1,u2,rho"
METRICS_HEADER = "param_value,final_error,conv_time_r,path_length,sup_deviation,status"


@dataclass
class Scenario:
    vehicle: VehicleParams
    cost: costs.CostField
    gains: EsGains
    initial: np.ndarray                 # (6,) [x, y, theta, vx, vy, omega]
    horizon: float = 100.0
    samples_per_period: int = 200
    output_dir: str = "."
    warnings: list = field(init=False, default_factory=list)

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (6,):
            raise ValueError("initial state must have 6 components")
        for key, value in zip(_STATE_KEYS, self.initial.tolist()):
            if not math.isfinite(value):
                raise ValueError(f"initial state {key} must be finite, got {value}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        spp = self.samples_per_period
        if not (isinstance(spp, numbers.Integral) and spp >= 50):
            raise ValueError(f"samples_per_period must be an integer of at least 50, "
                             f"got {spp!r}")
        bound = c_hat_bound(self.vehicle)
        if self.gains.c >= bound:
            self.warnings.append(
                f"torque c={self.gains.c:g} is at or above the shifted-passivity "
                f"bound {bound:g}; continuing anyway")


# the sections a scenario file may have, and the keys each accepts
_SECTIONS = ("vehicle", "cost", "gains", "initial", "run")
_VEHICLE_KEYS = ("m11", "m22", "m33", "d11", "d22", "d33")
_GAINS_KEYS = ("k", "c", "epsilon")
_STATE_KEYS = ("x", "y", "theta", "vx", "vy", "omega")
_RUN_KEYS = ("horizon", "samples_per_period", "output_dir")


def _section(cp, name, known, required=()):
    """The keys of section `name` (empty if absent) as a dict.

    Raises a ValueError naming the section and the key for a key outside
    `known` or a `required` key that is missing.
    """
    section = dict(cp[name]) if cp.has_section(name) else {}
    for key in section:
        if key not in known:
            raise ValueError(f"[{name}] {key}: unknown key; expected one of "
                             f"{', '.join(known)}")
    for key in required:
        if key not in section:
            raise ValueError(f"[{name}] {key}: required key is missing")
    return section


def _number(section, key, text, kind=float):
    """`text` as a finite `kind`; a malformed or non-finite value raises a
    ValueError naming the key."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None
    if not math.isfinite(value):
        raise ValueError(f"[{section}] {key}: {text!r} is not a finite number")
    return value


def _floats(name, section):
    return {key: _number(name, key, text) for key, text in section.items()}


def load_scenario(path):
    """Parse an INI scenario file (sections vehicle/cost/gains/initial/run).

    Any other section raises a ValueError naming it, as `_section` names
    an unknown key: a misspelt section would otherwise load its defaults.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"scenario file not found: {path}")
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"[{name}]: unknown section; expected one of "
                             f"{', '.join(_SECTIONS)}")
    veh = _section(cp, "vehicle", _VEHICLE_KEYS, required=_VEHICLE_KEYS)
    vehicle = VehicleParams.diagonal(**_floats("vehicle", veh))
    name = cp.get("cost", "name", fallback="quadratic")
    try:
        parameters = costs.field_parameters(name)
    except KeyError as exc:
        raise ValueError(f"[cost] name: {exc.args[0]}") from None
    cost_params = _section(cp, "cost", ("name",) + parameters)
    cost_params.pop("name", None)
    cost = costs.get_field(name, **_floats("cost", cost_params))
    gains = EsGains(**_floats("gains", _section(cp, "gains", _GAINS_KEYS,
                                                required=_GAINS_KEYS)))
    init = _floats("initial", _section(cp, "initial", _STATE_KEYS))
    initial = np.array([init.get(k, 0.0) for k in _STATE_KEYS])
    run = _section(cp, "run", _RUN_KEYS)
    if run.get("output_dir") == "":
        raise ValueError("[run] output_dir: empty; give a directory or leave the key out")
    return Scenario(
        vehicle=vehicle, cost=cost, gains=gains, initial=initial,
        horizon=_number("run", "horizon", run.get("horizon", 100.0)),
        samples_per_period=_number("run", "samples_per_period",
                                   run.get("samples_per_period", 200), int),
        output_dir=str(run.get("output_dir", ".")))


@contextlib.contextmanager
def _run_failure(scenario, name, eps=""):
    """Re-raise an exception of the block as a RuntimeError naming the run
    `name` and its gains; `eps` is the epsilon clause of that message,
    empty for the averaged run, which does not read epsilon."""
    gains = scenario.gains
    try:
        yield
    except Exception as exc:
        raise RuntimeError(
            f"{name} run failed ({exc}); gains k={gains.k} c={gains.c}{eps}, "
            f"horizon={scenario.horizon}") from exc


def _integrate(scenario, rhs, step, name, eps=""):
    """Integrate `rhs(scenario)` over the horizon by the step
    `step(scenario)`, recording the states only; a failure, of either of
    them too, is re-raised by `_run_failure(scenario, name, eps)`."""
    with _run_failure(scenario, name, eps):
        return integrate(rhs(scenario), scenario.initial,
                         IntegratorSettings(step=step(scenario), tf=scenario.horizon))


# rows per block that `_mapped` reads: for the reference full run a whole
# column as floats is a megabyte-sized temporary, and freeing one that
# large makes malloc keep later arrays on the heap (+2 MB peak RSS over
# repeated CLI compare runs)
_BLOCK_ROWS = 1024


def _mapped(law, *columns):
    """`law` of each row of `columns`, taken as Python floats, as an array.

    The columns are read a block of rows at a time. On floats each value
    has the bits the loop's own evaluation of `law` gives; on whole columns
    numpy would square by x * x where a float's ** 2 calls libm pow, and
    its cosine need not be libm's.
    """
    n = len(columns[0])
    values = np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        values[lo:hi] = list(map(law, *[column[lo:hi].tolist() for column in columns]))
    return values


def _record(scenario, traj, surge=None):
    """Record the cost and the inputs along the integrated `traj`.

    The loop's own float laws are mapped over the samples: `cost.value`
    gives rho and `surge`, the surge law the full run stepped, gives u1.
    So each recorded value is the one the RHS computed from that sample,
    bit for bit. The averaged run has no surge law (zero surge input).
    """
    states = traj.states
    traj.rho = _mapped(scenario.cost.value, states[:, 0], states[:, 1])
    u1 = np.zeros(len(traj.t)) if surge is None else _mapped(surge, traj.t, traj.rho)
    traj.inputs = np.column_stack([u1, np.full_like(u1, scenario.gains.c)])
    return traj


def _full_step(scenario):
    """`run_full`'s step: the largest that divides the horizon and resolves
    the dither period in `samples_per_period` steps."""
    return dividing_step(scenario.horizon, scenario.gains.epsilon * 2.0 * math.pi
                         / scenario.samples_per_period)


def _full_eps(scenario):
    """The epsilon clause of a full run's failure message."""
    return f" eps={scenario.gains.epsilon}"


def _full_rhs(scenario):
    """The oscillatory closed loop: the model under the surge law's force on
    the measured cost and the torque c."""
    gains = scenario.gains
    return model_rhs(scenario.vehicle, "u1 = surge(tau, value(x, y))\nu2 = c\n",
                     {"surge": surge_law(gains), "value": scenario.cost.value, "c": gains.c})


def _integrate_full(scenario):
    """The oscillatory closed loop's states, on `run_full`'s grid."""
    return _integrate(scenario, _full_rhs, _full_step, "full", _full_eps(scenario))


def _averaged_rhs(scenario):
    """The symmetric product system: the model under zero surge force and
    the torque c, its surge rate forced by -Lambda_11 <B1:B1>."""
    p = scenario.vehicle
    self_product = es_surge_self_product(p, scenario.gains.k, scenario.cost)
    return model_rhs(p, "u1 = 0.0\nu2 = c\n",
                     {"c": scenario.gains.c, "LAMBDA_11": LAMBDA_11,
                      "self_product": self_product},
                     after="forcing = self_product(x, y, cth, sth)\n"
                           "dvx = dvx - LAMBDA_11 * forcing\n")


def _averaged_step(scenario):
    """`run_averaged`'s step: `AVERAGED_STEPS` steps over the horizon."""
    return scenario.horizon / AVERAGED_STEPS


def _integrate_averaged(scenario):
    """The symmetric product system's states, on `run_averaged`'s grid."""
    return _integrate(scenario, _averaged_rhs, _averaged_step, "averaged")


def build_loops(scenario, tasks):
    """Where `run_forked` forks to run `tasks`, generate both runners' RK4
    loops for `scenario` in this process first, stepping nothing, so that
    the children inherit them: the runs of one scenario file share them,
    whatever the gains. A runner whose right-hand side overflows (the self
    product's gain at k = 1e200, say) is left to fail in its own run, by
    name."""
    if min(len(tasks), _usable_cpus()) > 1:
        for rhs in (_full_rhs, _averaged_rhs):
            with contextlib.suppress(ArithmeticError):
                prepare(rhs(scenario), len(scenario.initial))


def run_full(scenario):
    """Integrate the oscillatory closed loop, recording input and cost.

    The step is `_full_step`'s.
    """
    return _record(scenario, _integrate_full(scenario), surge_law(scenario.gains))


def run_averaged(scenario):
    """Integrate the symmetric product system (single-dither closed form).

    The surge velocity is forced by -Lambda_11 <B1:B1>. The averaged system
    has no dither, so its grid is `AVERAGED_STEPS` steps over the horizon
    whatever epsilon and samples_per_period are. The cost is recorded and
    the surge input is zero.
    """
    return _record(scenario, _integrate_averaged(scenario))


# ---------------------------------------------------------------------------
# metrics

@dataclass
class RunMetrics:
    final_error: float
    convergence_time: float    # inf means "never"
    convergence_radius: float
    path_length: float
    sup_deviation: float


def _position_error(traj, minimizer):
    return np.hypot(traj.states[:, 0] - minimizer[0],
                    traj.states[:, 1] - minimizer[1])


def _rolling_mean(values, window):
    if window <= 1:
        return values.copy()
    csum = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(len(values))
    lo = np.maximum(0, idx - window + 1)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)


def period_window_samples(traj, epsilon):
    """Number of samples spanning one dither period 2*pi*eps, at most the
    record's: a period longer than the run averages the whole run. The
    clamp is taken on the float, which may be too large for an int."""
    span, samples = 2.0 * math.pi * epsilon / traj.step, len(traj.t)
    return max(1, int(round(span))) if span < samples else samples


def final_error(traj, minimizer, epsilon):
    """Position error averaged over the last full dither period."""
    errs = _position_error(traj, minimizer)
    w = period_window_samples(traj, epsilon)
    return float(np.mean(errs[-w:]))


def convergence_time(traj, minimizer, epsilon, radius):
    """First time the period-averaged error enters and stays within radius."""
    errs = _position_error(traj, minimizer)
    w = period_window_samples(traj, epsilon)
    rolled = _rolling_mean(errs, w)
    suffix_max = np.maximum.accumulate(rolled[::-1])[::-1]
    inside = np.flatnonzero(suffix_max <= radius)
    if inside.size == 0:
        return math.inf
    return float(traj.t[inside[0]])


def path_length(traj):
    dx = np.diff(traj.states[:, 0])
    dy = np.diff(traj.states[:, 1])
    return float(np.sum(np.hypot(dx, dy)))


def _hermite_position(traj, t):
    """Planar position of `traj` at times `t` by cubic Hermite dense output.

    The rates are the exact position rates of each sample,
    x' = cos(theta) vx - sin(theta) vy and y' = sin(theta) vx + cos(theta) vy,
    with the `math.cos` and `math.sin` that the loop stepped, so the metric
    does not depend on where numpy's cosine differs from libm's.
    """
    s = traj.states
    cos, sin = _mapped(math.cos, s[:, 2]), _mapped(math.sin, s[:, 2])
    rates = np.array([cos * s[:, 3] - sin * s[:, 4], sin * s[:, 3] + cos * s[:, 4]])
    # x and y share the intervals and the basis
    return hermite(traj.t, np.array([s[:, 0], s[:, 1]]), rates, t)


def sup_position_deviation(full, averaged, t_max=None):
    """Sup over time of planar-position distance between the two runs.

    Heading and yaw rate are excluded on purpose. The averaged run is
    evaluated at the full run's times by cubic Hermite interpolation with
    exact position rates, so its coarser grid costs no accuracy that the
    metric could see. `full` may carry the leading state columns only (a
    sweep's carries x and y); the start of each column it carries must
    equal the averaged run's.
    """
    start = full.states[0]
    if not np.allclose(start, averaged.states[0, :len(start)], rtol=0.0, atol=1e-12):
        raise ValueError("runs must start from identical initial states")
    t = full.t
    if t_max is not None:
        t = t[t <= t_max + 1e-12]
    xa, ya = _hermite_position(averaged, t)
    n = len(t)
    dev = np.hypot(full.states[:n, 0] - xa, full.states[:n, 1] - ya)
    return float(np.max(dev))


def compare(full, averaged, scenario, radius=None):
    """Metrics of a full run against its paired averaged run."""
    if radius is None:
        radius = DECLARED_CONSTANTS["convergence_radius_default"]
    minimizer = scenario.cost.minimizer
    eps = scenario.gains.epsilon
    return RunMetrics(
        final_error=final_error(full, minimizer, eps),
        convergence_time=convergence_time(full, minimizer, eps, radius),
        convergence_radius=radius,
        path_length=path_length(full),
        sup_deviation=sup_position_deviation(full, averaged))


def v1_monitor(traj, params, gains):
    """Diagnostic V1 = 1/2 vx^2 + (alpha/2) rho^2 along a run's recorded rho.

    alpha = Lambda_11 * 2 (k/m11)^2 is the averaged forcing's coefficient.
    """
    alpha = LAMBDA_11 * es_product_gain(params, gains.k)
    vx = traj.states[:, 3]
    return 0.5 * vx ** 2 + 0.5 * alpha * traj.rho ** 2


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("epsilon", "k", "c")


def _with_value(scenario, axis, value):
    return replace(scenario, gains=replace(scenario.gains, **{axis: value}))


def _failed_row(value, reason):
    return {
        "param_value": value,
        "final_error": math.nan, "conv_time_r": math.nan,
        "path_length": math.nan, "sup_deviation": math.nan,
        "status": reason.replace("\n", " ").replace(",", ";"),
    }


def _sweep_run(run, scenario):
    """`run(scenario)`, or the text of the exception it raises, which the
    rows that read the run name."""
    try:
        return run(scenario)
    except Exception as exc:
        return str(exc)


def _full_positions(scenario):
    """A sweep's full run: its times and its x and y columns, all that the
    metrics read of it. The other columns are dropped in the process that
    integrates it, so a forked worker sends back a third of the run."""
    traj = _integrate_full(scenario)
    return Trajectory(traj.t, traj.states[:, :2].copy())


def _averaged_states(scenario):
    """A sweep's averaged run without its omega column: its times and the
    x, y, theta, vx and vy that the metrics' Hermite positions read."""
    traj = _integrate_averaged(scenario)
    return Trajectory(traj.t, traj.states[:, :5].copy())


def _sweep_row(value, scenario, full, averaged):
    """The metrics row of one value from its two runs. A run that failed,
    given as the text of its error, or failing metrics give a row naming
    why."""
    for run in (full, averaged):
        if isinstance(run, str):
            return _failed_row(value, run)
    try:
        metrics = compare(full, averaged, scenario)
    except Exception as exc:
        return _failed_row(value, str(exc))
    return {
        "param_value": value,
        "final_error": metrics.final_error,
        "conv_time_r": metrics.convergence_time,
        "path_length": metrics.path_length,
        "sup_deviation": metrics.sup_deviation,
        "status": "ok",
    }


def _send_outcome(sender, tasks):
    """A forked child's body: run `tasks` in order and send (True, their
    results) or (False, the exception one raised)."""
    try:
        outcome = (True, [task() for task in tasks])
    except Exception as exc:
        outcome = (False, exc)
    sender.send(outcome)
    sender.close()


def _shares(costs, n):
    """The task indices of each of `n` shares, each in task order.

    The tasks are placed longest first, each onto the least-loaded share,
    ties going to the lowest share index; tasks of equal cost are placed in
    task order. With equal costs this gives the strides range(i, len, n).
    """
    shares = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        share = loads.index(min(loads))
        shares[share].append(i)
        loads[share] += costs[i]
    return [sorted(share) for share in shares]


def _usable_cpus():
    """The CPUs in this process's affinity mask, as `taskset` sets it; 1
    where the OS has none, as on macOS and Windows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@contextlib.contextmanager
def _children():
    """`run_forked`'s way of forking, for a block that starts children and
    collects their results: yields a function `start(tasks, exited)`.

    `start` forks a child that runs `tasks` in order and sends back their
    results as one list through a one-way pipe, and returns a function that
    waits for that list. That function re-raises an exception a task
    raised; a child that exits without sending gives `exited(j, exitcode)`
    in place of the result of each of its tasks[j]. Fork, not spawn: the
    scenario's cost closures cannot be pickled, and a forked child inherits
    them, as it inherits the arrays a task reads. Fork copies the calling
    thread only; surgeseek starts no other thread. Every child started is
    terminated if still running and joined, whatever way the block is left.
    """
    import multiprocessing  # only a run that forks pays for the import
    context = multiprocessing.get_context("fork")
    started = []

    def start(tasks, exited):
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_outcome, args=(sender, tasks))
        child.start()
        started.append((child, receiver))
        # the parent's copy of the write end would keep EOF from showing
        sender.close()

        def results():
            try:
                ok, outcome = receiver.recv()
            except EOFError:
                child.join()
                return [exited(j, child.exitcode) for j in range(len(tasks))]
            if not ok:
                raise outcome
            return outcome
        return results

    try:
        yield start
    finally:
        for child, receiver in started:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()


def run_forked(tasks, exited, costs=None):
    """The results of `tasks`, in order.

    The tasks run in n = min(len(tasks), `_usable_cpus()`) shares. With
    n <= 1 every task runs in this process, in order, and nothing is
    forked. Otherwise `_shares` places the tasks by their positive `costs`,
    longest first, each onto the least-loaded share; with `costs=None`
    every task costs 1, which gives the strided shares tasks[i::n]. This
    process runs share 0 while one child per other share, started by
    `_children`, runs its tasks in task order. An exception that a child's
    task raises is re-raised here. A child that exits without sending gives
    `exited(i, exitcode)` in place of the result of each of its tasks[i].
    Every child is terminated if still running and joined, whatever way
    this returns.
    """
    n = min(len(tasks), _usable_cpus())
    if n <= 1:
        return [task() for task in tasks]
    shares = _shares([1] * len(tasks) if costs is None else costs, n)
    results = [None] * len(tasks)
    with _children() as start:
        # a child's task j is tasks[share[j]]
        waits = [start([tasks[i] for i in share],
                       lambda j, code, share=share: exited(share[j], code))
                 for share in shares[1:]]
        for i in shares[0]:
            results[i] = tasks[i]()
        for share, wait in zip(shares[1:], waits):
            for i, result in zip(share, wait()):
                results[i] = result
    return results


def sweep(base, axis, values):
    """Run the full loop per value; pair each with its averaged run.

    Returns a list of row dicts matching the metrics CSV columns, in the
    order of `values`. Failing runs are recorded with their reason and the
    sweep continues. A sweep records states only: `compare` reads the
    states and times, so the cost and input columns of `run_full` and
    `run_averaged` are never built.

    Each run is one task of `run_forked`, costed at its RK4 step count: one
    full run per value, and one averaged run per distinct (k, c), since the
    averaged run reads neither epsilon nor samples_per_period. A full run
    task returns its times and x, y columns only, an averaged run task all
    but its omega column. Before it forks, this process builds both runs'
    loops, which every value's runs share, so no child builds one. The
    rows are computed in this process from the returned runs. A worker
    that dies fails each row that reads one of its runs with a reason
    naming its exit code. Every run is deterministic, so a row depends
    neither on the order of the values nor on the number of processes.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
    values = list(values)
    tasks, costs = [], []

    def add(run, scenario, cost):
        tasks.append(partial(_sweep_run, run, scenario))
        costs.append(cost)
        return len(tasks) - 1

    averaged = {}   # (k, c): the index of its averaged run's task
    pairs = []      # per value: its scenario and its two runs' task indices
    for value in values:
        try:
            scenario = _with_value(base, axis, value)
            # the full run's step count, its task's cost: where it is not a
            # number (a subnormal epsilon's), the run fails as on its own
            with _run_failure(scenario, "full", _full_eps(scenario)):
                steps = round(scenario.horizon / _full_step(scenario))
        except Exception as exc:
            pairs.append(str(exc))
            continue
        key = (scenario.gains.k, scenario.gains.c)
        if key not in averaged:
            averaged[key] = add(_averaged_states, scenario, AVERAGED_STEPS)
        full = add(_full_positions, scenario, steps)
        pairs.append((scenario, full, averaged[key]))

    def exited(_i, code):
        return f"sweep worker exited with code {code} before sending its runs"

    build_loops(base, tasks)
    runs = run_forked(tasks, exited, costs)
    return [_failed_row(value, pair) if isinstance(pair, str)
            else _sweep_row(value, pair[0], runs[pair[1]], runs[pair[2]])
            for value, pair in zip(values, pairs)]


# ---------------------------------------------------------------------------
# file output

def _fmt(x):
    return format(x, ".15g")


# numbers (rows x columns) of a full-run CSV above which `write_full_run`
# writes it in shares. On two vCPUs (median wall time of 12 alternating
# fresh CLI runs each) a split paid for the full run's 318,320 numbers,
# `simulate` of scenarios/benchmark.ini taking 0.568 s split and 0.625 s
# not, but not for 99,960, the size of the averaged run's 100,010: the same
# `simulate` at horizon 31.4 took 0.371 s split and 0.326 s not (`average`,
# in one share, 0.300 s); the bound sits between the two
_SPLIT_NUMBERS = 200_000


# numbers per block that `_write_rows` formats: a block's largest arrays,
# its fields of 24 bytes a number, stay under glibc's 128 KiB mmap
# threshold, so that freeing one does not raise the threshold and leave
# later arrays on the heap (+2 MB peak RSS over repeated CLI compare runs
# at 10,240 numbers a block)
_BLOCK_NUMBERS = 4096


def _write_rows(path, header, columns):
    """Write `header` (none if None), then the rows of `columns`, to `path`.

    Each block of rows is formatted by `formatting.format_block`, so every
    number is written as `'%.15g'` writes it.
    """
    with open(path, "wb") as f:
        if header is not None:
            f.write(header.encode() + b"\n")
        width = sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in columns)
        rows = max(1, _BLOCK_NUMBERS // width)
        for start in range(0, len(columns[0]), rows):
            f.write(format_block(np.column_stack([c[start:start + rows] for c in columns])))


@contextlib.contextmanager
def _parts(path, count):
    """`count` part files of `path` for `write_full_run`'s shares, appended
    to `path` in order once the block completes. Each is named
    `<path>.<pid>.<k>.part`: the pid keeps two runs that write one path from
    sharing a part file. If the block or the append fails, `path` is
    removed; the parts are removed either way.
    """
    parts = [f"{path}.{os.getpid()}.{k}.part" for k in range(count)]
    try:
        yield parts
        with open(path, "ab") as f:
            for part in parts:
                with open(part, "rb") as tail:
                    shutil.copyfileobj(tail, f)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _writer_exited(bounds):
    """`exited` for `run_forked` or `_children` of `write_full_run`'s
    shares, the j-th of which writes the rows [lo, hi) = `bounds[j]`."""
    def exited(j, code):
        lo, hi = bounds[j]
        raise RuntimeError(f"CSV writer of rows {lo}-{hi} exited with code {code}")
    return exited


def write_columns(path, header, columns):
    """CSV of column-stacked arrays under `header`, 15 significant digits.

    Every row is written by this process, in one share; nothing is forked.
    If the write fails, no file is left at `path`. `path` is written in
    place: the CLI renames it into place once complete.
    """
    try:
        _write_rows(path, header, columns)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise


def _trajectory_columns(traj):
    """The columns of `TRAJECTORY_HEADER`."""
    return [traj.t, traj.states, traj.inputs, traj.rho]


def write_trajectory_csv(traj, path):
    """Plot-ready CSV, one row per integrator step, full precision."""
    write_columns(path, TRAJECTORY_HEADER, _trajectory_columns(traj))


def run_to_csv(run, scenario, path):
    """`run(scenario)` written to `path` by `write_trajectory_csv`. Returns
    the run's times and states only, all that `compare` reads, so a forked
    child sends back no more."""
    traj = run(scenario)
    write_trajectory_csv(traj, path)
    return Trajectory(traj.t, traj.states)


def _write_full_rows(scenario, surge, traj, path, header, lo, hi):
    """Rows [lo, hi) of the full run `traj`'s CSV, under `header` (none if
    None), to `path`. The rows are recorded here, by `_record` on them
    alone, which maps the loop's laws row by row: so each row has the bits
    that recording the whole run gives it."""
    rows = _record(scenario, Trajectory(traj.t[lo:hi], traj.states[lo:hi]), surge)
    _write_rows(path, header, _trajectory_columns(rows))


def write_full_run(scenario, path):
    """`run_to_csv(run_full, scenario, path)`: the same bytes, the same
    returned times and states, and the same error for a failed step.

    Where the CSV has more than `_SPLIT_NUMBERS` numbers and two CPUs are
    usable, the CSV is written while the run is still integrating, in three
    shares:
    - this process steps the run up to row mid = n // 2 of its n rows;
    - a child started by `_children` records and writes the header and
      rows [0, mid) to `path`, while this process steps the rest;
    - `run_forked` writes the rest in two shares split at their midpoint,
      this process's to the first `_parts` file and a child's to the
      second;
    - the parts are appended to `path` once the head share is done.
    Each share records its own rows, so this process never holds the whole
    run's rho or inputs. Otherwise the run is stepped in one go and written
    by `run_to_csv`, and nothing more is forked.
    """
    failure = partial(_run_failure, scenario, "full", _full_eps(scenario))
    with failure():
        settings = IntegratorSettings(step=_full_step(scenario), tf=scenario.horizon)
    n = settings.n_steps + 1
    if n * len(TRAJECTORY_HEADER.split(",")) <= _SPLIT_NUMBERS or _usable_cpus() < 2:
        return run_to_csv(run_full, scenario, path)
    rhs = _full_rhs(scenario)
    mid = n // 2
    rest = [(mid, (mid + n) // 2), ((mid + n) // 2, n)]
    with _parts(path, len(rest)) as parts, _children() as start:
        with failure():
            traj = allocate(scenario.initial, settings)
            step_rows(rhs, traj.states, settings.step, 0, mid)
        share = partial(_write_full_rows, scenario, surge_law(scenario.gains), traj)
        head = start([partial(share, path, TRAJECTORY_HEADER, 0, mid)],
                     _writer_exited([(0, mid)]))
        with failure():
            step_rows(rhs, traj.states, settings.step, mid, n - 1)
        run_forked([partial(share, part, None, lo, hi) for part, (lo, hi) in zip(parts, rest)],
                   _writer_exited(rest))
        head()
    return traj


def write_metrics_csv(rows, path):
    with open(path, "w", newline="") as f:
        f.write(METRICS_HEADER + "\n")
        for r in rows:
            f.write(",".join([
                _fmt(float(r["param_value"])),
                _fmt(r["final_error"]),
                "never" if math.isinf(r["conv_time_r"]) else _fmt(r["conv_time_r"]),
                _fmt(r["path_length"]),
                _fmt(r["sup_deviation"]),
                str(r["status"]),
            ]) + "\n")
