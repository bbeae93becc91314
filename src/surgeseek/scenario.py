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
(a sweep's full and averaged runs, CLI `compare`'s two runs, the two
shares of a long CSV) goes through `run_forked`, which shares the tasks
out over the usable CPUs by their costs; a sweep's runs cost their RK4
step counts. Every output keeps its bits whatever the number of CPUs.
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
from .integrator import IntegratorSettings, Trajectory, dividing_step, hermite, integrate
from .passivity import c_hat_bound
from .vehicle import VehicleParams, dynamics_rhs

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


def _integrate(scenario, rhs, step, name, eps=""):
    """Integrate `rhs` over the horizon, recording the states only.

    A failure is re-raised as a RuntimeError naming the run and its gains;
    `eps` is the epsilon clause of that message, empty for the averaged
    run, which does not read epsilon.
    """
    gains = scenario.gains
    try:
        return integrate(rhs, scenario.initial,
                         IntegratorSettings(step=step, tf=scenario.horizon))
    except Exception as exc:
        raise RuntimeError(
            f"{name} run failed ({exc}); gains k={gains.k} c={gains.c}{eps}, "
            f"horizon={scenario.horizon}") from exc


# rows per block that `_mapped` reads: whole columns as lists of floats
# would hold about 1 MB of float objects each for the reference full run
_MAP_BLOCK_ROWS = 1024


def _mapped(law, *columns):
    """`law` of each row of `columns`, taken as Python floats, as an array.

    The columns are read a block of rows at a time. On floats each value
    has the bits the loop's own evaluation of `law` gives; on whole columns
    numpy would square by x * x where a float's ** 2 calls libm pow, and
    its cosine need not be libm's.
    """
    n = len(columns[0])
    values = np.empty(n)
    for lo in range(0, n, _MAP_BLOCK_ROWS):
        hi = lo + _MAP_BLOCK_ROWS
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


def _integrate_full(scenario):
    """The oscillatory closed loop's states, on `run_full`'s grid."""
    p = scenario.vehicle
    gains = scenario.gains
    value = scenario.cost.value
    c_torque = gains.c
    u1 = surge_law(gains)

    def rhs(t, y):
        return dynamics_rhs(p, y, (u1(t, value(y[0], y[1])), c_torque))

    return _integrate(scenario, rhs, _full_step(scenario), "full",
                      f" eps={gains.epsilon}")


def _integrate_averaged(scenario):
    """The symmetric product system's states, on `run_averaged`'s grid."""
    p = scenario.vehicle
    c_torque = scenario.gains.c
    self_product = es_surge_self_product(p, scenario.gains.k, scenario.cost)

    def rhs(_t, y):
        dx, dy, dth, dvx, dvy, dom = dynamics_rhs(p, y, (0.0, c_torque))
        return (dx, dy, dth, dvx - LAMBDA_11 * self_product(y[0], y[1], y[2]),
                dvy, dom)

    return _integrate(scenario, rhs, scenario.horizon / AVERAGED_STEPS, "averaged")


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
    """Number of samples spanning one dither period 2*pi*eps."""
    return max(1, int(round(2.0 * math.pi * epsilon / traj.step)))


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
    rates = (cos * s[:, 3] - sin * s[:, 4], sin * s[:, 3] + cos * s[:, 4])
    return [hermite(traj.t, s[:, j], rates[j], t) for j in (0, 1)]


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
    if not np.allclose(start, averaged.states[0, :len(start)], atol=1e-12):
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


def run_forked(tasks, exited, costs=None):
    """The results of `tasks`, in order.

    The tasks run in n = min(len(tasks), CPUs) shares, CPUs being this
    process's affinity mask as `taskset` sets it (1 where the OS has none,
    as on macOS and Windows). With n <= 1 every task runs in this process,
    in order, and nothing is forked. Otherwise `_shares` places the tasks
    by their positive `costs`, longest first, each onto the least-loaded
    share; with `costs=None` every task costs 1, which gives the strided
    shares tasks[i::n]. This process runs share 0 while one forked child
    per other share runs its tasks in task order and sends back their
    results as one list through a one-way pipe. Fork, not spawn: the
    scenario's cost closures cannot be pickled, and a forked child inherits
    them. Fork copies the calling thread only; surgeseek starts no other
    thread. An exception that a child's task raises is re-raised here. A
    child that exits without sending gives `exited(i, exitcode)` in place of
    the result of each of its tasks[i]. Every child is terminated if still
    running and joined, whatever way this returns.
    """
    try:
        n = min(len(tasks), len(os.sched_getaffinity(0)))
    except AttributeError:
        n = 1
    if n <= 1:
        return [task() for task in tasks]
    shares = _shares([1] * len(tasks) if costs is None else costs, n)
    import multiprocessing  # only a run that forks pays for the import
    context = multiprocessing.get_context("fork")
    children = []
    results = [None] * len(tasks)
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_outcome,
                                    args=(sender, [tasks[i] for i in share]))
            child.start()
            children.append((child, receiver))
            # the parent's copy of the write end would keep EOF from showing
            sender.close()
        for i in shares[0]:
            results[i] = tasks[i]()
        for share, (child, receiver) in zip(shares[1:], children):
            try:
                ok, outcome = receiver.recv()
            except EOFError:
                child.join()
                ok, outcome = True, [exited(i, child.exitcode) for i in share]
            if not ok:
                raise outcome
            for i, result in zip(share, outcome):
                results[i] = result
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
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
    task returns its times and x, y columns only. The rows are computed in
    this process from the returned runs. A worker that dies fails each row
    that reads one of its runs with a reason naming its exit code. Every
    run is deterministic, so a row depends neither on the order of the
    values nor on the number of processes.
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
        except Exception as exc:
            pairs.append(str(exc))
            continue
        key = (scenario.gains.k, scenario.gains.c)
        if key not in averaged:
            averaged[key] = add(_integrate_averaged, scenario, AVERAGED_STEPS)
        full = add(_full_positions, scenario, round(scenario.horizon / _full_step(scenario)))
        pairs.append((scenario, full, averaged[key]))

    def exited(_i, code):
        return f"sweep worker exited with code {code} before sending its runs"

    runs = run_forked(tasks, exited, costs)
    return [_failed_row(value, pair) if isinstance(pair, str)
            else _sweep_row(value, pair[0], runs[pair[1]], runs[pair[2]])
            for value, pair in zip(values, pairs)]


# ---------------------------------------------------------------------------
# file output

def _fmt(x):
    return format(x, ".15g")


# rows per block written by `write_columns`: a trajectory stacked whole is a
# multi-megabyte temporary, and freeing one that large makes malloc keep
# later arrays on the heap (+2 MB peak RSS over repeated CLI compare runs)
_CSV_BLOCK_ROWS = 1024

# numbers (rows x columns) above which `write_columns` formats in two shares.
# On two vCPUs (median wall time of 20 alternating fresh CLI runs of
# scenarios/benchmark.ini) a split paid for the full run's 318,320 numbers,
# `simulate` taking 0.80 s split and 0.90 s not, but not for the averaged
# run's 100,010, `average` taking 0.54 s split and 0.52 s not; the bound
# sits between the two
_SPLIT_NUMBERS = 200_000


def _write_rows(path, header, columns, lo, hi):
    """Write `header` (none if None), then rows [lo, hi) of `columns`, to `path`.

    Each block of rows is formatted by one `%` over a template of that many
    rows.
    """
    with open(path, "w", newline="") as f:
        if header is not None:
            f.write(header + "\n")
        for start in range(lo, hi, _CSV_BLOCK_ROWS):
            end = min(start + _CSV_BLOCK_ROWS, hi)
            block = np.column_stack([c[start:end] for c in columns])
            rows, width = block.shape
            row = ",".join(["%.15g"] * width) + "\n"
            f.write((row * rows) % tuple(block.ravel().tolist()))


def write_columns(path, header, columns):
    """CSV of column-stacked arrays under `header`, 15 significant digits.

    The rows are written by the tasks of `run_forked`: one share of every
    row, or above `_SPLIT_NUMBERS` numbers two, the header and rows
    [0, mid) to `path` and rows [mid, n) to `<path>.<pid>.part`, which is
    then appended to `path` and removed. A forked share inherits the
    columns, so no formatted text crosses the pipe, and the bytes are those
    of one share. If a share fails, neither file is left. `path` is
    written in place: the CLI renames it into place once complete.
    """
    n = len(columns[0])
    mid = n // 2 // _CSV_BLOCK_ROWS * _CSV_BLOCK_ROWS
    # the pid keeps two runs that write one path from sharing a part file
    part = f"{path}.{os.getpid()}.part"
    split = sum(map(np.size, columns)) > _SPLIT_NUMBERS
    shares = [partial(_write_rows, path, header, columns, 0, mid if split else n)]
    if split:
        shares.append(partial(_write_rows, part, None, columns, mid, n))

    def exited(_i, code):
        raise RuntimeError(f"CSV writer of rows {mid}-{n} exited with code {code}")

    try:
        run_forked(shares, exited)
        if split:
            with open(path, "ab") as f, open(part, "rb") as tail:
                shutil.copyfileobj(tail, f)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


def write_trajectory_csv(traj, path):
    """Plot-ready CSV, one row per integrator step, full precision."""
    write_columns(path, TRAJECTORY_HEADER, [traj.t, traj.states, traj.inputs, traj.rho])


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
