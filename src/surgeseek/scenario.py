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
"""
import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs
from .averaging import AVERAGED_STEPS, LAMBDA_11, es_product_gain, es_surge_self_product
from .dither import EsGains, surge_law
from .integrator import IntegratorSettings, dividing_step, hermite, integrate
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
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.samples_per_period < 50:
            raise ValueError("need at least 50 samples per dither period")
        bound = c_hat_bound(self.vehicle)
        if self.gains.c >= bound:
            self.warnings.append(
                f"torque c={self.gains.c:g} is at or above the shifted-passivity "
                f"bound {bound:g}; continuing anyway")


# keys each scenario section accepts
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
    """Parse an INI scenario file (sections vehicle/cost/gains/initial/run)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"scenario file not found: {path}")
    veh = _section(cp, "vehicle", _VEHICLE_KEYS, required=_VEHICLE_KEYS)
    vehicle = VehicleParams.diagonal(**_floats("vehicle", veh))
    name = cp.get("cost", "name", fallback="quadratic")
    cost_params = _section(cp, "cost", ("name",) + costs.field_parameters(name))
    cost_params.pop("name", None)
    cost = costs.get_field(name, **_floats("cost", cost_params))
    gains = EsGains(**_floats("gains", _section(cp, "gains", _GAINS_KEYS,
                                                required=_GAINS_KEYS)))
    init = _floats("initial", _section(cp, "initial", _STATE_KEYS))
    initial = np.array([init.get(k, 0.0) for k in _STATE_KEYS])
    run = _section(cp, "run", _RUN_KEYS)
    return Scenario(
        vehicle=vehicle, cost=cost, gains=gains, initial=initial,
        horizon=_number("run", "horizon", run.get("horizon", 100.0)),
        samples_per_period=_number("run", "samples_per_period",
                                   run.get("samples_per_period", 200), int),
        output_dir=str(run.get("output_dir", ".")))


def _run(scenario, rhs, step, name, surge=None):
    """Integrate `rhs` over the horizon; record the cost and the inputs.

    `surge` is the surge law on arrays of samples; the averaged run has
    none (zero surge input) and does not read epsilon. A failure is
    re-raised as a RuntimeError naming the run and its gains.
    """
    gains = scenario.gains
    try:
        traj = integrate(rhs, scenario.initial,
                         IntegratorSettings(step=step, tf=scenario.horizon))
    except Exception as exc:
        eps = "" if surge is None else f" eps={gains.epsilon}"
        raise RuntimeError(
            f"{name} run failed ({exc}); gains k={gains.k} c={gains.c}{eps}, "
            f"horizon={scenario.horizon}") from exc
    # sample by sample: on whole columns numpy squares by x * x, where a
    # scalar's ** 2 calls libm pow, and 4 of the reference run's 31,832
    # quadratic values would move by 1 ULP
    states = traj.states
    rho = np.fromiter(map(scenario.cost.value, states[:, 0], states[:, 1]), float, len(traj.t))
    u1 = np.zeros_like(rho) if surge is None else surge(traj.t, rho)
    traj.inputs = np.column_stack([u1, np.full_like(rho, gains.c)])
    traj.rho = rho
    return traj


def run_full(scenario):
    """Integrate the oscillatory closed loop, recording input and cost.

    The step is the largest that divides the horizon and resolves the
    dither period in `samples_per_period` steps.
    """
    p = scenario.vehicle
    gains = scenario.gains
    value = scenario.cost.value
    c_torque = gains.c
    u1 = surge_law(gains)

    def rhs(t, y):
        return dynamics_rhs(p, y, (u1(t, value(y[0], y[1])), c_torque))

    step = dividing_step(scenario.horizon, gains.epsilon * 2.0 * math.pi
                         / scenario.samples_per_period)
    return _run(scenario, rhs, step, "full", surge=surge_law(gains, np.cos))


def run_averaged(scenario):
    """Integrate the symmetric product system (single-dither closed form).

    The surge velocity is forced by -Lambda_11 <B1:B1>. The averaged system
    has no dither, so its grid is `AVERAGED_STEPS` steps over the horizon
    whatever epsilon and samples_per_period are.
    """
    p = scenario.vehicle
    c_torque = scenario.gains.c
    self_product = es_surge_self_product(p, scenario.gains.k, scenario.cost)

    def rhs(_t, y):
        dx, dy, dth, dvx, dvy, dom = dynamics_rhs(p, y, (0.0, c_torque))
        return (dx, dy, dth, dvx - LAMBDA_11 * self_product(y[0], y[1], y[2]),
                dvy, dom)

    return _run(scenario, rhs, scenario.horizon / AVERAGED_STEPS, "averaged")


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
    x' = cos(theta) vx - sin(theta) vy and y' = sin(theta) vx + cos(theta) vy.
    """
    s = traj.states
    cos, sin = np.cos(s[:, 2]), np.sin(s[:, 2])
    rates = (cos * s[:, 3] - sin * s[:, 4], sin * s[:, 3] + cos * s[:, 4])
    return [hermite(traj.t, s[:, j], rates[j], t) for j in (0, 1)]


def sup_position_deviation(full, averaged, t_max=None):
    """Sup over time of planar-position distance between the two runs.

    Heading and yaw rate are excluded on purpose. The averaged run is
    evaluated at the full run's times by cubic Hermite interpolation with
    exact position rates, so its coarser grid costs no accuracy that the
    metric could see.
    """
    if not np.allclose(full.states[0], averaged.states[0], atol=1e-12):
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
    gains = scenario.gains
    kwargs = {"k": gains.k, "c": gains.c, "epsilon": gains.epsilon}
    kwargs[axis] = value
    return replace(scenario, gains=EsGains(**kwargs))


def sweep(base, axis, values):
    """Run the full loop per value; pair each with its averaged run.

    Returns a list of row dicts matching the metrics CSV columns. Failing
    runs are recorded with their reason and the sweep continues. Averaged
    runs are cached per (k, c): within a sweep only the axis value varies,
    and the averaged run reads neither epsilon nor samples_per_period (its
    grid is `AVERAGED_STEPS` steps over the horizon), so (k, c) fixes it
    and a row's result does not depend on the order of the values.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
    rows = []
    averaged_cache = {}
    for value in values:
        try:
            sc = _with_value(base, axis, value)
            full = run_full(sc)
            key = (sc.gains.k, sc.gains.c)
            if key not in averaged_cache:
                averaged_cache[key] = run_averaged(sc)
            metrics = compare(full, averaged_cache[key], sc)
            rows.append({
                "param_value": value,
                "final_error": metrics.final_error,
                "conv_time_r": metrics.convergence_time,
                "path_length": metrics.path_length,
                "sup_deviation": metrics.sup_deviation,
                "status": "ok",
            })
        except Exception as exc:
            rows.append({
                "param_value": value,
                "final_error": math.nan, "conv_time_r": math.nan,
                "path_length": math.nan, "sup_deviation": math.nan,
                "status": str(exc).replace("\n", " ").replace(",", ";"),
            })
    return rows


# ---------------------------------------------------------------------------
# file output

def _fmt(x):
    return format(x, ".15g")


# rows per block written by `write_columns`: a trajectory stacked whole is a
# multi-megabyte temporary, and freeing one that large makes malloc keep
# later arrays on the heap (+2 MB peak RSS over repeated CLI compare runs)
_CSV_BLOCK_ROWS = 1024


def write_columns(path, header, columns):
    """CSV of column-stacked arrays under `header`, 15 significant digits.

    Each block of rows is formatted by one `%` over a template of that many
    rows.
    """
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])
            rows, width = block.shape
            row = ",".join(["%.15g"] * width) + "\n"
            f.write((row * rows) % tuple(block.ravel().tolist()))


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
