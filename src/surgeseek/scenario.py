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
from .averaging import AVERAGED_STEPS
from .dither import EsGains
from .integrator import IntegratorSettings, Trajectory, integrate
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
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (6,):
            raise ValueError("initial state must have 6 components")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.samples_per_period < 50:
            raise ValueError("need at least 50 samples per dither period")
        bound = c_hat_bound(self.vehicle)
        if self.gains.c >= bound:
            self.warnings.append(
                f"torque c={self.gains.c:g} is at or above the shifted-passivity "
                f"bound {bound:g}; continuing anyway")


def _cost_from_config(section):
    kwargs = {k: float(v) for k, v in section.items() if k != "name"}
    return costs.get_field(section.get("name", "quadratic"), **kwargs)


def load_scenario(path):
    """Parse an INI scenario file (sections vehicle/cost/gains/initial/run)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"scenario file not found: {path}")
    veh = cp["vehicle"]
    vehicle = VehicleParams.diagonal(
        m11=veh.getfloat("m11"), m22=veh.getfloat("m22"), m33=veh.getfloat("m33"),
        d11=veh.getfloat("d11"), d22=veh.getfloat("d22"), d33=veh.getfloat("d33"))
    cost = _cost_from_config(cp["cost"]) if cp.has_section("cost") else costs.quadratic_cost()
    g = cp["gains"]
    gains = EsGains(k=g.getfloat("k"), c=g.getfloat("c"), epsilon=g.getfloat("epsilon"))
    init = cp["initial"] if cp.has_section("initial") else {}
    initial = np.array([float(init.get(k, 0.0))
                        for k in ("x", "y", "theta", "vx", "vy", "omega")])
    run = cp["run"] if cp.has_section("run") else {}
    return Scenario(
        vehicle=vehicle, cost=cost, gains=gains, initial=initial,
        horizon=float(run.get("horizon", 100.0)),
        samples_per_period=int(run.get("samples_per_period", 200)),
        output_dir=str(run.get("output_dir", ".")))


def _step_for(scenario):
    """Largest step that divides the horizon and resolves the dither period."""
    h = scenario.gains.epsilon * 2.0 * math.pi / scenario.samples_per_period
    return scenario.horizon / max(1, int(math.ceil(scenario.horizon / h)))


def run_full(scenario):
    """Integrate the oscillatory closed loop, recording input and cost."""
    p = scenario.vehicle
    gains = scenario.gains
    cost = scenario.cost
    k_over_eps = gains.k / gains.epsilon
    inv_eps = 1.0 / gains.epsilon
    c_torque = gains.c
    value = cost.value
    cos = math.cos

    def rhs(t, y):
        u1 = k_over_eps * cos(t * inv_eps) * value(y[0], y[1])
        return dynamics_rhs(p, y, (u1, c_torque))

    step = _step_for(scenario)
    try:
        traj = integrate(rhs, scenario.initial,
                         IntegratorSettings(step=step, tf=scenario.horizon))
    except Exception as exc:
        raise RuntimeError(
            f"full run failed ({exc}); gains k={gains.k} c={gains.c} "
            f"eps={gains.epsilon}, horizon={scenario.horizon}") from exc
    rho = np.array([value(s[0], s[1]) for s in traj.states])
    u1 = k_over_eps * np.cos(traj.t * inv_eps) * rho
    u2 = np.full_like(u1, c_torque)
    traj.inputs = np.column_stack([u1, u2])
    traj.rho = rho
    return traj


def run_averaged(scenario):
    """Integrate the symmetric product system (single-dither closed form).

    The averaged system has no dither, so its grid is `AVERAGED_STEPS`
    steps over the horizon whatever epsilon and samples_per_period are.
    """
    p = scenario.vehicle
    gains = scenario.gains
    cost = scenario.cost
    c_torque = gains.c
    # Lambda_11 = 1/4 for the cosine dither; forcing = -Lambda_11 <B1:B1>
    coef = 0.25 * 2.0 * (gains.k / p.m11) ** 2
    value, gradient = cost.value, cost.gradient
    cos, sin = math.cos, math.sin

    def rhs(_t, y):
        rho = value(y[0], y[1])
        gx, gy = gradient(y[0], y[1])
        forcing = coef * rho * (gx * cos(y[2]) + gy * sin(y[2]))
        out = dynamics_rhs(p, y, (0.0, c_torque))
        out[3] -= forcing
        return out

    step = scenario.horizon / AVERAGED_STEPS
    try:
        traj = integrate(rhs, scenario.initial,
                         IntegratorSettings(step=step, tf=scenario.horizon))
    except Exception as exc:
        raise RuntimeError(
            f"averaged run failed ({exc}); gains k={gains.k} c={gains.c}, "
            f"horizon={scenario.horizon}") from exc
    rho = np.array([value(s[0], s[1]) for s in traj.states])
    traj.inputs = np.column_stack([np.zeros_like(rho), np.full_like(rho, c_torque)])
    traj.rho = rho
    return traj


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

    The slopes are the exact position rates of each sample,
    x' = cos(theta) vx - sin(theta) vy and y' = sin(theta) vx + cos(theta) vy,
    so the interpolant is O(h^4) accurate between samples and exact at them
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).
    """
    ts, s = traj.t, traj.states
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    u = (t - ts[i]) / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    cos, sin = np.cos(s[:, 2]), np.sin(s[:, 2])
    rates = (cos * s[:, 3] - sin * s[:, 4], sin * s[:, 3] + cos * s[:, 4])
    return [h00 * p[i] + h10 * h * r[i] + h01 * p[i + 1] + h11 * h * r[i + 1]
            for p, r in zip((s[:, 0], s[:, 1]), rates)]


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


def v1_monitor(traj, params, gains, cost):
    """Diagnostic V1 = 1/2 vx^2 + (alpha/2) rho^2 along a trajectory."""
    alpha = 0.5 * (gains.k / params.m11) ** 2
    vx = traj.states[:, 3]
    rho = np.array([cost.value(s[0], s[1]) for s in traj.states])
    return 0.5 * vx ** 2 + 0.5 * alpha * rho ** 2


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("epsilon", "k", "c")


def _with_value(scenario, axis, value):
    gains = scenario.gains
    kwargs = {"k": gains.k, "c": gains.c, "epsilon": gains.epsilon}
    kwargs[axis] = value
    return replace(scenario, gains=EsGains(**kwargs), warnings=[])


def sweep(base, axis, values, radius=None):
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
            metrics = compare(full, averaged_cache[key], sc, radius=radius)
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
    if isinstance(x, float) and math.isinf(x):
        return "never"
    return format(x, ".15g")


# rows per block written by `write_columns`: a trajectory stacked whole is a
# multi-megabyte temporary, and freeing one that large makes malloc keep
# later arrays on the heap (+2 MB peak RSS over repeated CLI compare runs)
_CSV_BLOCK_ROWS = 1024


def write_columns(path, header, columns):
    """CSV of column-stacked arrays under `header`, 15 significant digits."""
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[lo:lo + _CSV_BLOCK_ROWS] for c in columns]
            np.savetxt(f, np.column_stack(block), fmt="%.15g", delimiter=",")


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
                _fmt(r["conv_time_r"]),
                _fmt(r["path_length"]),
                _fmt(r["sup_deviation"]),
                str(r["status"]),
            ]) + "\n")
