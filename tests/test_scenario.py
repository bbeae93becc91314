import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import surgeseek.scenario as sc
from surgeseek.averaging import (LAMBDA_11, averaged_rhs, closed_loop_fields,
                                 es_input_field, lambda_matrix)
from surgeseek.costs import quadratic_cost
from surgeseek.dither import EsGains, es_dither_set
from surgeseek.integrator import IntegratorSettings, Trajectory, integrate
from surgeseek.vehicle import reference_boat

BOAT = reference_boat()
COST = quadratic_cost()
BENCHMARK_INI = Path(__file__).resolve().parents[1] / "scenarios" / "benchmark.ini"

SCENARIO_INI = """\
[vehicle]
m11 = 1.412
m22 = 1.982
m33 = 0.354
d11 = 3.436
d22 = 12.99
d33 = 0.864

[cost]
name = quadratic
a = 1.0
b = 0.5
x_star = 2.0
y_star = 3.0
floor = 1.0

[gains]
k = 1.0
c = 1.0
epsilon = 0.1

[initial]
x = 0.0
y = 0.0
theta = 0.0
vx = 0.0
vy = 0.0
omega = 0.0

[run]
horizon = 20.0
samples_per_period = 100
output_dir = .
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "benchmark.ini"
    path.write_text(SCENARIO_INI)
    return str(path)


def _scenario(**overrides):
    kwargs = dict(vehicle=BOAT, cost=COST, gains=EsGains(1.0, 1.0, 0.1),
                  initial=np.zeros(6), horizon=20.0, samples_per_period=100)
    kwargs.update(overrides)
    return sc.Scenario(**kwargs)


def test_load_scenario(scenario_file):
    s = sc.load_scenario(scenario_file)
    assert s.vehicle.m11 == 1.412
    assert s.cost.name == "quadratic"
    assert s.cost.minimizer == (2.0, 3.0)
    assert s.gains.epsilon == 0.1
    assert s.horizon == 20.0
    assert s.samples_per_period == 100
    assert np.allclose(s.initial, 0.0)
    assert s.warnings == []


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        sc.load_scenario(str(tmp_path / "nope.ini"))


@pytest.mark.parametrize("old, new, error", [
    ("c = 1.0\n", "", r"\[gains\] c: required key is missing"),
    ("samples_per_period", "samples_per_perod", r"\[run\] samples_per_perod: unknown key"),
    ("floor = 1.0", "flor = 2.0", r"\[cost\] flor: unknown key"),
    ("m11 = 1.412", "m11 = 1,412", r"\[vehicle\] m11: could not convert .*'1,412'"),
    ("\na = 1.0", "\na = one", r"\[cost\] a: could not convert"),
    ("k = 1.0", "k = 1.0.0", r"\[gains\] k: could not convert"),
    ("theta = 0.0", "theta = 0..1", r"\[initial\] theta: could not convert"),
    ("horizon = 100.0", "horizon = 100 s", r"\[run\] horizon: could not convert"),
    ("samples_per_period = 200", "samples_per_period = 200.5",
     r"\[run\] samples_per_period: invalid literal for int"),
    ("epsilon = 0.1", "epsilon = inf", r"\[gains\] epsilon: 'inf' is not a finite number"),
    ("horizon = 100.0", "horizon = nan", r"\[run\] horizon: 'nan' is not a finite number"),
    ("floor = 1.0", "floor = nan", r"\[cost\] floor: 'nan' is not a finite number"),
    ("x = 0.0", "x = nan", r"\[initial\] x: 'nan' is not a finite number"),
    (None, None, None),
])
def test_load_scenario_names_the_bad_key(tmp_path, old, new, error):
    text = BENCHMARK_INI.read_text()
    if old is None:
        s = sc.load_scenario(str(BENCHMARK_INI))
        assert (s.horizon, s.samples_per_period, s.output_dir) == (100.0, 200, "out")
        assert s.cost.minimizer == (2.0, 3.0)
        return
    assert old in text
    path = tmp_path / "scenario.ini"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=error):
        sc.load_scenario(str(path))


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(horizon=0.0)
    with pytest.raises(ValueError):
        _scenario(samples_per_period=10)
    with pytest.raises(ValueError):
        _scenario(initial=np.zeros(4))


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_scenario_names_a_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be finite"):
        _scenario(horizon=horizon)


@pytest.mark.parametrize("name", ["rotated_quadratic", "log_bowl"])
def test_benchmark_seeks_the_other_fields(tmp_path, name):
    # the benchmark scenario with only the field swapped: the full loop must
    # meet claim 1's declared threshold and settle within the radius
    path = tmp_path / "scenario.ini"
    path.write_text(BENCHMARK_INI.read_text().replace("name = quadratic", f"name = {name}"))
    s = sc.load_scenario(str(path))
    assert s.cost.name == name
    metrics = sc.compare(sc.run_full(s), sc.run_averaged(s), s)
    assert metrics.final_error < sc.DECLARED_CONSTANTS["final_error_threshold_eps_0.1"]
    assert math.isfinite(metrics.convergence_time)


def test_torque_above_bound_warns_and_continues():
    s = _scenario(gains=EsGains(1.0, 25.0, 0.1))
    assert len(s.warnings) == 1
    assert "20.25" in s.warnings[0]


def test_replace_gives_each_scenario_its_own_warning():
    s = _scenario(gains=EsGains(1.0, 25.0, 0.1))
    t = replace(s, horizon=5.0)
    u = replace(t, horizon=6.0)
    assert [len(x.warnings) for x in (s, t, u)] == [1, 1, 1]
    assert s.warnings is not t.warnings and t.warnings is not u.warnings


def test_run_full_records_inputs_and_cost(tmp_path):
    s = _scenario(horizon=5.0)
    traj = sc.run_full(s)
    assert traj.inputs.shape == (len(traj.t), 2)
    assert np.all(traj.inputs[:, 1] == 1.0)
    assert traj.rho[0] == pytest.approx(9.5)
    # surge input is the measurement times the dither at each sample
    i = 123
    expected = (1.0 / 0.1) * math.cos(traj.t[i] / 0.1) * traj.rho[i]
    assert traj.inputs[i, 0] == pytest.approx(expected, rel=1e-12)


def test_run_full_zero_gain_spins_in_place():
    s = _scenario(gains=EsGains(0.0, 1.0, 0.1))
    traj = sc.run_full(s)
    radius = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(radius) < 1e-9  # rest start, pure torque: no translation
    assert sc.final_error(traj, (2.0, 3.0), 0.1) > 1.0
    assert traj.states[-1, 5] == pytest.approx(1.0 / 0.864, abs=1e-3)


def test_run_full_started_at_source_stays_near_it():
    s = _scenario(initial=np.array([2.0, 3.0, 0.0, 0.0, 0.0, 0.0]))
    traj = sc.run_full(s)
    assert np.any(np.abs(traj.inputs[:, 0]) > 1.0)  # dither force is nonzero
    errs = np.hypot(traj.states[:, 0] - 2.0, traj.states[:, 1] - 3.0)
    assert np.max(errs) < 0.2
    assert sc.final_error(traj, (2.0, 3.0), 0.1) < 0.2


def test_run_averaged_zero_gain_matches_pure_torque():
    s = _scenario(gains=EsGains(0.0, 1.0, 0.1), horizon=10.0)
    avg = sc.run_averaged(s)
    assert np.max(np.hypot(avg.states[:, 0], avg.states[:, 1])) < 1e-9
    assert avg.states[-1, 5] == pytest.approx(1.0 / 0.864, abs=1e-3)


def _final_gap(a, b):
    return np.linalg.norm(a.states[-1] - b.states[-1]) / np.linalg.norm(b.states[-1])


def test_run_full_matches_generic_closed_loop():
    s = replace(sc.load_scenario(str(BENCHMARK_INI)), horizon=1.0)
    full = sc.run_full(s)
    f, g = closed_loop_fields(s.vehicle, s.gains, s.cost)
    eps = s.gains.epsilon

    def rhs(t, y):
        return f(y) + (math.cos(t / eps) / eps) * g(y)

    generic = integrate(rhs, s.initial, IntegratorSettings(step=full.step, tf=s.horizon))
    assert _final_gap(full, generic) <= 1e-9


def test_run_averaged_matches_generic_averaged_rhs():
    s = replace(sc.load_scenario(str(BENCHMARK_INI)), horizon=1.0)
    avg = sc.run_averaged(s)
    p, gains = s.vehicle, s.gains
    fields = [es_input_field(p, gains.k, s.cost)]
    lam = lambda_matrix(es_dither_set(gains, s.cost))
    assert lam[0, 0] == pytest.approx(LAMBDA_11, rel=1e-12)

    def rhs(_t, y):
        return averaged_rhs(p, (0.0, gains.c), fields, lam, y)

    generic = integrate(rhs, s.initial, IntegratorSettings(step=avg.step, tf=s.horizon))
    assert _final_gap(avg, generic) <= 1e-9


# sha256 of full.csv and averaged.csv for a horizon-2 copy of
# scenarios/benchmark.ini, taken from the numpy-array RK4 and vessel kernel
# that the float-tuple ones replaced: a rewrite of the stepping path must
# keep these bytes (x86-64, glibc libm)
PINNED_CSV_SHA256 = {
    "full.csv": "7cab9ad3ff3367f3468bfb7b836fe184f49085ea7cb6e87e5ba48276bb0d2330",
    "averaged.csv": "66a41b329e3fdf62ca960e51b8c1ea364c81ad1468b1743da101d436848809a9",
}


def test_trajectory_csv_bytes_are_pinned(tmp_path):
    s = replace(sc.load_scenario(str(BENCHMARK_INI)), horizon=2.0)
    for name, run in (("full.csv", sc.run_full), ("averaged.csv", sc.run_averaged)):
        path = tmp_path / name
        sc.write_trajectory_csv(run(s), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256[name], name


def test_compare_identical_runs():
    s = _scenario(horizon=5.0)
    traj = sc.run_full(s)
    metrics = sc.compare(traj, traj, s)
    assert metrics.sup_deviation == 0.0
    assert metrics.path_length > 0.0


def test_compare_rejects_mismatched_initial_states():
    a = sc.run_full(_scenario(horizon=2.0))
    b = sc.run_full(_scenario(horizon=2.0,
                              initial=np.array([1.0, 0, 0, 0, 0, 0.0])))
    with pytest.raises(ValueError, match="initial"):
        sc.compare(a, b, _scenario())


def test_convergence_time_never_sentinel():
    s = _scenario(gains=EsGains(0.0, 1.0, 0.1), horizon=5.0)
    traj = sc.run_full(s)
    assert sc.convergence_time(traj, (2.0, 3.0), 0.1, radius=0.5) == math.inf


def test_v1_monitor_non_increasing_on_averaged_run():
    s = _scenario(horizon=60.0, samples_per_period=50)
    avg = sc.run_averaged(s)
    v1 = sc.v1_monitor(avg, BOAT, s.gains)
    vy_max = np.max(np.abs(avg.states[:, 4]))
    assert vy_max < 0.3  # sway stays small under c=1
    slack = 1e-9 + vy_max * avg.step
    assert np.max(np.diff(v1)) <= slack
    assert v1[-1] < 0.1 * v1[0]


def test_singleton_sweep_matches_single_run():
    s = _scenario(horizon=10.0)
    rows = sc.sweep(s, "epsilon", [0.1])
    full = sc.run_full(s)
    avg = sc.run_averaged(s)
    metrics = sc.compare(full, avg, s)
    assert rows[0]["status"] == "ok"
    assert rows[0]["final_error"] == pytest.approx(metrics.final_error, rel=1e-12)
    assert rows[0]["sup_deviation"] == pytest.approx(metrics.sup_deviation, rel=1e-12)


def test_sweep_rows_do_not_depend_on_value_order_or_epsilon():
    s = _scenario(horizon=2.0, samples_per_period=3500)
    assert sc.sweep(s, "epsilon", [0.2, 0.1])[1] == sc.sweep(s, "epsilon", [0.1])[0]
    a = sc.run_averaged(s)
    b = sc.run_averaged(_scenario(gains=EsGains(1.0, 1.0, 0.05), horizon=2.0,
                                  samples_per_period=3500))
    assert np.array_equal(a.states, b.states)


def _cubic_path(t, theta):
    """x = t^3, y = t^2 at constant heading, body velocities to match."""
    c, s = math.cos(theta), math.sin(theta)
    xd, yd = 3.0 * t ** 2, 2.0 * t
    states = np.column_stack([t ** 3, t ** 2, np.full_like(t, theta),
                              c * xd + s * yd, -s * xd + c * yd, np.zeros_like(t)])
    return Trajectory(t=t, states=states)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_dense_output_is_exact_on_cubic_paths(theta):
    fine = _cubic_path(np.linspace(0.0, 1.0, 1001), theta)
    coarse = _cubic_path(np.linspace(0.0, 1.0, 11), theta)
    assert sc.sup_position_deviation(fine, coarse) <= 1e-12
    assert sc.sup_position_deviation(fine, coarse, t_max=0.55) <= 1e-12


def test_sweep_continues_past_failures():
    s = _scenario(horizon=5.0)
    rows = sc.sweep(s, "epsilon", [0.1, -1.0])
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] != "ok"
    assert math.isnan(rows[1]["final_error"])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sc.sweep(_scenario(), "horizon", [1.0])


def test_trajectory_csv_format(tmp_path):
    s = _scenario(horizon=2.0)
    traj = sc.run_full(s)
    path = tmp_path / "run.csv"
    sc.write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,theta,vx,vy,omega,u1,u2,rho"
    assert len(lines) == len(traj.t) + 1
    # near-full precision round trip (15 significant digits)
    row = [float(v) for v in lines[2].split(",")]
    assert row[0] == pytest.approx(traj.t[1], rel=1e-14)
    assert row[9] == pytest.approx(traj.rho[1], rel=1e-14)


def test_trajectory_csv_deterministic(tmp_path):
    s1 = _scenario(horizon=2.0)
    s2 = _scenario(horizon=2.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sc.write_trajectory_csv(sc.run_full(s1), str(p1))
    sc.write_trajectory_csv(sc.run_full(s2), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_metrics_csv_format(tmp_path):
    rows = [{"param_value": 0.1, "final_error": 0.2, "conv_time_r": math.inf,
             "path_length": 3.0, "sup_deviation": 0.4, "status": "ok"}]
    path = tmp_path / "m.csv"
    sc.write_metrics_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "param_value,final_error,conv_time_r,path_length,sup_deviation,status"
    assert ",never," in lines[1]
