import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import surgeseek.scenario as sc
from surgeseek.averaging import (AVERAGED_STEPS, LAMBDA_11, averaged_rhs,
                                 closed_loop_fields, es_input_field, lambda_matrix)
from surgeseek.cli import main
from surgeseek.costs import get_field, quadratic_cost
from surgeseek.dither import EsGains, es_dither_set, surge_law
from surgeseek import integrator
from surgeseek.integrator import BlowUpError, IntegratorSettings, Trajectory, integrate
from surgeseek.vehicle import VehicleParams, reference_boat

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
    ("d22 = 12.99", "d22 = -1.0", r"^damping entry d22 must be strictly positive, got -1.0$"),
    ("\na = 1.0", "\na = -1", r"^quadratic coefficient a must be strictly positive, got -1.0$"),
    ("x = 0.0", "x = nan", r"\[initial\] x: 'nan' is not a finite number"),
    ("name = quadratic", "name = quadratc",
     r"^\[cost\] name: unknown cost field 'quadratc'; known: \["),
    ("output_dir = out", "output_dir =", r"^\[run\] output_dir: empty"),
    # a misspelt section would load the default start at the origin
    ("[initial]\nx = 0.0", "[intial]\nx = 5.0",
     r"^\[intial\]: unknown section; expected one of vehicle, cost, gains, initial, run$"),
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


@pytest.mark.parametrize("value", [math.nan, 200.0, "200", 49])
def test_scenario_names_a_bad_samples_per_period(value):
    with pytest.raises(ValueError, match=rf"samples_per_period .*, got {value!r}"):
        _scenario(samples_per_period=value)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_scenario_names_a_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be finite"):
        _scenario(horizon=horizon)


@pytest.mark.parametrize("key, value", [("x", math.inf), ("theta", -math.inf),
                                        ("omega", math.nan)])
def test_scenario_names_a_non_finite_initial_component(key, value):
    initial = np.zeros(6)
    initial[sc._STATE_KEYS.index(key)] = value
    with pytest.raises(ValueError, match=rf"^initial state {key} must be finite, "
                                         rf"got {value}$"):
        _scenario(initial=initial)


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


def _bits(values):
    return np.array(list(values), dtype=float).tobytes()


@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
def test_recorded_columns_are_the_laws_the_loop_stepped(monkeypatch, name):
    applied = []   # (t, rho, u1) of each surge force evaluated, in call order

    def logged_surge_law(gains):
        law = surge_law(gains)

        def u1(t, rho):
            applied.append((t, rho, law(t, rho)))
            return applied[-1][2]

        return u1

    monkeypatch.setattr(sc, "surge_law", logged_surge_law)
    s = _scenario(horizon=5.0, cost=get_field(name))
    full, averaged = sc.run_full(s), sc.run_averaged(s)
    # the RHS applied these first, four per step; stage 1 of step i reads sample i
    n = len(full.t) - 1
    stage1 = applied[:4 * n:4]
    for j, column in enumerate([full.t, full.rho, full.inputs[:, 0]]):
        assert _bits([call[j] for call in stage1]) == column[:-1].tobytes()
    law = surge_law(s.gains)
    assert _bits(map(law, full.t.tolist(), full.rho.tolist())) == full.inputs[:, 0].tobytes()
    for traj in (full, averaged):
        x, y = traj.states[:, :2].T.tolist()
        assert _bits(map(s.cost.value, x, y)) == traj.rho.tobytes()
        assert _bits([s.gains.c] * len(traj.t)) == traj.inputs[:, 1].tobytes()
    assert _bits([0.0] * len(averaged.t)) == averaged.inputs[:, 0].tobytes()


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

    # as floats, so that `integrate` steps its later stages on floats
    def rhs(_t, y):
        return tuple(averaged_rhs(p, (0.0, gains.c), fields, lam, y).tolist())

    generic = integrate(rhs, s.initial, IntegratorSettings(step=avg.step, tf=s.horizon))
    assert _final_gap(avg, generic) <= 1e-9


def test_a_numpy_built_vessel_runs_as_a_float_built_one():
    entries = (1.412, 1.982, 0.354, 3.436, 12.99, 0.864)
    from_numpy = VehicleParams.diagonal(*np.array(entries))
    assert [type(v) for v in (from_numpy.m11, from_numpy.m22, from_numpy.m33)] == [float] * 3
    # only real numbers are converted: a string is still refused
    with pytest.raises(TypeError, match="m22 must be a real number"):
        VehicleParams.diagonal(1.412, "1.982", 0.354, 3.436, 12.99, 0.864)
    s = replace(sc.load_scenario(str(BENCHMARK_INI)), horizon=2.0)
    want = sc.run_averaged(replace(s, vehicle=VehicleParams.diagonal(*entries)))
    got = sc.run_averaged(replace(s, vehicle=from_numpy))
    assert got.states.tobytes() == want.states.tobytes()


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


def test_compare_checks_the_start_of_each_column_the_full_run_carries():
    # a sweep's full run carries x and y only
    full = sc._full_positions(_scenario(horizon=2.0))
    moved_y = sc.run_averaged(_scenario(horizon=2.0, initial=[0.0, 1.0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="initial"):
        sc.compare(full, moved_y, _scenario())
    # a start that differs in a column the full run dropped is not read
    moved_vy = sc.run_averaged(_scenario(horizon=2.0, initial=[0.0, 0, 0, 0, 1.0, 0]))
    assert sc.compare(full, moved_vy, _scenario()).sup_deviation > 0.0


def test_a_sweeps_averaged_run_drops_only_omega():
    # a sweep's averaged run task sends back what the metrics read
    s = _scenario(horizon=2.0)
    whole = sc._integrate_averaged(s)
    sent = sc._averaged_states(s)
    assert sent.t.tobytes() == whole.t.tobytes()
    assert sent.states.tobytes() == whole.states[:, :5].tobytes()
    full = sc._full_positions(s)
    assert sc.compare(full, sent, s) == sc.compare(full, whole, s)


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


def _assert_rows_are_single_runs(base, axis, values, rows):
    """Each row equals the runners' metrics of its value exactly."""
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        s = sc._with_value(base, axis, value)
        metrics = sc.compare(sc.run_full(s), sc.run_averaged(s), s)
        assert row["status"] == "ok"
        assert row["param_value"] == value
        assert row["final_error"] == metrics.final_error
        assert row["conv_time_r"] == metrics.convergence_time
        assert row["path_length"] == metrics.path_length
        assert row["sup_deviation"] == metrics.sup_deviation


def test_singleton_sweep_matches_single_run():
    # a sweep integrates without recording cost and inputs; its rows must
    # still be the runners' metrics exactly, for one value and for several
    base = _scenario(horizon=10.0)
    for axis, values in (("epsilon", [0.1]), ("k", [0.5, 1.0, 1.5])):
        _assert_rows_are_single_runs(base, axis, values, sc.sweep(base, axis, values))


def test_sweep_evaluates_the_cost_once_per_rhs_evaluation(monkeypatch):
    calls = {"value": 0, "rhs": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    integrate = sc.integrate
    monkeypatch.setattr(sc, "integrate", lambda rhs, initial, settings:
                        integrate(counted("rhs", rhs), initial, settings))
    cost = replace(COST, value=counted("value", COST.value))
    rows = sc.sweep(_scenario(cost=cost, horizon=2.0), "k", [0.5, 1.5])
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert calls["rhs"] > 0
    assert calls["value"] == calls["rhs"]


def _three_cpus(monkeypatch):
    """Make a sweep see three usable CPUs, so that it forks two children."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)


def _counted_starts(monkeypatch):
    """Count the worker processes started; the list holds one entry per start."""
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def counted(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return starts


def test_forked_sweep_matches_single_runs(monkeypatch):
    # the three averaged runs outweigh the three full runs of a 10 s
    # horizon: share 0 (both runs of k = 0.5) runs in-process, those of
    # k = 1 and k = 1.5 in two children
    _three_cpus(monkeypatch)
    starts = _counted_starts(monkeypatch)
    base = _scenario(horizon=10.0)
    values = [0.5, 1.0, 1.5]
    rows = sc.sweep(base, "k", values)
    assert len(starts) == 2
    assert multiprocessing.active_children() == []
    _assert_rows_are_single_runs(base, "k", values, rows)


def test_forked_sweep_equals_one_value_sweeps(monkeypatch):
    _three_cpus(monkeypatch)
    starts = _counted_starts(monkeypatch)
    s = _scenario(horizon=5.0)
    rows = sc.sweep(s, "epsilon", [0.1, 0.05])
    # two full runs and the averaged run they share are three tasks: two
    # children, never more than min(tasks, CPUs) - 1
    assert len(starts) == 2
    assert rows == sc.sweep(s, "epsilon", [0.1]) + sc.sweep(s, "epsilon", [0.05])
    # a one-value sweep's two runs start one child each
    assert len(starts) == 4


def test_sweep_without_an_affinity_mask_runs_in_process(monkeypatch):
    _three_cpus(monkeypatch)
    starts = _counted_starts(monkeypatch)
    s = _scenario(horizon=2.0)
    # four runs on three CPUs: two children
    forked = sc.sweep(s, "k", [0.5, 1.5])
    assert len(starts) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    del starts[:]
    assert sc.sweep(s, "k", [0.5, 1.5]) == forked
    assert starts == []


def test_run_forked_on_one_cpu_runs_the_tasks_in_order_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    starts = _counted_starts(monkeypatch)
    ran = []

    def task(i):
        ran.append((i, os.getpid()))
        return i * i

    assert sc.run_forked([partial(task, i) for i in range(3)], None) == [0, 1, 4]
    assert ran == [(i, os.getpid()) for i in range(3)]
    assert starts == []


def test_run_forked_on_one_cpu_reraises_a_later_tasks_exception(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    starts = _counted_starts(monkeypatch)

    def fails():
        raise OSError("task 1 failed")

    with pytest.raises(OSError, match="task 1 failed"):
        sc.run_forked([lambda: 0, fails], None)
    assert starts == []


def test_run_forked_on_one_cpu_imports_no_multiprocessing():
    code = ("import os, sys; os.sched_getaffinity = lambda _pid: {0}; "
            "import surgeseek.cli as cli; "
            "assert cli.sc.run_forked([int, float], None) == [0, 0.0]; "
            "print('multiprocessing' in sys.modules)")
    src = str(Path(sc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"


def test_run_forked_shares_the_tasks_out_in_strides(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    starts = _counted_starts(monkeypatch)
    parent = os.getpid()
    results = sc.run_forked([partial(lambda i: (i, os.getpid()), i) for i in range(5)],
                            None)
    assert len(starts) == 1
    assert multiprocessing.active_children() == []
    assert [i for i, _pid in results] == list(range(5))
    # tasks 0, 2 and 4 ran in this process, 1 and 3 in the one child
    assert [pid == parent for _i, pid in results] == [True, False, True, False, True]
    assert results[1][1] == results[3][1]


def test_run_forked_gives_exited_for_each_task_of_a_child_that_dies(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:
            os._exit(3)
        return i

    with _within(10.0):
        results = sc.run_forked([partial(task, i) for i in range(5)],
                                lambda i, code: ("exited", i, code))
    assert multiprocessing.active_children() == []
    assert results == [0, ("exited", 1, 3), 2, ("exited", 3, 3), 4]


# task costs whose longest-first, least-loaded shares differ from strides:
# on two CPUs tasks 1, 3 and 4 are placed onto shares 0, 1 and 1, task 2 onto
# share 0 (loads 7 and 7) and task 0 onto share 0 (the lower index of a tie)
UNEQUAL_COSTS = [1, 5, 2, 4, 3]
UNEQUAL_SHARES = {2: [[0, 1, 2], [3, 4]], 3: [[1], [0, 3], [2, 4]]}


@pytest.mark.parametrize("cpus", [2, 3])
def test_run_forked_places_the_longest_task_first_onto_the_least_loaded_share(
        monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)),
                        raising=False)
    starts = _counted_starts(monkeypatch)
    results = sc.run_forked([partial(lambda i: (i, os.getpid()), i) for i in range(5)],
                            None, UNEQUAL_COSTS)
    assert len(starts) == cpus - 1
    assert multiprocessing.active_children() == []
    assert [i for i, _pid in results] == list(range(5))
    pids = [[results[i][1] for i in share] for share in UNEQUAL_SHARES[cpus]]
    assert set(pids[0]) == {os.getpid()}
    assert all(len(set(share)) == 1 for share in pids)
    assert len({share[0] for share in pids}) == cpus


def test_run_forked_gives_exited_for_exactly_the_tasks_of_the_child_that_dies(
        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)

    def task(i):
        if i == 3:
            os._exit(3)
        return i

    # task 3 is in share 1 with task 0, which ran before it in that child
    with _within(10.0):
        results = sc.run_forked([partial(task, i) for i in range(5)],
                                lambda i, code: ("exited", i, code), UNEQUAL_COSTS)
    assert multiprocessing.active_children() == []
    assert results == [("exited", 0, 3), 1, 2, ("exited", 3, 3), 4]


def test_sweep_passes_one_averaged_task_per_k_and_c_costed_in_steps(monkeypatch):
    passed = []
    run_forked = sc.run_forked

    def spy(tasks, exited, costs=None):
        passed.append((tasks, costs))
        return run_forked(tasks, exited, costs)

    monkeypatch.setattr(sc, "run_forked", spy)
    base = _scenario(horizon=2.0)
    values = [0.1, 0.05, 0.2]
    rows = sc.sweep(base, "epsilon", values)
    assert [row["status"] for row in rows] == ["ok"] * 3
    [(tasks, costs)] = passed
    runs = [task.args[0] for task in tasks]
    assert runs.count(sc._averaged_states) == 1
    assert costs[runs.index(sc._averaged_states)] == AVERAGED_STEPS
    # each full run costs the RK4 steps it takes
    fulls = [(task.args[1], cost) for task, cost in zip(tasks, costs)
             if task.args[0] is sc._full_positions]
    assert [s.gains.epsilon for s, _cost in fulls] == values
    assert [cost for _s, cost in fulls] == [len(sc._integrate_full(s).t) - 1
                                            for s, _cost in fulls]


@contextlib.contextmanager
def _within(seconds):
    """Fail, rather than hang, a block still running after `seconds`."""
    # pytest.fail raises a BaseException: neither a sweep row's `except
    # Exception` nor multiprocessing's `except OSError` around waitpid
    # swallows it
    def expire(_signum, _frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_survives_a_worker_that_dies(monkeypatch):
    _three_cpus(monkeypatch)
    parent = os.getpid()
    sweep_run = sc._sweep_run

    def dies_in_children(run, scenario):
        if os.getpid() != parent:
            os._exit(3)
        return sweep_run(run, scenario)

    monkeypatch.setattr(sc, "_sweep_run", dies_in_children)
    values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    with _within(10.0):
        rows = sc.sweep(_scenario(horizon=2.0), "k", values)
    assert multiprocessing.active_children() == []
    # the six averaged runs (10,000 steps each) are placed first, in
    # strides, then the six full runs (319 steps each): the parent runs
    # both runs of values[0::3], each child both runs of two other values
    assert [row["param_value"] for row in rows] == values
    for i, row in enumerate(rows):
        if i % 3 == 0:
            assert row["status"] == "ok"
        else:
            assert row["status"] != "ok" and "code 3" in row["status"]
            assert math.isnan(row["final_error"])


def test_sweep_reaps_its_workers_when_the_parent_is_interrupted(monkeypatch):
    _three_cpus(monkeypatch)
    parent = os.getpid()

    def interrupted(_run, _scenario):
        if os.getpid() != parent:
            time.sleep(60.0)
        raise KeyboardInterrupt

    monkeypatch.setattr(sc, "_sweep_run", interrupted)
    # the children sleep for 60 s; only terminating them returns sooner
    with _within(10.0), pytest.raises(KeyboardInterrupt):
        sc.sweep(_scenario(), "k", [0.5, 1.0, 1.5])
    assert multiprocessing.active_children() == []


@pytest.fixture
def compare_dir(tmp_path, monkeypatch):
    """An output directory holding a 5 s scenario for CLI compare."""
    monkeypatch.setenv(sc.OUTPUT_DIR_ENV, str(tmp_path))
    (tmp_path / "scenario.ini").write_text(
        SCENARIO_INI.replace("horizon = 20.0", "horizon = 5.0"))
    return tmp_path


def _cli_run(command, monkeypatch, capsys, out, cpus):
    """Exit code, stderr and written files of CLI `command` on the CPUs `cpus`
    (None: no affinity mask); the written files are removed afterwards."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: cpus, raising=False)
    code = main([command, str(out / "scenario.ini")])
    written = {}
    for path in out.iterdir():
        if path.name != "scenario.ini":
            written[path.name] = path.read_bytes()
            path.unlink()
    return code, capsys.readouterr().err, written


def _cli_compare(monkeypatch, capsys, out, cpus):
    return _cli_run("compare", monkeypatch, capsys, out, cpus)


def test_compare_forks_one_child_on_two_cpus_and_writes_the_same_bytes(
        monkeypatch, capsys, compare_dir):
    starts = _counted_starts(monkeypatch)
    code, err, forked = _cli_compare(monkeypatch, capsys, compare_dir, {0, 1})
    assert (code, err, len(starts)) == (0, "", 1)
    assert multiprocessing.active_children() == []
    assert sorted(forked) == ["averaged.csv", "compare_meta.json", "full.csv"]
    for cpus in ({0}, None):
        assert _cli_compare(monkeypatch, capsys, compare_dir, cpus) == (0, "", forked)
    assert len(starts) == 1


@pytest.mark.parametrize("edit", [("epsilon = 0.1", "epsilon = 1e20"),
                                  ("epsilon = 0.1", "epsilon = 1e308"),
                                  ("horizon = 5.0", "horizon = 1e-300")])
def test_compare_averages_the_whole_run_over_a_longer_dither_period(
        monkeypatch, capsys, compare_dir, edit):
    # a dither period longer than the run, or one too many samples long
    # for an int, takes every sample of the record as its window
    path = compare_dir / "scenario.ini"
    path.write_text(path.read_text().replace(*edit))
    code, err, written = _cli_run("compare", monkeypatch, capsys, compare_dir, {0})
    assert (code, err) == (0, "")
    metrics = json.loads(written["compare_meta.json"])["metrics"]
    s = sc.load_scenario(str(path))
    traj = sc.run_full(s)
    assert sc.period_window_samples(traj, s.gains.epsilon) == len(traj.t)
    errors = np.hypot(traj.states[:, 0] - 2.0, traj.states[:, 1] - 3.0)
    assert math.isfinite(metrics["final_error"])
    assert metrics["final_error"] == pytest.approx(float(np.mean(errors)), rel=1e-12)


def test_compare_reports_a_child_that_dies(monkeypatch, capsys, compare_dir):
    parent = os.getpid()
    run_averaged = sc.run_averaged

    def dies_in_the_child(s):
        if os.getpid() != parent:
            os._exit(3)
        return run_averaged(s)

    monkeypatch.setattr(sc, "run_averaged", dies_in_the_child)
    with _within(10.0):
        code, err, written = _cli_compare(monkeypatch, capsys, compare_dir, {0, 1})
    assert multiprocessing.active_children() == []
    assert code == 1 and "exited with code 3" in err
    assert written == {}


def test_compare_reraises_a_failed_averaged_run(monkeypatch, capsys, compare_dir):
    # a NaN forcing makes the averaged run blow up at its first step
    monkeypatch.setattr(sc, "es_surge_self_product",
                        lambda *_args: lambda _x, _y, _cth, _sth: math.nan)
    code, err, written = _cli_compare(monkeypatch, capsys, compare_dir, {0})
    assert code == 1 and err.startswith("error: RuntimeError: averaged run failed (")
    assert written == {}
    with _within(10.0):
        assert _cli_compare(monkeypatch, capsys, compare_dir, {0, 1}) == (code, err, {})
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_compare_keeps_both_earlier_csvs_when_the_averaged_write_fails(
        monkeypatch, capsys, compare_dir, cpus):
    earlier = {"full.csv": b"earlier full run\n", "averaged.csv": b"earlier averaged run\n"}
    for name, data in earlier.items():
        (compare_dir / name).write_bytes(data)
    write_rows = sc._write_rows

    def fails_for_averaged(path, *args):
        write_rows(path, *args)
        if "averaged.csv" in path:
            raise OSError("disk full")

    monkeypatch.setattr(sc, "_write_rows", fails_for_averaged)
    with _within(10.0):
        code, err, written = _cli_compare(monkeypatch, capsys, compare_dir, cpus)
    assert multiprocessing.active_children() == []
    assert code == 1 and "disk full" in err
    # no temporary file is left, and neither CSV was touched
    assert written == earlier


def test_compare_reaps_its_child_when_the_full_run_fails(monkeypatch, capsys, compare_dir):
    # a NaN surge force makes the full run blow up at its first step
    monkeypatch.setattr(sc, "surge_law", lambda *_args: lambda _t, _rho: math.nan)
    code, err, written = _cli_compare(monkeypatch, capsys, compare_dir, {0})
    assert code == 1 and err.startswith("error: RuntimeError: full run failed (")
    assert written == {}

    parent = os.getpid()
    run_full, write = sc.run_full, sc.write_trajectory_csv

    def after_the_child_wrote(s):
        while not list(compare_dir.glob("averaged.csv.*")):
            time.sleep(0.01)
        return run_full(s)

    def writes_then_sleeps(traj, path):
        write(traj, path)
        if os.getpid() != parent:
            time.sleep(60.0)

    monkeypatch.setattr(sc, "run_full", after_the_child_wrote)
    monkeypatch.setattr(sc, "write_trajectory_csv", writes_then_sleeps)
    # the child sleeps for 60 s after writing its CSV; only terminating it
    # returns sooner, and its temporary file is removed
    with _within(10.0):
        assert _cli_compare(monkeypatch, capsys, compare_dir, {0, 1}) == (code, err, {})
    assert multiprocessing.active_children() == []


def test_compare_reaps_its_child_when_the_parent_is_interrupted(
        monkeypatch, capsys, compare_dir):
    def interrupted(_s):
        raise KeyboardInterrupt

    monkeypatch.setattr(sc, "run_full", interrupted)
    monkeypatch.setattr(sc, "run_averaged", lambda _s: time.sleep(60.0))
    with _within(10.0), pytest.raises(KeyboardInterrupt):
        _cli_compare(monkeypatch, capsys, compare_dir, {0, 1})
    assert multiprocessing.active_children() == []
    assert [path.name for path in compare_dir.iterdir()] == ["scenario.ini"]


def _columns(rows):
    """Seeded trajectory-shaped columns of `rows` rows."""
    rng = np.random.default_rng(rows)
    return [np.arange(rows) * 0.01, rng.normal(size=(rows, 6)),
            rng.uniform(-2.0, 2.0, (rows, 2)), rng.exponential(size=rows)]


@pytest.mark.parametrize("rows", [1, 1023, 1024, 2047, 2048, 2049, 5003])
def test_a_csv_in_two_shares_equals_the_csv_in_one(monkeypatch, tmp_path, rows):
    # write_columns writes a CSV in one share in this process, even on two
    # CPUs under a bound of 0; write_full_run splits one at its middle row,
    # whatever the block edges, into shares that `_write_rows` writes alone
    monkeypatch.setattr(sc, "_SPLIT_NUMBERS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    starts = _counted_starts(monkeypatch)
    columns = _columns(rows)
    path = tmp_path / "one.csv"
    sc.write_columns(str(path), sc.TRAJECTORY_HEADER, columns)
    assert starts == []
    assert multiprocessing.active_children() == []
    one = path.read_bytes()
    reference = [sc.TRAJECTORY_HEADER] + [",".join("%.15g" % x for x in row)
                                          for row in np.column_stack(columns).tolist()]
    assert one == "".join(line + "\n" for line in reference).encode()
    mid = rows // 2
    sc._write_rows(str(tmp_path / "head.csv"), sc.TRAJECTORY_HEADER, [c[:mid] for c in columns])
    sc._write_rows(str(tmp_path / "tail.csv"), None, [c[mid:] for c in columns])
    assert (tmp_path / "head.csv").read_bytes() + (tmp_path / "tail.csv").read_bytes() == one


@pytest.mark.parametrize("share, failure", [("tail", "raises"), ("tail", "exits"),
                                            ("head", "raises"), ("middle", "raises"),
                                            ("only", "raises")])
def test_a_failed_share_leaves_no_csv_and_no_child(monkeypatch, tmp_path, share, failure):
    # write_columns writes 10 rows in its only share. write_full_run, under a
    # bound of 0, writes the 5 s run's CSV in three: a child writes the head
    # to the CSV, this process the middle to part file 0, a child the tail
    # to part file 1
    monkeypatch.setattr(sc, "_SPLIT_NUMBERS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    starts = _counted_starts(monkeypatch)
    write_rows = sc._write_rows
    path = str(tmp_path / "run.csv")
    names = {"only": path, "head": path, "middle": f"{path}.{os.getpid()}.0.part",
             "tail": f"{path}.{os.getpid()}.1.part"}

    def fails_after_writing(name, *args):
        write_rows(name, *args)
        if name != names[share]:
            # the other shares: a middle that fails finds both children running
            if share == "middle":
                time.sleep(60.0)
            return
        if failure == "exits":
            os._exit(3)
        raise OSError(f"{share} share failed")

    monkeypatch.setattr(sc, "_write_rows", fails_after_writing)
    want = "exited with code 3" if failure == "exits" else f"{share} share failed"
    with _within(10.0), pytest.raises((OSError, RuntimeError), match=want):
        if share == "only":
            sc.write_columns(path, sc.TRAJECTORY_HEADER, _columns(10))
        else:
            sc.write_full_run(_scenario(horizon=5.0), path)
    assert len(starts) == (0 if share == "only" else 2)
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def _split_small_csvs(monkeypatch):
    """Make `write_full_run` split the 5 s scenario's full.csv (797 rows) on
    two CPUs."""
    monkeypatch.setattr(sc, "_SPLIT_NUMBERS", 0)


def _writes_while_integrating(command, cpus):
    """Whether CLI `command` on `cpus` writes a split full.csv while the full
    run integrates: its head share in a child, its rest in two shares."""
    return command in ("simulate", "compare") and len(cpus) >= 2


@pytest.mark.parametrize("command, name", [("simulate", "full.csv"),
                                           ("average", "averaged.csv")])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_cli_keeps_the_earlier_csv_when_its_write_fails(
        monkeypatch, capsys, compare_dir, command, name, cpus):
    _split_small_csvs(monkeypatch)
    (compare_dir / name).write_bytes(b"earlier run\n")
    write_rows, paths = sc._write_rows, []

    def fails_after_writing(path, *args):
        paths.append(path)
        write_rows(path, *args)
        raise OSError("disk full")

    monkeypatch.setattr(sc, "_write_rows", fails_after_writing)
    with _within(10.0):
        code, err, written = _cli_run(command, monkeypatch, capsys, compare_dir, cpus)
    # this process's share goes to a name of its own, never to the CSV's: the
    # CSV's temporary file, or, where a full run is written while it
    # integrates, the first share of the rest to the first part file (a
    # child writes the head)
    temp = f"{compare_dir / name}.{os.getpid()}.tmp"
    mine = f"{temp}.{os.getpid()}.0.part" if _writes_while_integrating(command, cpus) else temp
    assert paths == [mine]
    assert multiprocessing.active_children() == []
    assert code == 1 and "disk full" in err
    assert written == {name: b"earlier run\n"}


@pytest.mark.parametrize("command, csvs", [("compare", 2), ("simulate", 1),
                                           ("average", 1)])
def test_cli_writes_a_long_csv_in_two_shares_with_the_same_bytes(
        monkeypatch, capsys, compare_dir, command, csvs):
    # this process makes the first run and forks one child per other run
    # (compare's averaged run). A full run forks the head share of full.csv
    # and one share of its rest; averaged.csv is written in one share, so
    # `average` forks nothing
    children = csvs - 1 + (2 if _writes_while_integrating(command, {0, 1}) else 0)
    _split_small_csvs(monkeypatch)
    starts = _counted_starts(monkeypatch)
    code, err, split = _cli_run(command, monkeypatch, capsys, compare_dir, {0, 1})
    assert (code, err, len(starts)) == (0, "", children)
    assert multiprocessing.active_children() == []
    for cpus in ({0}, None):
        assert _cli_run(command, monkeypatch, capsys, compare_dir, cpus) == (0, "", split)
    assert len(starts) == children


@pytest.mark.parametrize("command", ["compare", "simulate", "average"])
def test_cli_leaves_no_csv_when_a_tail_share_dies(monkeypatch, capsys, compare_dir, command):
    _split_small_csvs(monkeypatch)
    write_rows = sc._write_rows
    parent = os.getpid()

    def tail_dies(path, *args):
        write_rows(path, *args)
        # a full run written while it integrates writes the first share of
        # its rest to a part file in this process: only a child's dies
        if path.endswith(".part") and os.getpid() != parent:
            os._exit(3)

    monkeypatch.setattr(sc, "_write_rows", tail_dies)
    starts = _counted_starts(monkeypatch)
    with _within(10.0):
        code, err, written = _cli_run(command, monkeypatch, capsys, compare_dir, {0, 1})
    assert multiprocessing.active_children() == []
    if command == "average":
        # averaged.csv is written in one share, by this process: no tail
        # share dies, and no part file is written
        assert (code, err, starts) == (0, "", [])
        assert sorted(written) == ["averaged.csv", "averaged_meta.json"]
    else:
        assert code == 1 and "exited with code 3" in err
        assert written == {}


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_full_run_that_blows_up_after_its_midpoint_writes_nothing(
        monkeypatch, capsys, compare_dir, command, cpus):
    # on two CPUs the head share of full.csv is running in a child when the
    # second half of the run blows up
    _split_small_csvs(monkeypatch)
    horizon, law = 5.0, sc.surge_law

    def nan_after_half(gains):
        surge = law(gains)
        return lambda tau, rho: math.nan if tau > horizon / 2 else surge(tau, rho)

    monkeypatch.setattr(sc, "surge_law", nan_after_half)
    starts = _counted_starts(monkeypatch)
    with _within(10.0):
        code, err, written = _cli_run(command, monkeypatch, capsys, compare_dir, cpus)
    assert multiprocessing.active_children() == []
    # `written` holds every file left, a `.tmp` or `.part` file included
    assert code == 1 and written == {}
    prefix = "error: RuntimeError: full run failed (non-finite state encountered at t="
    assert err.startswith(prefix)
    t = float(err[len(prefix):].split(")")[0])
    assert horizon / 2 < t < horizon
    # the same step fails on one CPU, after the head share started on two
    one_cpu = _cli_run(command, monkeypatch, capsys, compare_dir, {0})
    assert one_cpu == (code, err, {})
    heads = 1 if _writes_while_integrating(command, cpus) else 0
    assert len(starts) == heads + (command == "compare" and len(cpus) > 1)


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_full_csv_head_share_that_dies_fails_the_command(
        monkeypatch, capsys, compare_dir, command, cpus):
    _split_small_csvs(monkeypatch)
    write_rows = sc._write_rows
    parent = os.getpid()

    def head_dies(path, header, *args):
        write_rows(path, header, *args)
        if "full.csv" in path and header is not None and os.getpid() != parent:
            os._exit(3)

    monkeypatch.setattr(sc, "_write_rows", head_dies)
    with _within(10.0):
        code, err, written = _cli_run(command, monkeypatch, capsys, compare_dir, cpus)
    assert multiprocessing.active_children() == []
    if _writes_while_integrating(command, cpus):
        assert code == 1 and "exited with code 3" in err
        assert written == {}
    else:
        # on one CPU this process writes the head: no child dies
        assert code == 0 and "full.csv" in written
        assert not [name for name in written if name.endswith((".tmp", ".part"))]


def test_a_full_run_interrupted_after_its_midpoint_reaps_its_head_share(
        monkeypatch, capsys, compare_dir):
    _split_small_csvs(monkeypatch)
    write_rows, step_rows = sc._write_rows, sc.step_rows
    parent = os.getpid()

    def head_sleeps(path, *args):
        write_rows(path, *args)
        if os.getpid() != parent:
            time.sleep(60.0)

    def interrupted_after_the_midpoint(rhs, states, h, i0, i1):
        if i0 > 0:
            raise KeyboardInterrupt
        step_rows(rhs, states, h, i0, i1)

    monkeypatch.setattr(sc, "_write_rows", head_sleeps)
    monkeypatch.setattr(sc, "step_rows", interrupted_after_the_midpoint)
    # the head share sleeps for 60 s; only terminating it returns sooner
    with _within(10.0), pytest.raises(KeyboardInterrupt):
        _cli_run("simulate", monkeypatch, capsys, compare_dir, {0, 1})
    assert multiprocessing.active_children() == []
    assert [path.name for path in compare_dir.iterdir()] == ["scenario.ini"]


@pytest.mark.parametrize("rows, width, splits", [(31832, 10, 1), (10001, 10, 0),
                                                  (31832, 3, 0)])
def test_only_a_csv_of_more_numbers_than_the_bound_splits(
        monkeypatch, tmp_path, rows, width, splits):
    # the reference full.csv, averaged.csv and demo_di.csv: only the first
    # has more than _SPLIT_NUMBERS numbers (rows x columns), and only
    # write_full_run splits it; write_columns forks nothing at any size
    assert (rows * width > sc._SPLIT_NUMBERS) == splits
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    starts = _counted_starts(monkeypatch)
    path = tmp_path / "run.csv"
    sc.write_columns(str(path), "header", [np.arange(rows), np.ones((rows, width - 1))])
    assert starts == []
    assert path.read_bytes().count(b"\n") == rows + 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("above", [False, True])
def test_a_full_run_splits_its_csv_only_above_the_bound(monkeypatch, tmp_path, above):
    s = _scenario(horizon=5.0)
    run = sc.run_full(s)
    sc.write_trajectory_csv(run, str(tmp_path / "one.csv"))
    numbers = len(run.t) * len(sc.TRAJECTORY_HEADER.split(","))
    monkeypatch.setattr(sc, "_SPLIT_NUMBERS", numbers - 1 if above else numbers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    starts = _counted_starts(monkeypatch)
    traj = sc.write_full_run(s, str(tmp_path / "full.csv"))
    # above the bound a child writes the head share and another the tail
    assert len(starts) == (2 if above else 0)
    assert multiprocessing.active_children() == []
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert np.array_equal(traj.states, run.states)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["full.csv", "one.csv"]


def test_a_full_run_that_overflows_names_the_time_of_its_blow_up():
    # the quadratic cost's float ** 2 overflows at x = 1e152 (ROADMAP item 1)
    s = _scenario(initial=[1e152, 0.0, 0.0, 0.0, 0.0, 0.0])
    step = sc.dividing_step(s.horizon, 0.1 * 2.0 * math.pi / 100)
    with pytest.raises(RuntimeError, match=r"^full run failed \(non-finite state "
                       rf"encountered at t={step:.6g}\); gains k=1.0") as info:
        sc.run_full(s)
    assert isinstance(info.value.__cause__, BlowUpError)
    assert isinstance(info.value.__cause__.__cause__, OverflowError)


@pytest.mark.parametrize("run, name, step", [
    (sc.run_full, "full", 20.0 / math.ceil(20.0 / (0.1 * 2.0 * math.pi / 100))),
    (sc.run_averaged, "averaged", 20.0 / sc.AVERAGED_STEPS)], ids=["full", "averaged"])
def test_a_run_whose_angle_math_cos_rejects_names_the_time_of_its_blow_up(run, name, step):
    # a yaw rate of 1e308 overflows the heading of a later stage to inf,
    # on which math.cos raises a ValueError
    s = _scenario(initial=[0.0, 0.0, 0.0, 0.0, 0.0, 1e308])
    with pytest.raises(RuntimeError, match=rf"^{name} run failed \(non-finite state "
                       rf"encountered at t={step:.6g}\); gains k=1.0") as info:
        run(s)
    assert isinstance(info.value.__cause__, BlowUpError)
    assert isinstance(info.value.__cause__.__cause__, ValueError)


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


def test_deviation_rejects_starts_apart_by_more_than_its_absolute_tolerance():
    # 0.5 mm at x = 100 m is within numpy's default relative tolerance
    t = np.array([0.0, 1.0])
    full = Trajectory(t=t, states=np.array([[100.0, 0.0], [100.0, 0.0]]))
    averaged = Trajectory(t=t, states=np.array([[100.0005, 0.0, 0.0, 0.0, 0.0, 0.0],
                                                [100.0005, 0.0, 0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="^runs must start from identical initial states$"):
        sc.sup_position_deviation(full, averaged)


def test_sweep_continues_past_failures():
    s = _scenario(horizon=5.0)
    rows = sc.sweep(s, "epsilon", [0.1, -1.0])
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] != "ok"
    assert math.isnan(rows[1]["final_error"])


def test_a_sweep_fails_only_the_row_of_a_subnormal_epsilon():
    # the full run's step count is infinite for 1e-320, and its step zero for 5e-324
    s = _scenario(horizon=2.0)
    rows = sc.sweep(s, "epsilon", [0.1, 1e-320, 5e-324])
    assert rows[0] == sc.sweep(s, "epsilon", [0.1])[0]
    assert rows[0]["status"] == "ok"
    for row, eps, reason in zip(rows[1:], ["1e-320", "5e-324"],
                                ["cannot convert float infinity to integer",
                                 "float division by zero"]):
        assert row["status"] == (f"full run failed ({reason}); gains k=1.0 c=1.0 "
                                 f"eps={eps}; horizon=2.0")
        assert math.isnan(row["final_error"])


@pytest.mark.parametrize("eps, reason", [(1e-320, "cannot convert float infinity to integer"),
                                         (5e-324, "float division by zero")])
@pytest.mark.parametrize("run", [sc.run_full, sc._integrate_full])
def test_a_full_run_names_a_subnormal_epsilon(run, eps, reason):
    # its step is computed inside the run, as a sweep's step count is
    s = _scenario(gains=EsGains(1.0, 1.0, eps), horizon=2.0)
    with pytest.raises(RuntimeError) as info:
        run(s)
    assert str(info.value) == (f"full run failed ({reason}); gains k=1.0 c=1.0 eps={eps}, "
                               f"horizon=2.0")


def test_a_forking_sweep_builds_the_loops_before_it_forks(monkeypatch):
    # the full run of eps = 0.05 outweighs the shared averaged run, which a
    # child steps with the other full run: the child inherits the averaged
    # runner's loop from this process
    monkeypatch.setattr(sc, "_usable_cpus", lambda: 2)
    integrator._rk4_loop.cache_clear()
    s = _scenario(horizon=20.0)
    rows = sc.sweep(s, "epsilon", [0.1, 0.05])
    assert [row["status"] for row in rows] == ["ok", "ok"]
    misses = integrator._rk4_loop.cache_info().misses
    for rhs in (sc._averaged_rhs(s), sc._full_rhs(s)):
        integrator._loop(rhs, 6)
    assert integrator._rk4_loop.cache_info().misses == misses


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
