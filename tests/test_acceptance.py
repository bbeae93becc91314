"""End-to-end acceptance suite.

Each test covers one numbered claim about the toolkit and prints a single
PASS/FAIL line (run with `pytest -s` to see them). The heavy benchmark runs
are shared through module-scoped fixtures: reference boat, quadratic cost
with source at (2, 3), rest start, k=1, c=1, horizon 100.
"""
import math

import numpy as np
import pytest

import surgeseek.scenario as sc
from surgeseek.averaging import (closed_loop_fields, double_integrator_demo,
                                 double_integrator_fields, es_input_field,
                                 es_self_product, iterated_bracket,
                                 lambda_matrix, symmetric_product)
from surgeseek.cli import main as cli_main
from surgeseek.costs import quadratic_cost
from surgeseek.dither import EsGains, es_dither_set, validate_dither
from surgeseek.integrator import IntegratorSettings, integrate
from surgeseek.passivity import (c_hat_bound, monotonicity_check,
                                 passivity_residual)
from surgeseek.vehicle import dynamics_rhs, reference_boat

TWO_PI = 2.0 * math.pi
BOAT = reference_boat()
COST = quadratic_cost()
SOURCE = (2.0, 3.0)
# the thresholds of claims 1 and 3, as declared into every *_meta.json
ERROR_EPS_01 = sc.DECLARED_CONSTANTS["final_error_threshold_eps_0.1"]
ERROR_EPS_005 = sc.DECLARED_CONSTANTS["final_error_threshold_eps_0.05"]
RATIO_LO, RATIO_HI = sc.DECLARED_CONSTANTS["deviation_ratio_band"]


def _report(num, ok, text):
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance {num} failed: {text}"


def _benchmark(epsilon, horizon=100.0):
    return sc.Scenario(vehicle=BOAT, cost=COST,
                       gains=EsGains(k=1.0, c=1.0, epsilon=epsilon),
                       initial=np.zeros(6), horizon=horizon,
                       samples_per_period=200)


@pytest.fixture(scope="module")
def runs_eps_01():
    s = _benchmark(0.1)
    return s, sc.run_full(s), sc.run_averaged(s)


@pytest.fixture(scope="module")
def runs_eps_005():
    s = _benchmark(0.05)
    return s, sc.run_full(s), sc.run_averaged(s)


def test_01_full_run_converges_and_improves_with_faster_dither(
        runs_eps_01, runs_eps_005):
    _, full1, _ = runs_eps_01
    _, full2, _ = runs_eps_005
    e1 = sc.final_error(full1, SOURCE, 0.1)
    e2 = sc.final_error(full2, SOURCE, 0.05)
    ok = e1 < ERROR_EPS_01 and e2 < ERROR_EPS_005 and e2 < e1
    _report(1, ok, f"final errors eps=0.1: {e1:.4f} (<{ERROR_EPS_01:g}), "
                   f"eps=0.05: {e2:.4f} (<{ERROR_EPS_005:g}), decreasing")


def test_02_averaged_run_partial_state_convergence(runs_eps_01):
    s, _, avg = runs_eps_01
    err = sc.final_error(avg, SOURCE, s.gains.epsilon)
    vx, vy, om = avg.states[-1, 3], avg.states[-1, 4], avg.states[-1, 5]
    spin = 1.0 / BOAT.d[2, 2]
    ok = (err < 1e-2 and abs(vx) < 1e-2 and abs(vy) < 1e-2
          and abs(om - spin) < 0.1 * spin)
    _report(2, ok, f"averaged final error {err:.2e} (<1e-2), "
                   f"|vx|={abs(vx):.2e}, |vy|={abs(vy):.2e} (<1e-2), "
                   f"spin {om:.4f} within 10% of {spin:.4f}")


def test_03_full_vs_averaged_deviation_scales_with_dither_period(
        runs_eps_01, runs_eps_005):
    _, full1, avg1 = runs_eps_01
    _, full2, avg2 = runs_eps_005
    d1 = sc.sup_position_deviation(full1, avg1, t_max=50.0)
    d2 = sc.sup_position_deviation(full2, avg2, t_max=50.0)
    ratio = d1 / d2
    ok = RATIO_LO <= ratio <= RATIO_HI
    _report(3, ok, f"sup deviations {d1:.4f}/{d2:.4f}, "
                   f"ratio {ratio:.3f} in [{RATIO_LO:g}, {RATIO_HI:g}]")


def test_04_torque_threshold_and_storage_inequality():
    bound = c_hat_bound(BOAT)
    rng = np.random.default_rng(4)
    worst = -math.inf
    for _ in range(10):
        us = rng.uniform(-2.0, 2.0, size=(100, 2)) + np.array([0.0, 1.0])

        def rhs(t, y, us=us):
            return dynamics_rhs(BOAT, y, us[min(int(t / 0.01), 99)])

        traj = integrate(rhs, rng.uniform(-1.0, 1.0, 6),
                         IntegratorSettings(step=0.01, tf=1.0))
        traj.inputs = np.vstack([us, us[-1:]])
        worst = max(worst, passivity_residual(traj, BOAT, 1.0))
    ok = (abs(bound - 20.25) <= 0.01 and monotonicity_check(BOAT, 20.0)
          and not monotonicity_check(BOAT, 20.5) and worst <= 1e-9)
    _report(4, ok, f"torque bound {bound:.4f} (20.25±0.01), monotone at 20.0 "
                   f"not at 20.5, worst storage residual {worst:.2e} (<=1e-9)")


def test_05_dither_weight_and_admissibility():
    dset = es_dither_set(EsGains(k=1.0, c=1.0, epsilon=0.1), COST)
    lam = lambda_matrix(dset)
    cos_check = validate_dither(math.cos, TWO_PI)
    sin_check = validate_dither(math.sin, TWO_PI)
    ok = (abs(lam[0, 0] - 0.25) < 1e-10 and cos_check.passed
          and not sin_check.passed
          and abs(sin_check.iterated_residual - TWO_PI) <= 1e-6)
    _report(5, ok, f"Lambda_11={lam[0, 0]:.12f} (0.25), cos admissible, "
                   f"sin rejected with residual {sin_check.iterated_residual:.6f} "
                   f"(2*pi±1e-6)")


def test_06_symmetric_product_generic_matches_closed_form():
    b1 = es_input_field(BOAT, 1.0, COST)
    closed = es_self_product(BOAT, 1.0, COST)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-5.0, 5.0, 3)
        generic = symmetric_product(b1, b1, BOAT, q)
        ref = closed(q)
        worst = max(worst, np.linalg.norm(generic - ref)
                    / max(1.0, np.linalg.norm(ref)))
    origin = symmetric_product(b1, b1, BOAT, np.zeros(3))
    ok = (worst <= 1e-6 and abs(origin[0] + 38.12) <= 0.01
          and abs(origin[1]) <= 0.01 and abs(origin[2]) <= 0.01)
    _report(6, ok, f"worst relative mismatch {worst:.2e} (<=1e-6) over 100 "
                   f"configs, origin value ({origin[0]:.3f}, {origin[1]:.1e}, "
                   f"{origin[2]:.1e}) = (-38.12, 0, 0)±0.01")


def test_07_third_iterated_bracket_vanishes():
    f_cl, g_cl = closed_loop_fields(BOAT, EsGains(1.0, 1.0, 0.1), COST)
    f_di, g_di = double_integrator_fields(lambda z: (z - 1.0) ** 2 + 1.0)
    rng = np.random.default_rng(7)
    worst_cl = max(np.linalg.norm(iterated_bracket(f_cl, g_cl, p, order=3))
                   for p in rng.uniform(-2.0, 2.0, (50, 6)))
    worst_di = max(np.linalg.norm(iterated_bracket(f_di, g_di, p, order=3))
                   for p in rng.uniform(-2.0, 2.0, (50, 2)))
    ok = worst_cl < 1e-4 and worst_di < 1e-4
    _report(7, ok, f"third iterated brackets: vehicle loop {worst_cl:.2e}, "
                   f"double integrator {worst_di:.2e} (both < 1e-4)")


def test_08_double_integrator_demo():
    def h(z):
        return (z - 1.0) ** 2 + 1.0

    def h_prime(z):
        return 2.0 * (z - 1.0)

    slow = double_integrator_demo(h, alpha=1.0, omega_freq=10.0, horizon=50.0,
                                  minimizer=1.0, h_prime=h_prime)
    fast = double_integrator_demo(h, alpha=1.0, omega_freq=20.0, horizon=50.0,
                                  minimizer=1.0, h_prime=h_prime)
    ok = (fast.final_error_full < slow.final_error_full
          and slow.final_error_full < 0.2 and fast.final_error_full < 0.2)
    _report(8, ok, f"final errors omega=10: {slow.final_error_full:.4f}, "
                   f"omega=20: {fast.final_error_full:.4f} "
                   f"(faster dither closer, both < 0.2)")


def test_09_gain_sweep_tradeoff():
    rows = sc.sweep(_benchmark(0.1), "k", [0.5, 1.0, 1.5])
    assert all(r["status"] == "ok" for r in rows)
    times = [r["conv_time_r"] for r in rows]
    paths = [r["path_length"] for r in rows]
    ok = (times[0] >= times[1] >= times[2]
          and paths[0] < paths[1] < paths[2])
    _report(9, ok, f"k in (0.5, 1.0, 1.5): convergence times "
                   f"{[round(t, 1) for t in times]} non-increasing, path "
                   f"lengths {[round(p, 1) for p in paths]} increasing")


def test_10_integrator_order_and_byte_determinism(tmp_path, monkeypatch):
    def rhs(_t, y):
        return -np.asarray(y)

    settings = IntegratorSettings(step=0.1, tf=2.0)
    coarse = integrate(rhs, np.array([1.0]), settings)
    fine = integrate(rhs, np.array([1.0]),
                     IntegratorSettings(step=0.05, tf=2.0))
    exact = math.exp(-2.0)
    ratio = abs(coarse.states[-1, 0] - exact) / abs(fine.states[-1, 0] - exact)

    monkeypatch.setenv(sc.OUTPUT_DIR_ENV, str(tmp_path))
    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[vehicle]\nm11=1.412\nm22=1.982\nm33=0.354\n"
        "d11=3.436\nd22=12.99\nd33=0.864\n"
        "[gains]\nk=1.0\nc=1.0\nepsilon=0.1\n"
        "[run]\nhorizon=5.0\nsamples_per_period=100\n")
    assert cli_main(["simulate", str(ini)]) == 0
    first = (tmp_path / "full.csv").read_bytes()
    assert cli_main(["simulate", str(ini)]) == 0
    identical = (tmp_path / "full.csv").read_bytes() == first
    ok = 14.0 <= ratio <= 18.0 and identical
    _report(10, ok, f"step-halving error ratio {ratio:.2f} in [14, 18], "
                    f"repeated simulate byte-identical: {identical}")
