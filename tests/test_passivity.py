import math

import numpy as np
import pytest

from surgeseek.integrator import IntegratorSettings, Trajectory, integrate
from surgeseek.passivity import (c_hat_bound, monotonicity_check,
                                 passivity_residual, steady_state_for_torque)
from surgeseek.vehicle import VehicleParams, coriolis, dynamics_rhs, reference_boat

from oracles import inertia

BOAT = reference_boat()


def test_steady_state_boat():
    ss = steady_state_for_torque(BOAT, 1.0)
    assert np.allclose(ss.u_star, [0.0, 1.0])
    assert np.allclose(ss.v_star[:2], 0.0)
    assert ss.v_star[2] == pytest.approx(1.1574, abs=1e-4)
    assert np.allclose(ss.eta_star, [0.0, ss.v_star[2]])


def test_steady_state_small_torque_limit():
    ss = steady_state_for_torque(BOAT, 1e-9)
    assert np.linalg.norm(ss.v_star) < 1e-8


def test_steady_state_residual_membership():
    for c in (0.1, 1.0, 5.0):
        ss = steady_state_for_torque(BOAT, c)
        gu = np.array([0.0, 0.0, c])
        res = coriolis(BOAT, ss.v_star) @ ss.v_star + BOAT.d @ ss.v_star - gu
        assert np.linalg.norm(res) <= 1e-10


def test_steady_state_nondiagonal_damping():
    d = np.array([[3.0, 0.4, 0.1], [0.4, 12.0, 0.0], [0.1, 0.0, 0.9]])
    p = VehicleParams(1.412, 1.982, 0.354, d)
    ss = steady_state_for_torque(p, 1.0)
    gu = np.array([0.0, 0.0, 1.0])
    res = coriolis(p, ss.v_star) @ ss.v_star + p.d @ ss.v_star - gu
    assert np.linalg.norm(res) <= 1e-10


def test_steady_state_iteration_fails_fast_when_it_diverges():
    # a valid coupled vessel whose fixed-point iteration converges at c = 1
    # and overflows at c = 3; whether a steady state exists there is open
    d = np.array([[3.0653, 0.1772, 0.0203], [0.1772, 2.1668, -0.1518],
                  [0.0203, -0.1518, 1.4053]])
    p = VehicleParams(2.9521, 2.2139, 2.1261, d)
    v_star = steady_state_for_torque(p, 1.0).v_star
    assert v_star == pytest.approx([0.012307, 0.037132, 0.715665], abs=1e-6)
    # the suite makes any RuntimeWarning an error, so this also checks that
    # the diverging iteration raises none
    with pytest.raises(RuntimeError, match=r"diverged at c=3\b"):
        steady_state_for_torque(p, 3.0)


def test_torque_bound_boat():
    assert c_hat_bound(BOAT) == pytest.approx(20.25, abs=0.01)


def test_torque_bound_infinite_when_coupling_benign():
    p = VehicleParams.diagonal(2.0, 2.0, 0.5, 1.0, 1.0, 1.0)
    assert c_hat_bound(p) == math.inf


def test_torque_bound_holds_for_lighter_sway():
    # m22 < m11 flips the sign of the Coriolis cross term, not its size:
    # the bound is 2 sqrt(d11 d22) d33 / |m22 - m11| = 2 here
    p = VehicleParams.diagonal(3.0, 2.0, 0.5, 1.0, 1.0, 1.0)
    assert c_hat_bound(p) == 2.0
    assert monotonicity_check(p, 1.999)
    assert not monotonicity_check(p, 2.001)
    c = 5.0
    ss = steady_state_for_torque(p, c)
    states = np.tile([0.0, 0.0, 0.0, 1.0, -1.0, ss.v_star[2]], (2, 1))
    traj = Trajectory(t=np.array([0.0, 1.0]), states=states,
                      inputs=np.tile(ss.u_star, (2, 1)))
    assert passivity_residual(traj, p, c) == pytest.approx(c - 2.0, rel=1e-12)


def test_torque_bound_linear_in_yaw_damping():
    doubled = VehicleParams.diagonal(BOAT.m11, BOAT.m22, BOAT.m33,
                                     BOAT.d[0, 0], BOAT.d[1, 1],
                                     2.0 * BOAT.d[2, 2])
    assert c_hat_bound(doubled) == pytest.approx(2.0 * c_hat_bound(BOAT), rel=1e-12)


def test_monotonicity_examples():
    assert monotonicity_check(BOAT, 1.0)
    assert monotonicity_check(BOAT, 20.25)  # boundary, within slack
    assert not monotonicity_check(BOAT, 25.0)


def test_monotonicity_monotone_in_torque():
    passing = [c for c in np.linspace(0.5, 30.0, 60) if monotonicity_check(BOAT, c)]
    assert passing == sorted(passing)
    assert max(passing) < 20.5 and min(passing) == 0.5


def test_bound_is_exact_threshold():
    chat = c_hat_bound(BOAT)
    assert monotonicity_check(BOAT, 0.999 * chat)
    assert not monotonicity_check(BOAT, 1.001 * chat)


def _random_input_trajectory(params, c, seed, y0=None):
    rng = np.random.default_rng(seed)
    us = rng.uniform(-2.0, 2.0, size=(100, 2)) + np.array([0.0, c])

    def rhs(t, y):
        return dynamics_rhs(params, y, us[min(int(t / 0.01), 99)])

    if y0 is None:
        y0 = rng.uniform(-1.0, 1.0, 6)
    traj = integrate(rhs, y0, IntegratorSettings(step=0.01, tf=1.0))
    traj.inputs = np.vstack([us, us[-1:]])
    return traj


def test_storage_inequality_on_random_trajectories():
    for seed in range(5):
        traj = _random_input_trajectory(BOAT, 1.0, seed)
        assert passivity_residual(traj, BOAT, 1.0) <= 1e-9


def test_residual_zero_at_equilibrium():
    ss = steady_state_for_torque(BOAT, 1.0)
    n = 10
    states = np.tile(np.concatenate([np.zeros(3), ss.v_star]), (n, 1))
    traj = Trajectory(t=np.linspace(0.0, 1.0, n), states=states,
                      inputs=np.tile(ss.u_star, (n, 1)))
    assert passivity_residual(traj, BOAT, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_residual_closed_form_identity():
    # H-dot - supply = -(v - v*)^T D (v - v*) - (v - v*)^T C(v) v, and skew
    # symmetry of C turns the Coriolis term into v*^T C(v) v
    traj = _random_input_trajectory(BOAT, 1.0, seed=42)
    ss = steady_state_for_torque(BOAT, 1.0)
    residual = passivity_residual(traj, BOAT, 1.0)
    closed = [ss.v_star[2] * (BOAT.m22 - BOAT.m11) * s[3] * s[4]
              - (s[3:6] - ss.v_star) @ BOAT.d @ (s[3:6] - ss.v_star)
              for s in traj.states]
    assert residual == pytest.approx(max(closed), rel=1e-9)
    assert residual <= 0.0


def _residual_per_sample(traj, params, c):
    """Oracle: max of (v - v*).(M v_dot) - (u - u*).(eta - eta*), sample by sample."""
    ss = steady_state_for_torque(params, c)
    worst = -math.inf
    for state, u in zip(traj.states, traj.inputs):
        v = state[3:6]
        v_dot = np.array(dynamics_rhs(params, state, u)[3:6])
        eta = np.array([v[0], v[2]])
        worst = max(worst, (v - ss.v_star) @ (inertia(params) @ v_dot)
                    - (u - ss.u_star) @ (eta - ss.eta_star))
    return worst


@pytest.mark.parametrize("vessel", ["boat", "coupled"])
def test_column_residual_matches_per_sample_oracle(vessel):
    # the coupled vessel's steady state has non-zero surge and sway
    p = BOAT if vessel == "boat" else VehicleParams(
        1.412, 1.982, 0.354, np.array([[3.0, 0.4, 0.1], [0.4, 12.0, 0.0], [0.1, 0.0, 0.9]]))
    for seed in range(3):
        traj = _random_input_trajectory(p, 1.0, seed, y0=np.full(6, 2.0) - seed)
        got = passivity_residual(traj, p, 1.0)
        assert type(got) is float
        assert got == pytest.approx(_residual_per_sample(traj, p, 1.0), rel=1e-12)


@pytest.mark.parametrize("rows, index", [(slice(3, 4), 3), (slice(None), 0)])
def test_residual_rejects_non_finite_samples(rows, index):
    # one NaN sample, then every sample NaN: max() would skip them and an
    # all-NaN trajectory would read -inf, i.e. passive
    traj = _random_input_trajectory(BOAT, 1.0, seed=7)
    traj.states[rows, 4] = math.nan
    with pytest.raises(ValueError, match=rf"at sample {index} .*not finite"):
        passivity_residual(traj, BOAT, 1.0)


def test_residual_rejects_an_infinite_heading():
    # the residual does not read the heading, but the sample is still not finite
    traj = _random_input_trajectory(BOAT, 1.0, seed=8)
    traj.states[5, 2] = math.inf
    with pytest.raises(ValueError, match=r"at sample 5 \(t=0\.05\).*not finite"):
        passivity_residual(traj, BOAT, 1.0)


def test_residual_requires_recorded_inputs():
    traj = Trajectory(t=np.linspace(0, 1, 3), states=np.zeros((3, 6)))
    with pytest.raises(ValueError, match="inputs"):
        passivity_residual(traj, BOAT, 1.0)


@pytest.mark.parametrize("rows", [1, 100, 102])
def test_residual_rejects_inputs_of_another_length(rows):
    # one row would broadcast over every sample, and 100 rows raise a bare
    # numpy broadcast error
    traj = _random_input_trajectory(BOAT, 1.0, seed=9)
    traj.inputs = np.resize(traj.inputs, (rows, 2))
    with pytest.raises(ValueError, match=rf"{rows} input rows for 101 states"):
        passivity_residual(traj, BOAT, 1.0)


def test_torque_must_be_positive():
    with pytest.raises(ValueError):
        steady_state_for_torque(BOAT, 0.0)
