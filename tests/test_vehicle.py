import math

import numpy as np
import pytest

from surgeseek.integrator import IntegratorSettings, integrate
from surgeseek.passivity import c_hat_bound
from surgeseek.vehicle import VehicleParams, dynamics_rhs, reference_boat

from oracles import coriolis, inertia, inertia_inv, kinematic_matrix

BOAT = reference_boat()


def test_kinematic_matrix_identity_at_zero():
    assert np.allclose(kinematic_matrix(0.0), np.eye(3))


def test_kinematic_matrix_quarter_turn():
    expected = np.array([[0.0, -1.0, 0.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0]])
    assert np.allclose(kinematic_matrix(math.pi / 2), expected, atol=1e-15)


def test_kinematic_matrix_orthogonal():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-10, 10, 20):
        j = kinematic_matrix(theta)
        assert np.allclose(j.T @ j, np.eye(3), atol=1e-12)


def test_coriolis_zero_for_pure_yaw():
    assert np.allclose(coriolis(BOAT, np.array([0.0, 0.0, 3.0])), 0.0)


def test_coriolis_boat_entries():
    c = coriolis(BOAT, np.array([1.0, 2.0, 3.0]))
    assert c[0, 2] == pytest.approx(-3.964)
    assert c[1, 0] == 0.0
    assert c[1, 2] == pytest.approx(1.412)
    assert c[2, 0] == pytest.approx(3.964)
    assert c[2, 1] == pytest.approx(-1.412)


def test_coriolis_skew_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.uniform(-5, 5, 3)
        c = coriolis(BOAT, v)
        assert np.allclose(c + c.T, 0.0, atol=1e-14)


def test_coriolis_force_degree_two_homogeneous():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.uniform(-3, 3, 3)
        alpha = rng.uniform(-2, 2)
        assert np.allclose(coriolis(BOAT, alpha * v) @ (alpha * v),
                           alpha ** 2 * (coriolis(BOAT, v) @ v), atol=1e-12)


def test_dynamics_rest_equilibrium():
    assert np.allclose(dynamics_rhs(BOAT, np.zeros(6), np.zeros(2)), 0.0)


def test_dynamics_steady_spin():
    c = 1.0
    omega_star = c / BOAT.d[2, 2]
    assert omega_star == pytest.approx(1.1574, abs=1e-4)
    state = np.array([0.0, 0.0, 0.3, 0.0, 0.0, omega_star])
    deriv = dynamics_rhs(BOAT, state, np.array([0.0, c]))
    assert np.allclose(deriv[3:6], 0.0, atol=1e-14)


def test_dynamics_heading_periodicity():
    rng = np.random.default_rng(3)
    state = np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)])
    shifted = state.copy()
    shifted[2] += 2.0 * math.pi
    u = rng.uniform(-1, 1, 2)
    d1 = dynamics_rhs(BOAT, state, u)
    d2 = dynamics_rhs(BOAT, shifted, u)
    assert np.allclose(d1, d2, atol=1e-12)


def test_energy_balance_along_trajectory():
    # integrate kinetic energy's claimed balance dE/dt = v'Gu - v'Dv as an
    # extra state; the Coriolis term must do no work
    u = np.array([0.8, -0.4])
    m = inertia(BOAT)

    def rhs(t, y):
        base = dynamics_rhs(BOAT, y[:6], u)
        v = y[3:6]
        power = v[0] * u[0] + v[2] * u[1] - v @ (BOAT.d @ v)
        return np.concatenate([base, [power]])

    y0 = np.array([0.0, 0.0, 0.0, 0.5, -0.2, 0.3, 0.0])
    traj = integrate(rhs, y0, IntegratorSettings(step=1e-3, tf=5.0))
    v0, vf = y0[3:6], traj.states[-1, 3:6]
    de = 0.5 * vf @ (m @ vf) - 0.5 * v0 @ (m @ v0)
    assert de == pytest.approx(traj.states[-1, 6], abs=1e-9)


def test_dynamics_rhs_matches_matrix_definitions():
    coupled = VehicleParams(1.0, 2.0, 0.5, np.array([[2.0, 0.3, 0.1],
                                                    [0.3, 3.0, 0.0],
                                                    [0.1, 0.0, 1.0]]))
    rng = np.random.default_rng(11)
    for p in (BOAT, coupled):
        for _ in range(50):
            state = rng.uniform(-2.0, 2.0, 6)
            u = rng.uniform(-2.0, 2.0, 2)
            v = state[3:6]
            gu = np.array([u[0], 0.0, u[1]])
            want = np.concatenate([
                kinematic_matrix(state[2]) @ v,
                inertia_inv(p) @ (gu - coriolis(p, v) @ v - p.d @ v)])
            assert np.allclose(dynamics_rhs(p, state, u), want, rtol=0.0, atol=1e-12)


COUPLED = VehicleParams(1.0, 2.0, 0.5, np.array([[2.0, 0.3, 0.1], [0.3, 3.0, 0.2],
                                                [0.1, 0.2, 1.0]]))


@pytest.mark.parametrize("vessel", ["boat", "coupled"])
def test_dynamics_rhs_on_columns_equals_the_float_kernel(vessel):
    # one call on state columns with a float heading and two input columns
    # must give the per-sample float kernel's values bit for bit
    p = BOAT if vessel == "boat" else COUPLED
    rng = np.random.default_rng(12)
    states = rng.uniform(-4.0, 4.0, (2500, 6))
    inputs = rng.uniform(-3.0, 3.0, (2500, 2))
    heading = rng.uniform(-8.0, 8.0)
    states[:, 2] = heading
    x, y, _, vx, vy, omega = states.T
    columns = dynamics_rhs(p, (x, y, heading, vx, vy, omega), tuple(inputs.T))
    assert len(columns) == 6 and all(c.shape == (2500,) for c in columns)
    per_sample = [dynamics_rhs(p, s, u) for s, u in zip(states.tolist(), inputs.tolist())]
    assert np.array_equal(np.column_stack(columns), np.array(per_sample))


@pytest.mark.parametrize("rows", ["state", "u", "both"])
@pytest.mark.parametrize("p", [BOAT, COUPLED], ids=["boat", "coupled"])
def test_dynamics_rhs_takes_numpy_rows_as_floats(p, rows):
    # a row indexed out of an array gives a 6-tuple of floats, bit-equal to
    # the call on float tuples
    rng = np.random.default_rng(13)
    for state, u in zip(rng.uniform(-4.0, 4.0, (200, 6)), rng.uniform(-3.0, 3.0, (200, 2))):
        want = dynamics_rhs(p, tuple(state.tolist()), tuple(u.tolist()))
        got = dynamics_rhs(p, state if rows != "u" else tuple(state.tolist()),
                           u if rows != "state" else tuple(u.tolist()))
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_rk4_stages_stay_on_floats_under_array_inputs():
    # the audit's right-hand side indexes its input array; every stage the
    # loop forms must then be Python floats, and the states must be those of
    # float-tuple inputs
    rng = np.random.default_rng(14)
    us = rng.uniform(-2.0, 2.0, (100, 2)) + np.array([0.0, 1.0])
    y0 = rng.uniform(-1.0, 1.0, 6)
    settings = IntegratorSettings(step=0.01, tf=1.0)
    stages = []

    def rhs_of(inputs):
        def rhs(t, y):
            stages.append(y)
            return dynamics_rhs(BOAT, y, inputs[min(int(t / 0.01), 99)])
        return rhs

    from_rows = integrate(rhs_of(us), y0, settings)
    assert len(stages) == 400
    assert all(type(v) is float for y in stages for v in y)
    from_tuples = integrate(rhs_of([tuple(u) for u in us.tolist()]), y0, settings)
    assert from_rows.states.tobytes() == from_tuples.states.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams.diagonal(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        VehicleParams.diagonal(1.0, 1.0, 1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        VehicleParams(1.0, 1.0, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
    asym = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        VehicleParams(1.0, 1.0, 1.0, asym)
    # asymmetric within numpy's default relative tolerance of allclose
    large = np.array([[4e6, 1e6, 0.0], [1e6 + 9.0, 4e6, 0.0], [0.0, 0.0, 4e6]])
    with pytest.raises(ValueError, match=r"^damping matrix must be symmetric, got "
                                         r"d12 = 1000000\.0 and d21 = 1000009\.0$"):
        VehicleParams(1.0, 1.0, 1.0, large)
    unit = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 1.0], [0.0, 1.000009, 4.0]])
    with pytest.raises(ValueError, match=r"^damping matrix must be symmetric, got "
                                         r"d23 = 1\.0 and d32 = 1\.000009$"):
        VehicleParams(1.0, 1.0, 1.0, unit)


@pytest.mark.parametrize("entry, value", [("m11", math.inf), ("m33", math.nan),
                                          ("d22", math.inf), ("d11", math.nan)])
def test_params_name_a_non_finite_entry(entry, value):
    entries = {"m11": 1.0, "m22": 1.0, "m33": 1.0, "d11": 1.0, "d22": 1.0, "d33": 1.0}
    entries[entry] = value
    with pytest.raises(ValueError, match=rf"{entry} must be finite"):
        VehicleParams.diagonal(**entries)


@pytest.mark.parametrize("entry, value", [("d11", 0.0), ("d22", -1.0), ("d33", -math.inf)])
def test_params_name_a_non_positive_damping_entry(entry, value):
    entries = {"m11": 1.0, "m22": 1.0, "m33": 1.0, "d11": 1.0, "d22": 1.0, "d33": 1.0}
    entries[entry] = value
    with pytest.raises(ValueError, match=rf"^damping entry {entry} must be strictly "
                                         rf"positive, got {value}$"):
        VehicleParams.diagonal(**entries)


def test_nondiagonal_damping_accepted():
    d = np.array([[2.0, 0.3, 0.0], [0.3, 3.0, 0.0], [0.0, 0.0, 1.0]])
    p = VehicleParams(1.0, 2.0, 0.5, d)
    assert not p.is_diagonal_damping()
    with pytest.raises(ValueError):
        c_hat_bound(p)
