"""Property tests over random inputs for the invariants the analysis relies on.

Skew-symmetric Coriolis forces, symmetric products (and the seeking law's
closed form agreeing with the generic one), the steady-state solve (the
pure spin c/d33 for diagonal damping, a root or a RuntimeError for coupled
damping), a non-positive storage residual below the torque bound, RK4's
fourth order, and a run stepped in two ranges of rows giving the bits of
one `integrate`. Examples are derandomized so
that a run of the suite is reproducible.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from surgeseek import scenario as sc
from surgeseek.averaging import (ConfigVectorField, es_input_field, es_self_product,
                                 symmetric_product)
from surgeseek.costs import get_field
from surgeseek.dither import EsGains
from surgeseek.integrator import (BlowUpError, IntegratorSettings, Trajectory, allocate,
                                  integrate, step_rows)
from surgeseek.passivity import (c_hat_bound, monotonicity_check, passivity_residual,
                                 steady_state_for_torque)
from surgeseek.vehicle import VehicleParams, reference_boat

from oracles import coriolis

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

positive = st.floats(0.2, 5.0)
vessels = st.builds(VehicleParams.diagonal, positive, positive, positive,
                    positive, positive, positive)


def vectors(n, bound=5.0):
    return arrays(np.float64, n, elements=st.floats(-bound, bound))


@PROPERTY
@given(vessels, vectors(3))
def test_coriolis_is_skew_symmetric(p, v):
    c = coriolis(p, v)
    assert np.array_equal(c, -c.T)


def _affine_field(offset, matrix):
    """X(q) = offset + matrix (x, y, sin theta), with no analytic Jacobian."""
    return ConfigVectorField(
        lambda q: offset + matrix @ np.array([q[0], q[1], math.sin(q[2])]))


@PROPERTY
@given(vessels, vectors(3), vectors(3), vectors(9), vectors(9), vectors(3))
def test_symmetric_product_is_symmetric(p, a, b, ma, mb, q):
    x_field = _affine_field(a, ma.reshape(3, 3))
    y_field = _affine_field(b, mb.reshape(3, 3))
    assert np.array_equal(symmetric_product(x_field, y_field, p, q),
                          symmetric_product(y_field, x_field, p, q))


@PROPERTY
@given(vessels, st.floats(0.1, 3.0),
       st.sampled_from(["quadratic", "rotated_quadratic", "log_bowl"]),
       vectors(2), st.floats(0.0, 2.0), vectors(3))
def test_closed_form_self_product_matches_generic(p, k, name, star, floor, q):
    cost = get_field(name, x_star=star[0], y_star=star[1], floor=floor)
    got = symmetric_product(*[es_input_field(p, k, cost)] * 2, p, q)
    want = es_self_product(p, k, cost)(q)
    gx, gy = cost.gradient(q[0], q[1])
    scale = 2.0 * (k / p.m11) ** 2 * cost.value(q[0], q[1]) * (abs(gx) + abs(gy))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@PROPERTY
@given(vessels, st.floats(1e-6, 1e4))
def test_diagonal_steady_state_is_the_pure_spin(p, c):
    # Newton's start D^-1 Gu* is already the root: no step moves it
    v_star = steady_state_for_torque(p, c).v_star
    assert v_star.tobytes() == np.array([0.0, 0.0, c / p.d[2, 2]]).tobytes()


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_coupled_steady_state_is_a_root_or_a_runtime_error(seed):
    # a vessel drawn as in the coupled monotonicity test of test_passivity
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 3.0, 3)
    low = rng.normal(0.0, 0.6, (3, 3))
    p = VehicleParams(*m.tolist(), low @ low.T + np.diag(rng.uniform(0.2, 3.0, 3)))
    c = rng.uniform(0.2, 8.0)
    try:
        v_star = steady_state_for_torque(p, c).v_star
    except RuntimeError:
        return
    res = coriolis(p, v_star) @ v_star + p.d @ v_star - np.array([0.0, 0.0, c])
    assert np.linalg.norm(res) <= 1e-10


@PROPERTY
@given(vessels, st.floats(0.01, 0.99), arrays(np.float64, (8, 6), elements=st.floats(-3.0, 3.0)),
       arrays(np.float64, (8, 2), elements=st.floats(-5.0, 5.0)))
def test_storage_residual_non_positive_below_bound(p, fraction, states, inputs):
    assume(abs(p.m22 - p.m11) >= 0.05)
    c = fraction * c_hat_bound(p)
    traj = Trajectory(t=np.arange(8.0), states=states, inputs=inputs + np.array([0.0, c]))
    assert passivity_residual(traj, p, c) <= 1e-9


@PROPERTY
@given(vessels)
def test_bound_is_the_eigenvalue_threshold(p):
    assume(abs(p.m22 - p.m11) >= 0.05)
    c_hat = c_hat_bound(p)
    assert monotonicity_check(p, 0.99 * c_hat)
    assert not monotonicity_check(p, 1.01 * c_hat)


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.0, math.pi), vectors(2, bound=2.0))
def test_rk4_step_halving_ratio_is_sixteen(modulus, angle, y0):
    # y' = A y with eigenvalues modulus * exp(+-i angle), exact flow known
    assume(np.linalg.norm(y0) >= 0.5)
    a, b = modulus * math.cos(angle), modulus * math.sin(angle)
    matrix = np.array([[a, -b], [b, a]])
    exact = math.exp(a) * np.array([[math.cos(b), -math.sin(b)],
                                    [math.sin(b), math.cos(b)]]) @ y0

    def error(step):
        traj = integrate(lambda _t, y: matrix @ y, y0, IntegratorSettings(step=step, tf=1.0))
        return np.linalg.norm(traj.states[-1] - exact)

    assert 14.0 <= error(0.02) / error(0.01) <= 18.0


# the full runner's closed loop over a 1 s horizon: 80 RK4 steps
FULL = sc.Scenario(vehicle=reference_boat(), cost=get_field("quadratic"),
                   gains=EsGains(1.0, 1.0, 0.1), initial=[0.5, -0.3, 0.2, 0.1, 0.0, 0.4],
                   horizon=1.0, samples_per_period=50)
FULL_SETTINGS = IntegratorSettings(step=sc._full_step(FULL), tf=FULL.horizon)
STEPS = FULL_SETTINGS.n_steps


def _in_two_ranges(rhs, i):
    """The run of `rhs` on FULL's grid, stepped as steps [0, i), then [i, STEPS)."""
    traj = allocate(FULL.initial, FULL_SETTINGS)
    step_rows(rhs, traj.states, FULL_SETTINGS.step, 0, i)
    step_rows(rhs, traj.states, FULL_SETTINGS.step, i, STEPS)
    return traj


@PROPERTY
@given(st.integers(1, STEPS - 1))
def test_stepping_in_two_ranges_gives_the_bits_of_one_integrate(i):
    rhs = sc._full_rhs(FULL)
    one = integrate(rhs, FULL.initial, FULL_SETTINGS)
    two = _in_two_ranges(rhs, i)
    assert two.t.tobytes() == one.t.tobytes()
    assert two.states.tobytes() == one.states.tobytes()


@PROPERTY
@given(st.integers(1, STEPS - 1).flatmap(lambda i: st.tuples(st.just(i),
                                                              st.integers(i, STEPS - 1))))
def test_a_blow_up_after_the_split_is_the_blow_up_of_one_integrate(split):
    i, j = split
    h = FULL_SETTINGS.step
    full_rhs = sc._full_rhs(FULL)

    def rhs(t, y):
        # NaN from the second stage of step j on; step j - 1 ends at t ~ h * j
        return (math.nan,) * 6 if t > h * (j + 0.25) else full_rhs(t, y)

    with pytest.raises(BlowUpError) as one:
        integrate(rhs, FULL.initial, FULL_SETTINGS)
    with pytest.raises(BlowUpError) as two:
        _in_two_ranges(rhs, i)
    assert two.value.time == one.value.time == h * (j + 1)
    assert two.value.state.tobytes() == one.value.state.tobytes()
