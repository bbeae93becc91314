import math

import numpy as np
import pytest

from surgeseek.averaging import (ConfigVectorField, averaged_rhs,
                                 body_input_field, closed_loop_fields,
                                 coriolis_bilinear, double_integrator_demo,
                                 double_integrator_fields, es_input_field,
                                 es_self_product, fd_jacobian,
                                 iterated_bracket, lambda_matrix, lie_bracket,
                                 symmetric_product, xi_field)
from surgeseek.costs import get_field, quadratic_cost
from surgeseek.dither import DitherComponent, DitherSet, EsGains, es_dither_set
from surgeseek.vehicle import dynamics_rhs, reference_boat

from oracles import coriolis, inertia_inv, kinematic_matrix, second_derivative_term_fd

TWO_PI = 2.0 * math.pi
BOAT = reference_boat()
COST = quadratic_cost()
B0 = np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# Lie brackets

def test_bracket_of_field_with_itself_vanishes():
    def f(x):
        return np.array([x[1] ** 2, math.sin(x[0])])

    assert np.allclose(lie_bracket(f, f, np.array([0.4, -1.2])), 0.0, atol=1e-8)


def test_bracket_of_constant_fields_vanishes():
    f = lambda x: np.array([1.0, 2.0])
    g = lambda x: np.array([-3.0, 0.5])
    assert np.allclose(lie_bracket(f, g, np.array([0.1, 0.2])), 0.0, atol=1e-10)


def test_double_integrator_bracket_closed_form():
    # ad_g f for the damped double integrator has the closed form
    # -v * (-k(z1), k(z1) + k'(z1) z2) for shape k and dither value v
    k = lambda z: (z - 1.0) ** 2 + 1.0
    kp = lambda z: 2.0 * (z - 1.0)
    v = 0.73
    f, g0 = double_integrator_fields(k)
    g = lambda z: v * g0(z)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.uniform(-3, 3, 2)
        expected = -v * np.array([-k(z[0]), k(z[0]) + kp(z[0]) * z[1]])
        got = lie_bracket(f, g, z)
        assert np.linalg.norm(got - expected) <= 1e-6 * max(1.0, np.linalg.norm(expected))


def test_bracket_rejects_non_finite_field():
    bad = lambda x: np.array([math.nan, 0.0])
    good = lambda x: np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        lie_bracket(bad, good, np.array([0.0, 0.0]))


def test_third_iterated_bracket_vanishes_double_integrator():
    f, g = double_integrator_fields(lambda z: (z - 1.0) ** 2 + 1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.uniform(-2, 2, 2)
        assert np.linalg.norm(iterated_bracket(f, g, z, 3)) < 1e-4


def test_third_iterated_bracket_vanishes_closed_loop():
    f, g = closed_loop_fields(BOAT, EsGains(k=1.0, c=1.0, epsilon=0.1), COST)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-2, 2, 6)
        assert np.linalg.norm(iterated_bracket(f, g, x, 3)) < 1e-4


# ---------------------------------------------------------------------------
# symmetric product

def test_symmetric_product_is_symmetric():
    x_field = ConfigVectorField(lambda q: np.array([q[0] ** 2, math.sin(q[2]), q[1]]))
    y_field = ConfigVectorField(lambda q: np.array([q[1], q[0] * q[2], 1.0]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = rng.uniform(-3, 3, 3)
        a = symmetric_product(x_field, y_field, BOAT, q)
        b = symmetric_product(y_field, x_field, BOAT, q)
        assert np.allclose(a, b, atol=1e-12)


def _symmetric_product_matrices(x_field, y_field, params, q, probe=1e-5):
    """Oracle: <X:Y>(q) from J(theta), C(v), M^{-1} and 3x3 Jacobian arrays."""
    def jac(field):
        if field.jacobian is not None:
            return np.asarray(field.jacobian(q), dtype=float)
        return fd_jacobian(field.value, q, probe)

    xv = np.asarray(x_field.value(q), dtype=float)
    yv = np.asarray(y_field.value(q), dtype=float)
    jq = kinematic_matrix(q[2])
    term3 = coriolis(params, xv) @ yv + coriolis(params, yv) @ xv
    return jac(x_field) @ (jq @ yv) + jac(y_field) @ (jq @ xv) + inertia_inv(params) @ term3


@pytest.mark.parametrize("route", ["seeking", "arrays", "no_jacobian"])
def test_symmetric_product_matches_matrix_oracle(route):
    rng = np.random.default_rng(6)
    a, b = rng.uniform(-2.0, 2.0, (2, 3, 3))
    if route == "seeking":
        x_field = y_field = es_input_field(BOAT, 1.3, COST)
    elif route == "arrays":
        x_field = ConfigVectorField(lambda q: a @ np.array([q[0], q[1] ** 2, math.sin(q[2])]),
                                    lambda q: a * np.array([1.0, 2.0 * q[1], math.cos(q[2])]))
        y_field = ConfigVectorField(lambda q: b @ np.array([q[1], q[0] * q[2], 1.0]),
                                    lambda q: b @ np.array([[0.0, 1.0, 0.0], [q[2], 0.0, q[0]],
                                                            [0.0, 0.0, 0.0]]))
    else:
        x_field = ConfigVectorField(es_input_field(BOAT, 1.3, COST).value)
        y_field = ConfigVectorField(lambda q: b @ np.array([q[1], q[0] * q[2], 1.0]))
    for _ in range(50):
        q = rng.uniform(-5.0, 5.0, 3)
        want = _symmetric_product_matrices(x_field, y_field, BOAT, q)
        got = symmetric_product(x_field, y_field, BOAT, q)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("route", ["seeking", "no_jacobian"])
def test_self_product_equals_the_two_field_route_bit_for_bit(route):
    # <X:X> evaluates X once; a copy of X with another identity takes the
    # two-field route, which must give the same bits
    field = es_input_field(BOAT, 1.3, COST)
    if route == "no_jacobian":
        field = ConfigVectorField(field.value)
    copy = ConfigVectorField(field.value, field.jacobian)
    assert copy is not field
    rng = np.random.default_rng(15)
    for q in rng.uniform(-5.0, 5.0, (50, 3)):
        q = tuple(q.tolist())
        assert (symmetric_product(field, field, BOAT, q).tobytes()
                == symmetric_product(field, copy, BOAT, q).tobytes())


def test_seeking_product_closed_form_matches_generic():
    b1 = es_input_field(BOAT, 1.0, COST)
    closed = es_self_product(BOAT, 1.0, COST)
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = rng.uniform(-5, 5, 3)
        got = symmetric_product(b1, b1, BOAT, q)
        want = closed(q)
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def test_seeking_product_at_origin():
    got = symmetric_product(es_input_field(BOAT, 1.0, COST),
                            es_input_field(BOAT, 1.0, COST), BOAT, np.zeros(3))
    assert got[0] == pytest.approx(-38.12, abs=0.01)
    assert got[1] == pytest.approx(0.0, abs=1e-9)
    assert got[2] == pytest.approx(0.0, abs=1e-9)


def test_constant_yaw_field_self_product_vanishes():
    e3 = ConfigVectorField(lambda q: np.array([0.0, 0.0, 1.0]))
    q = np.array([0.3, -0.7, 1.1])
    assert np.allclose(symmetric_product(e3, e3, BOAT, q), 0.0, atol=1e-9)


def test_generic_product_without_analytic_jacobian():
    b1_fd = ConfigVectorField(es_input_field(BOAT, 1.0, COST).value)  # no jacobian
    closed = es_self_product(BOAT, 1.0, COST)
    q = np.array([1.0, 2.0, 0.4])
    got = symmetric_product(b1_fd, b1_fd, BOAT, q)
    assert np.allclose(got, closed(q), atol=1e-5)


def test_velocity_second_derivative_term_exact_vs_fd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        xv, yv = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        exact = -inertia_inv(BOAT) @ coriolis_bilinear(BOAT, xv, yv)
        fd = second_derivative_term_fd(BOAT, B0, xv, yv)
        assert np.allclose(fd, exact, atol=1e-6)


def test_second_derivative_term_base_point_independent():
    xv = np.array([1.0, -0.5, 2.0])
    yv = np.array([0.3, 0.7, -1.1])
    at_zero = second_derivative_term_fd(BOAT, B0, xv, yv)
    at_other = second_derivative_term_fd(BOAT, B0, xv, yv,
                                         base_point=np.array([2.0, -3.0, 1.0]))
    assert np.allclose(at_zero, at_other, atol=1e-6)


# ---------------------------------------------------------------------------
# dither averaging weights

def _cos_component(freq=1.0):
    return DitherComponent(w=lambda t: math.cos(freq * t),
                           shape=lambda q: np.array([1.0, 0.0]),
                           period=TWO_PI,
                           w_integral=lambda t: math.sin(freq * t) / freq)


def test_lambda_single_cosine():
    dset = DitherSet(b0=np.zeros(2), components=(_cos_component(),))
    lam = lambda_matrix(dset)
    assert lam[0, 0] == pytest.approx(0.25, abs=1e-10)


def test_lambda_cos_pair():
    dset = DitherSet(b0=np.zeros(2),
                     components=(_cos_component(1.0), _cos_component(2.0)))
    lam = lambda_matrix(dset)
    assert lam[0, 1] == pytest.approx(0.0, abs=1e-10)
    assert lam[1, 0] == pytest.approx(0.0, abs=1e-10)
    assert lam[1, 1] == pytest.approx(1.0 / 16.0, abs=1e-10)
    assert np.array_equal(lam, lam.T)


def test_lambda_two_harmonic_component():
    # W = sin t + sin(2t) / 2: (1/4 pi) int_0^{2 pi} W^2 = (1/4 pi)(pi + pi/4) = 5/16
    comp = DitherComponent(w=lambda t: math.cos(t) + math.cos(2.0 * t),
                           shape=lambda q: np.array([1.0, 0.0]),
                           period=TWO_PI,
                           w_integral=lambda t: math.sin(t) + 0.5 * math.sin(2.0 * t))
    lam = lambda_matrix(DitherSet(b0=np.zeros(2), components=(comp,)))
    assert lam[0, 0] == pytest.approx(5.0 / 16.0, abs=1e-15)


def test_lambda_positive_semidefinite():
    dset = DitherSet(b0=np.zeros(2),
                     components=tuple(_cos_component(f) for f in (1.0, 2.0, 3.0)))
    lam = lambda_matrix(dset)
    assert np.min(np.linalg.eigvalsh(lam)) >= -1e-12


def test_lambda_period_mismatch():
    bad = DitherComponent(w=math.cos, shape=lambda q: np.zeros(2), period=1.0,
                          w_integral=math.sin)
    dset = DitherSet(b0=np.zeros(2), components=(_cos_component(), bad))
    with pytest.raises(ValueError, match="period"):
        lambda_matrix(dset)


# ---------------------------------------------------------------------------
# oscillatory correction

def test_xi_zero_at_start():
    dset = es_dither_set(EsGains(k=1.0, c=1.0, epsilon=0.1), COST)
    assert np.allclose(xi_field(dset, BOAT, 0.0, np.zeros(3)), 0.0)


def test_xi_quarter_period_value():
    dset = es_dither_set(EsGains(k=1.0, c=1.0, epsilon=0.1), COST)
    xi = xi_field(dset, BOAT, math.pi / 2, np.zeros(3))
    assert xi[0] == pytest.approx(9.5 / 1.412, abs=1e-9)
    assert xi[1] == 0.0 and xi[2] == 0.0


def test_xi_vanishes_after_full_period():
    # a constant shape with a yaw channel, unlike the seeking law's
    comp = DitherComponent(w=math.cos, shape=lambda q: np.array([2.0, 0.5]),
                           period=TWO_PI, w_integral=math.sin)
    dset = DitherSet(b0=np.zeros(2), components=(comp,))
    xi = xi_field(dset, BOAT, TWO_PI, np.zeros(3))
    assert np.allclose(xi, 0.0, atol=1e-9)


@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
def test_dither_shape_and_input_field_state_one_b1(name):
    # es_dither_set's shape (k rho, 0) through M^{-1} G is es_input_field's
    # (k rho / m11, 0, 0), in the same operation order, so bit for bit
    cost = get_field(name)
    gains = EsGains(k=1.3, c=1.0, epsilon=0.1)
    shape = es_dither_set(gains, cost).components[0].shape
    generic = body_input_field(BOAT, shape)
    closed = es_input_field(BOAT, gains.k, cost)
    rng = np.random.default_rng(11)
    for q in rng.uniform(-5.0, 5.0, (50, 3)):
        assert np.array_equal(generic.value(q), closed.value(q))


# ---------------------------------------------------------------------------
# averaged dynamics

def test_averaged_rhs_without_fields_is_plain_dynamics():
    state = np.array([0.5, -1.0, 0.7, 0.2, -0.1, 0.9])
    got = averaged_rhs(BOAT, B0, [], np.zeros((0, 0)), state)
    want = dynamics_rhs(BOAT, state, np.array([0.0, 1.0]))
    assert np.allclose(got, want, atol=1e-14)


def test_averaged_forcing_force_at_origin():
    b1 = es_input_field(BOAT, 1.0, COST)
    state = np.zeros(6)
    lam = np.array([[0.25]])
    with_forcing = averaged_rhs(BOAT, B0, [b1], lam, state)
    plain = dynamics_rhs(BOAT, state, np.array([0.0, 1.0]))
    force = BOAT.m11 * (with_forcing[3] - plain[3])
    assert force == pytest.approx(13.46, abs=0.01)
    assert np.allclose(with_forcing[4:6], plain[4:6], atol=1e-9)


def test_averaged_forcing_matches_projected_gradient():
    # surge forcing force equals -(k^2 / 2 m11) rho (grad rho . heading)
    k = 1.3
    b1 = es_input_field(BOAT, k, COST)
    lam = np.array([[0.25]])
    rng = np.random.default_rng(6)
    for _ in range(10):
        state = np.concatenate([rng.uniform(-4, 4, 3), rng.uniform(-1, 1, 3)])
        with_forcing = averaged_rhs(BOAT, B0, [b1], lam, state)
        plain = dynamics_rhs(BOAT, state, np.array([0.0, 1.0]))
        force = BOAT.m11 * (with_forcing[3] - plain[3])
        rho = COST.value(state[0], state[1])
        gx, gy = COST.gradient(state[0], state[1])
        along = gx * math.cos(state[2]) + gy * math.sin(state[2])
        assert force == pytest.approx(-(k ** 2 / (2.0 * BOAT.m11)) * rho * along,
                                      rel=1e-6)


def test_averaged_forcing_is_heading_derivative_of_potential():
    # the averaged potential (k^2 / 4 m11) rho^2 differentiated along the
    # heading direction reproduces minus the surge forcing force
    k = 0.9
    b1 = es_input_field(BOAT, k, COST)
    lam = np.array([[0.25]])
    state = np.array([1.5, -0.5, 0.8, 0.0, 0.0, 0.0])
    with_forcing = averaged_rhs(BOAT, B0, [b1], lam, state)
    plain = dynamics_rhs(BOAT, state, np.array([0.0, 1.0]))
    force = BOAT.m11 * (with_forcing[3] - plain[3])

    def potential_along(s):
        x = state[0] + s * math.cos(state[2])
        y = state[1] + s * math.sin(state[2])
        return (k ** 2 / (4.0 * BOAT.m11)) * COST.value(x, y) ** 2

    h = 1e-6
    dpot = (potential_along(h) - potential_along(-h)) / (2.0 * h)
    assert force == pytest.approx(-dpot, rel=1e-6)


def test_averaged_rhs_dimension_mismatch():
    b1 = es_input_field(BOAT, 1.0, COST)
    with pytest.raises(ValueError):
        averaged_rhs(BOAT, B0, [b1], np.zeros((2, 2)), np.zeros(6))


def test_averaged_rhs_of_array_row_equals_float_tuple_bit_for_bit():
    # the audit passes array rows, `integrate` float tuples: both must give
    # the same bits, through a closed-form Jacobian and a finite-difference one
    fields = [es_input_field(BOAT, 1.3, COST),
              ConfigVectorField(lambda q: (q[0] ** 2 / BOAT.m11, 0.0, math.sin(q[2])))]
    lam = np.array([[0.25, -0.1], [-0.1, 0.0]])
    rng = np.random.default_rng(11)
    for row in rng.uniform(-3.0, 3.0, (20, 6)):
        from_row = averaged_rhs(BOAT, B0, fields, lam, row)
        from_tuple = averaged_rhs(BOAT, B0, fields, lam, tuple(row.tolist()))
        assert isinstance(from_row, np.ndarray) and from_row.shape == (6,)
        assert from_row.tobytes() == from_tuple.tobytes()


def test_body_input_field_maps_through_inertia():
    field = body_input_field(BOAT, lambda q: np.array([2.0, 3.0]))
    got = field.value(np.zeros(3))
    assert np.allclose(got, [2.0 / BOAT.m11, 0.0, 3.0 / BOAT.m33])


# ---------------------------------------------------------------------------
# double-integrator demonstration

def test_double_integrator_zero_dither():
    report = double_integrator_demo(lambda z: (z - 1.0) ** 2 + 1.0, alpha=0.0,
                                    omega_freq=20.0, horizon=10.0,
                                    initial=(0.5, 1.0), minimizer=1.0,
                                    h_prime=lambda z: 2.0 * (z - 1.0))
    xi1 = report.full.states[:, 0]
    # xi2 decays, xi1 drifts to xi1(0) + xi2(0) and then freezes
    assert abs(report.full.states[-1, 1]) < 1e-3
    assert np.max(np.abs(np.diff(xi1[-100:]))) < 1e-6


def test_double_integrator_zero_dither_loops_coincide():
    # with alpha = 0 both loops are z'' = -z' on two grids; dense output with
    # the exact rate z1' = z2 leaves only the RK4 error between them
    report = double_integrator_demo(lambda z: (z - 1.0) ** 2 + 1.0, alpha=0.0,
                                    omega_freq=20.0, horizon=10.0,
                                    initial=(0.5, 1.0), minimizer=1.0,
                                    h_prime=lambda z: 2.0 * (z - 1.0))
    assert report.sup_gap <= 1e-10


def test_double_integrator_frequency_improves_precision():
    h = lambda z: (z - 1.0) ** 2 + 1.0
    hp = lambda z: 2.0 * (z - 1.0)
    slow = double_integrator_demo(h, 1.0, 10.0, 50.0, minimizer=1.0, h_prime=hp)
    fast = double_integrator_demo(h, 1.0, 20.0, 50.0, minimizer=1.0, h_prime=hp)
    assert fast.final_error_full < slow.final_error_full
    assert fast.final_error_full < 0.2 and slow.final_error_full < 0.2


def test_fd_jacobian_second_order():
    def fun(x):
        return np.array([math.sin(x[0]) * x[1], x[0] ** 3])

    x = np.array([0.7, -1.2])
    exact = np.array([[math.cos(x[0]) * x[1], math.sin(x[0])],
                      [3.0 * x[0] ** 2, 0.0]])
    coarse = np.max(np.abs(fd_jacobian(fun, x, 1e-2) - exact))
    fine = np.max(np.abs(fd_jacobian(fun, x, 1e-3) - exact))
    assert 50.0 < coarse / fine < 200.0  # second-order in the probe
