"""
Test oracles: second statements of the vessel model, the cost gradient,
the general oscillatory input and the trajectory CSV's bytes.

The package states the model once, in `vehicle.MODEL`, and each closed form
once. The matrices and finite-difference routes below restate them
independently, so the tests can check one against the other, and the
runners' right-hand sides are kept here as closures that call
`dynamics_rhs`, the reference of the `model_rhs` functions the runners
step; no run executes them.
"""
import math

import numpy as np

from surgeseek.averaging import LAMBDA_11, es_surge_self_product, fd_jacobian
from surgeseek.dither import surge_law
from surgeseek.vehicle import dynamics_rhs


def kinematic_matrix(theta):
    """Body-to-world kinematic transformation J(theta); block-orthogonal."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0],
                     [s, c, 0.0],
                     [0.0, 0.0, 1.0]])


def coriolis(params, v):
    """Coriolis matrix C(v) of the surface vessel; skew-symmetric for all v."""
    vx, vy = v[0], v[1]
    a = params.m22 * vy
    b = params.m11 * vx
    return np.array([[0.0, 0.0, -a],
                     [0.0, 0.0, b],
                     [a, -b, 0.0]])


def inertia(params):
    """The diagonal inertia matrix M."""
    return np.diag([params.m11, params.m22, params.m33])


def inertia_inv(params):
    """M^{-1}, entry by entry."""
    return np.diag([1.0 / params.m11, 1.0 / params.m22, 1.0 / params.m33])


def second_derivative_term_fd(params, b0, xv, yv, probe=1e-4, base_point=None):
    """(d/dv((df2/dv) X)) Y by nested finite differences of f2.

    f2 is quadratic in v, so the result is independent of `base_point`;
    exposing the base point lets tests assert exactly that.
    """
    def f2(v):
        """f2(v) = -M^{-1} (C(v)v + Dv - B0), the velocity drift under b0."""
        return np.array(dynamics_rhs(params, np.concatenate([np.zeros(3), v]), b0)[3:])

    xv = np.asarray(xv, dtype=float)
    yv = np.asarray(yv, dtype=float)
    if base_point is None:
        base_point = np.zeros(3)

    def df2_x(v):
        return fd_jacobian(f2, v, probe) @ xv

    return fd_jacobian(df2_x, np.asarray(base_point, dtype=float), probe) @ yv


def general_input(dither_set, epsilon, t, q):
    """The general oscillatory input u = b0 + (1/eps) * sum_i b_i(q) * w_i(t/eps)."""
    u = dither_set.b0.copy()
    tau = t / epsilon
    for comp in dither_set.components:
        u += (comp.w(tau) / epsilon) * np.asarray(comp.shape(q), dtype=float)
    return u


def gradient_check(field, points):
    """Worst relative error of central-difference vs analytic gradient."""
    probe = 1e-5
    worst = 0.0
    for x, y in points:
        fd = np.array([
            (field.value(x + probe, y) - field.value(x - probe, y)) / (2 * probe),
            (field.value(x, y + probe) - field.value(x, y - probe)) / (2 * probe),
        ])
        g = field.gradient(x, y)
        scale = max(np.linalg.norm(g), 1.0)
        worst = max(worst, np.linalg.norm(fd - g) / scale)
    return worst


def full_closure(scenario):
    """The full run's right-hand side as a closure that calls `dynamics_rhs`
    under the surge law's force and the constant torque."""
    p = scenario.vehicle
    value = scenario.cost.value
    c_torque = scenario.gains.c
    u1 = surge_law(scenario.gains)

    def rhs(t, y):
        return dynamics_rhs(p, y, (u1(t, value(y[0], y[1])), c_torque))

    return rhs


def averaged_closure(scenario):
    """The averaged run's right-hand side as a closure: the drift under zero
    surge force and the constant torque, its surge rate forced by
    -Lambda_11 <B1:B1>."""
    p = scenario.vehicle
    c_torque = scenario.gains.c
    self_product = es_surge_self_product(p, scenario.gains.k, scenario.cost)

    def rhs(_t, y):
        dx, dy, dth, dvx, dvy, dom = dynamics_rhs(p, y, (0.0, c_torque))
        forcing = self_product(y[0], y[1], math.cos(y[2]), math.sin(y[2]))
        return (dx, dy, dth, dvx - LAMBDA_11 * forcing, dvy, dom)

    return rhs


def template_csv(header, columns):
    """The bytes of the CSV of `columns` under `header` (none if None), as
    one `%` over a template of `'%.15g'` fields writes them: the route
    `scenario._write_rows` formatted its blocks by before it formatted them
    on numpy arrays."""
    block = np.column_stack(columns)
    rows, width = block.shape
    row = ",".join(["%.15g"] * width) + "\n"
    text = "" if header is None else header + "\n"
    return (text + (row * rows) % tuple(block.ravel().tolist())).encode()
