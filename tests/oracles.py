"""
Test oracles: second statements of the vessel model and the cost gradient.

The package states the model once, in `vehicle.dynamics_rhs`, and each
closed form once. The matrices and finite-difference routes below restate
them independently, so the tests can check one against the other; no run
executes them.
"""
import numpy as np

from surgeseek.averaging import fd_jacobian
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
