"""
3-DOF planar underactuated vehicle model.

State convention used throughout the package is a flat array of length 6:

    [x_world (m),
     y_world (m),
     heading (rad, unwrapped real line, never reduced mod 2*pi),
     surge velocity v_x (m/s, body frame),
     sway velocity v_y (m/s, body frame),
     yaw rate omega (rad/s)]

Input is [surge force u1 (N), yaw torque u2 (N*m)]. There is no sway
actuator: the generalized force is G u = (u1, 0, u2), which encodes the
underactuation.

Dynamics:

    q_dot = J(theta) v
    M v_dot + C(v) v + D v = G u

with diagonal inertia M, a skew-symmetric Coriolis matrix C(v) with the
standard surface-vessel structure, and a constant positive-definite
damping matrix D (linear hydrodynamic damping).

`dynamics_rhs` is the package's single right-hand side of this model:
the full and averaged runners, the averaged (symmetric product) system,
the drift fields and the passivity audit all evaluate it.
"""
import math
import numbers
from dataclasses import dataclass, field
from math import cos, sin

import numpy as np


@dataclass(frozen=True)
class VehicleParams:
    """Inertia and damping of the planar vehicle.

    m11, m22, m33 are the diagonal inertia entries (surge, sway, yaw)
    and must be real numbers, finite and strictly positive; they are kept
    as Python floats. `d` is the 3x3 damping matrix, which must be finite and
    symmetric positive definite; `diagonal()` is the common constructor.
    `d_rows` holds the rows of `d` as tuples of floats, for `dynamics_rhs`.
    """

    m11: float
    m22: float
    m33: float
    d: np.ndarray
    d_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m11", "m22", "m33"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"inertia entry {name} must be a real number, got {value!r}")
            # a numpy scalar would step `dynamics_rhs` at numpy-scalar speed
            value = float(value)
            if not 0 < value < math.inf:
                raise ValueError(f"inertia entry {name} must be finite and strictly "
                                 f"positive, got {value}")
            object.__setattr__(self, name, value)
        d = np.asarray(self.d, dtype=float)
        if d.shape != (3, 3):
            raise ValueError("damping matrix must be 3x3")
        for (i, j), value in np.ndenumerate(d):
            if not math.isfinite(value):
                raise ValueError(f"damping entry d{i + 1}{j + 1} must be finite, got {value}")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ValueError("damping matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(d) <= 0):
            raise ValueError("damping matrix must be positive definite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_rows", tuple(map(tuple, d.tolist())))

    @classmethod
    def diagonal(cls, m11, m22, m33, d11, d22, d33):
        return cls(m11, m22, m33, np.diag([float(d11), float(d22), float(d33)]))

    def is_diagonal_damping(self):
        return bool(np.all(self.d == np.diag(np.diag(self.d))))


def reference_boat():
    """Benchmark boat with linear hydrodynamic damping."""
    return VehicleParams.diagonal(m11=1.412, m22=1.982, m33=0.354,
                                  d11=3.436, d22=12.99, d33=0.864)


def dynamics_rhs(params, state, u):
    """Time derivative of the 6-state under input u = (u1, u2), as a 6-tuple.

    Works on floats: C(v)v and D v are written out (the rows of D come
    from `params.d_rows`) and M^{-1} is applied by dividing by the
    diagonal inertia entries; D may be any valid damping matrix. A numpy
    row given for `state` or `u` is taken as Python floats, so the result
    is a 6-tuple of floats whatever the caller indexed: on numpy scalars
    every operation would cost about three times as much and carry that
    type into an RK4 loop's later stages. Given a tuple of state slots
    whose velocities are equal-length columns and whose heading is a
    float (`math.cos` takes no column), and a tuple of two input columns,
    the same arithmetic evaluates every sample in one call and returns
    six columns, bit-equal to the per-sample floats at that heading. The
    velocity derivatives do not read the heading.
    """
    if u.__class__ is not tuple or state.__class__ is not tuple:
        if isinstance(state, np.ndarray):
            state = state.tolist()
        if isinstance(u, np.ndarray):
            u = u.tolist()
    vx, vy, om = state[3], state[4], state[5]
    cth, sth = cos(state[2]), sin(state[2])
    m11, m22, m33 = params.m11, params.m22, params.m33
    (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = params.d_rows
    return (
        cth * vx - sth * vy,
        sth * vx + cth * vy,
        om,
        (u[0] + m22 * vy * om - (d11 * vx + d12 * vy + d13 * om)) / m11,
        (-m11 * vx * om - (d21 * vx + d22 * vy + d23 * om)) / m22,
        (u[1] - (m22 - m11) * vx * vy - (d31 * vx + d32 * vy + d33 * om)) / m33,
    )
