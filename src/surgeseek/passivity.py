"""
Shifted passivity of the vehicle around its constant-torque steady state.

Under the constant input u* = (0, c) the vehicle settles to a pure spin
v* = (0, 0, c/d33) (diagonal damping). With the storage function
H(v) = 1/2 (v - v*)^T M (v - v*), the map (u - u*) -> (eta - eta*) with
eta = G^T v is passive whenever the symmetrized velocity Jacobian of the
shifted drag-plus-Coriolis map stays dominated by the damping; for the
boat structure with diagonal damping that condition has the closed-form
torque threshold

    c_hat = 2 sqrt(d11 d22) d33 / |m22 - m11|    (m22 != m11).

The storage residual along any state is w (m22 - m11) vx vy minus the
damping form (v - v*)^T D (v - v*), with w = c / d33, so the bound holds
for either sign of m22 - m11; only m22 = m11 leaves c unconstrained.

`passivity_residual` verifies the storage inequality at every sample of
a recorded trajectory, computing H-dot through the dynamics (one
`dynamics_rhs` call on the trajectory's columns) rather than by
differencing H.
"""
import math
from dataclasses import dataclass

import numpy as np

from .vehicle import coriolis, dynamics_rhs

_RESIDUAL_TOL = 1e-10
_SLACK = 1e-9


@dataclass(frozen=True)
class SteadyState:
    u_star: np.ndarray    # (2,) input
    v_star: np.ndarray    # (3,) body velocity
    eta_star: np.ndarray  # (2,) output G^T v* = (v_x*, omega*)


def _steady_residual(params, v, u):
    """C(v)v + Dv - Gu, i.e. -M v_dot from the dynamics (M is diagonal).

    Evaluated on numpy scalars (`np.cos`, `np.sin`), so that an overflow
    in the kernel raises under the fixed-point iteration's `np.errstate`;
    on Python floats it would pass on as an inf.
    """
    vdot = dynamics_rhs(params, np.concatenate([np.zeros(3), v]), u, np.cos, np.sin)[3:]
    return -(np.array([params.m11, params.m22, params.m33]) * vdot)


def steady_state_for_torque(params, c):
    """Steady state under u* = (0, c); closed form for diagonal damping.

    The torque must be finite and positive.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"torque c must be finite and positive, got {c!r}")
    u_star = np.array([0.0, c])
    if params.is_diagonal_damping():
        v_star = np.array([0.0, 0.0, c / params.d[2, 2]])
    else:
        # damped fixed-point iteration on the steady-state residual; an
        # iterate that overflows stops it at once
        d_inv = np.linalg.inv(params.d)
        gu = np.array([0.0, 0.0, c])
        v_star = d_inv @ gu
        try:
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(10000):
                    res = _steady_residual(params, v_star, u_star)
                    if np.linalg.norm(res) < 1e-14:
                        break
                    v_star = v_star - 0.5 * (d_inv @ res)
                else:
                    raise RuntimeError("steady-state solve did not converge")
        except FloatingPointError as exc:
            raise RuntimeError(f"steady-state iteration diverged at c={c:g} "
                               f"({exc})") from exc
    res = np.linalg.norm(_steady_residual(params, v_star, u_star))
    if res > _RESIDUAL_TOL:
        raise RuntimeError(f"steady-state residual {res:.3e} above tolerance")
    return SteadyState(u_star=u_star, v_star=v_star,
                       eta_star=np.array([v_star[0], v_star[2]]))


def c_hat_bound(params):
    """Largest torque with guaranteed shifted passivity; inf if unconstrained."""
    if not params.is_diagonal_damping():
        raise ValueError("damping matrix is not diagonal")
    d11, d22, d33 = params.d[0, 0], params.d[1, 1], params.d[2, 2]
    if params.m22 == params.m11:
        return math.inf
    return 2.0 * math.sqrt(d11 * d22) * d33 / abs(params.m22 - params.m11)


def monotonicity_check(params, c):
    """Symmetrized-Jacobian condition d[C(v)v*]/dv + transpose <= 2D at torque c.

    Evaluated as an eigenvalue test; C(v)v* is linear in v for this
    Coriolis structure, so the Jacobian is constant and one test suffices.
    """
    v_star = steady_state_for_torque(params, c).v_star
    # A = d[C(v) v*]/dv, constant because C is linear in v
    basis = np.eye(3)
    a = np.column_stack([coriolis(params, e) @ v_star for e in basis])
    s = 2.0 * params.d - (a + a.T)
    return bool(np.min(np.linalg.eigvalsh(s)) >= -_SLACK)


def passivity_residual(trajectory, params, c):
    """Max over samples of H-dot - (u - u*)^T (eta - eta*); <= 0 when passive.

    H-dot = (v - v*)^T M v_dot is computed from the recorded input through
    `dynamics_rhs`, evaluated once on the trajectory's columns, so
    integrator error never masquerades as a passivity violation. A sample
    whose state or residual is not finite raises a ValueError naming its
    index, since a NaN would otherwise drop out of the max.
    """
    if trajectory.inputs is None:
        raise ValueError("trajectory has no recorded inputs")
    # `Trajectory` checks lengths at construction only, and callers assign
    # `inputs` afterwards; a one-row record would broadcast silently
    if len(trajectory.inputs) != len(trajectory.states):
        raise ValueError(f"trajectory has {len(trajectory.inputs)} input rows "
                         f"for {len(trajectory.states)} states")
    ss = steady_state_for_torque(params, c)
    vx_star, vy_star, wz_star = ss.v_star.tolist()
    u1_star, u2_star = ss.u_star.tolist()
    state, u = trajectory.states.T, trajectory.inputs.T
    # a non-finite sample is reported by index below, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        _, _, _, ax, ay, az = dynamics_rhs(params, state, u, np.cos, np.sin)
        dvx, dvy, dwz = state[3] - vx_star, state[4] - vy_star, state[5] - wz_star
        # M is diagonal, and eta - eta* = (dvx, dwz)
        h_dot = dvx * (params.m11 * ax) + dvy * (params.m22 * ay) + dwz * (params.m33 * az)
        residual = h_dot - ((u[0] - u1_star) * dvx + (u[1] - u2_star) * dwz)
    bad = np.flatnonzero(~(np.isfinite(residual) & np.isfinite(state).all(axis=0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"storage residual {residual[i]} or state at sample {i} "
                         f"(t={trajectory.t[i]:.6g}) is not finite")
    return float(np.max(residual))
