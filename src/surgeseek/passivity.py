"""
Shifted passivity of the vehicle around its constant-torque steady state.

Under the constant input u* = (0, c) the vehicle settles to a steady
state v*, found for any valid vessel by Newton's method on the kernel's
residual; for diagonal damping its start, the spin (0, 0, c/d33), is the
root. With the storage function H(v) = 1/2 (v - v*)^T M (v - v*) and
v~ = v - v*, the skew-symmetry of C(v) leaves the storage residual

    H-dot - (u - u*)^T (eta - eta*) = -v~^T (A + D) v~,

with eta = G^T v and A = d[C(v) v*]/dv, constant because C(v) is linear
in v. So the map (u - u*) -> (eta - eta*) is passive exactly when
2D + A + A^T is positive semidefinite. That matrix is J + J^T, where J is
the Jacobian at v* of F(v) = C(v)v + Dv, and `monotonicity_check` tests
it with F read from `dynamics_rhs`. For the boat structure with diagonal
damping the condition has the closed-form torque threshold

    c_hat = 2 sqrt(d11 d22) d33 / |m22 - m11|    (m22 != m11).

The storage residual along any state is then w (m22 - m11) vx vy minus
the damping form (v - v*)^T D (v - v*), with w = c / d33, so the bound
holds for either sign of m22 - m11; only m22 = m11 leaves c unconstrained.

`passivity_residual` verifies the storage inequality at every sample of
a recorded trajectory, with H-dot from one `dynamics_rhs` call on its
velocity columns rather than from differences of H.
"""
import math
from dataclasses import dataclass

import numpy as np

from .vehicle import dynamics_rhs

_RESIDUAL_TOL = 1e-10
_SLACK = 1e-9
# Newton steps before a solve gives up; coupled vessels need at most 7
_NEWTON_STEPS = 20


@dataclass(frozen=True)
class SteadyState:
    u_star: np.ndarray    # (2,) input
    v_star: np.ndarray    # (3,) body velocity
    eta_star: np.ndarray  # (2,) output G^T v* = (v_x*, omega*)


def _steady_residual(params, v, u):
    """C(v)v + Dv - Gu, i.e. -M v_dot from the dynamics (M is diagonal).

    Floats stand in for the pose, which the velocity derivatives do not
    read. The velocities stay numpy scalars, so an overflow raises under
    the Newton solve's `np.errstate`; a Python float would pass on an inf.
    """
    vdot = dynamics_rhs(params, (0.0, 0.0, 0.0, *v), u)[3:]
    return -(np.array([params.m11, params.m22, params.m33]) * vdot)


def _jacobian(params, v, u):
    """Jacobian at v of C(v)v + Dv: exact up to rounding by unit-step
    central differences of the residual, which is quadratic in v."""
    return np.column_stack([(_steady_residual(params, v + e, u)
                             - _steady_residual(params, v - e, u)) / 2.0
                            for e in np.eye(3)])


def steady_state_for_torque(params, c):
    """Steady state under u* = (0, c): Newton on the residual from D^-1 Gu*.

    For diagonal damping that start, (0, 0, c/d33), is the root and no
    step is taken. The torque must be finite and positive. A solve that
    overflows, meets a singular Jacobian or ends above tolerance raises a
    RuntimeError.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"torque c must be finite and positive, got {c!r}")
    u_star = np.array([0.0, c])
    try:
        with np.errstate(over="raise", invalid="raise"):
            v_star = np.linalg.solve(params.d, [0.0, 0.0, c])
            for _ in range(_NEWTON_STEPS):
                res = _steady_residual(params, v_star, u_star)
                # the forces balance c at v*, so rounding leaves ~1e-16 c
                if np.linalg.norm(res) < 1e-14 * max(1.0, c):
                    break
                v_star = v_star - np.linalg.solve(_jacobian(params, v_star, u_star), res)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"steady-state solve failed at c={c:g} ({exc})") from exc
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
    """Whether 2D + A + A^T >= 0 at torque c: an eigenvalue test of J + J^T.

    J is `_jacobian` at v*, read from the kernel (Gu* drops out of the
    difference); C(v*) is skew, so J + J^T = 2D + A + A^T.
    """
    ss = steady_state_for_torque(params, c)
    j = _jacobian(params, ss.v_star, ss.u_star)
    return bool(np.min(np.linalg.eigvalsh(j + j.T)) >= -_SLACK)


def passivity_residual(trajectory, params, c):
    """Max over samples of H-dot - (u - u*)^T (eta - eta*); <= 0 when passive.

    H-dot = (v - v*)^T M v_dot is computed from the recorded input through
    `dynamics_rhs`, evaluated once on the trajectory's velocity and input
    columns, so integrator error never masquerades as a passivity
    violation. A sample whose state or residual is not finite raises a
    ValueError naming its index, since a NaN would otherwise drop out of
    the max.
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
        # the velocity derivatives do not read the pose: floats stand in
        _, _, _, ax, ay, az = dynamics_rhs(params, (0.0, 0.0, 0.0, *state[3:]), tuple(u))
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
