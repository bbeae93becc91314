"""
Symmetric-product calculus and the averaged (symmetric product) system.

High-frequency, high-magnitude forcing of a mechanical system leaves a
second-order averaged footprint captured by the symmetric product of the
input vector fields,

    <X:Y>(q) = (dX/dq) J(q) Y + (dY/dq) J(q) X - (d/dv((df2/dv) X)) Y,

where f2(v) = -M^{-1} (C(v)v + Dv - B0) is the drift of the velocity
subsystem. Because C(v)v is quadratic in v, the second v-derivative term
is an exact bilinear form in (X, Y) and is evaluated from the Coriolis
structure directly; a finite-difference route is kept alongside as an
independent oracle.

The averaged dynamics replace the oscillatory input by the forcing
-M * sum_ij Lambda_ij <B_i:B_j>(q), where Lambda is the Gram matrix of
the integrated dither signals.
"""
import math
from dataclasses import dataclass

import numpy as np

from .integrator import IntegratorSettings, Trajectory, integrate
from .quadrature import DEFAULT_PANELS, cumulative_simpson, sample_period, simpson
from .vehicle import coriolis, dynamics_rhs, kinematic_matrix

# RK4 steps over the horizon for averaged systems: they carry no dither, so
# their grid is set by the horizon alone, fine enough for smooth flows
AVERAGED_STEPS = 10000


# ---------------------------------------------------------------------------
# vector fields and finite-difference calculus

@dataclass(frozen=True)
class ConfigVectorField:
    """Vector field on configurations with an optional analytic Jacobian."""

    value: callable            # (3,) config -> (3,) vector
    jacobian: callable = None  # (3,) config -> (3, 3) matrix


def fd_jacobian(fun, point, probe=1e-5):
    """Central-difference Jacobian; probe step scales with |point|."""
    point = np.asarray(point, dtype=float)
    h = probe * (1.0 + np.linalg.norm(point))
    f0 = np.asarray(fun(point), dtype=float)
    jac = np.empty((f0.size, point.size))
    for j in range(point.size):
        dp = np.zeros_like(point)
        dp[j] = h
        jac[:, j] = (np.asarray(fun(point + dp)) - np.asarray(fun(point - dp))) / (2.0 * h)
    return jac


def _field_name(field):
    return getattr(field, "__name__", repr(field))


def lie_bracket(f, g, point, probe=1e-5):
    """ad_g f = (df/dx) g - (dg/dx) f at `point`, by central differences."""
    if probe <= 0:
        raise ValueError("probe must be positive")
    fv = np.asarray(f(point), dtype=float)
    gv = np.asarray(g(point), dtype=float)
    for val, field in ((fv, f), (gv, g)):
        if not np.all(np.isfinite(val)):
            raise ValueError(f"non-finite evaluation of field {_field_name(field)}")
    return fd_jacobian(f, point, probe) @ gv - fd_jacobian(g, point, probe) @ fv


def iterated_bracket(f, g, point, order, probe=1e-3):
    """ad_g^order f at `point`, nesting the finite-difference bracket.

    Each nesting level divides the inner evaluation's roundoff noise by
    the probe step, so nested brackets need a coarser probe than a
    single bracket does; 1e-3 balances truncation against noise for
    two to three levels.
    """
    field = f
    for _ in range(order - 1):
        inner = field
        field = (lambda x, inner=inner: lie_bracket(inner, g, x, probe))
    return lie_bracket(field, g, point, probe)


# ---------------------------------------------------------------------------
# symmetric product

def drift_velocity_field(params, b0):
    """f2(v) = -M^{-1} (C(v)v + Dv - B0) with B0 the mapped base input."""
    def f2(v):
        return dynamics_rhs(params, np.concatenate([np.zeros(3), v]), b0)[3:]

    return f2


def _as_field(field):
    if isinstance(field, ConfigVectorField):
        return field
    return ConfigVectorField(value=field)


def _jac(field, q, probe):
    if field.jacobian is not None:
        return np.asarray(field.jacobian(q), dtype=float)
    return fd_jacobian(field.value, q, probe)


def coriolis_bilinear(params, xv, yv):
    """Symmetrized Coriolis form C(X)Y + C(Y)X (the exact second v-derivative)."""
    return coriolis(params, xv) @ yv + coriolis(params, yv) @ xv


def symmetric_product(x_field, y_field, params, q, probe=1e-5):
    """<X:Y>(q) for the vehicle's velocity drift; symmetric in (X, Y).

    The last term of the product is evaluated exactly through the
    Coriolis bilinear form: the linear damping and the constant base
    input drop out under the second v-derivative, so neither enters.
    """
    x_field, y_field = _as_field(x_field), _as_field(y_field)
    q = np.asarray(q, dtype=float)
    xv = np.asarray(x_field.value(q), dtype=float)
    yv = np.asarray(y_field.value(q), dtype=float)
    jq = kinematic_matrix(q[2])
    term12 = _jac(x_field, q, probe) @ (jq @ yv) + _jac(y_field, q, probe) @ (jq @ xv)
    term3 = params.inertia_inv @ coriolis_bilinear(params, xv, yv)
    return term12 + term3


def second_derivative_term_fd(params, b0, xv, yv, probe=1e-4, base_point=None):
    """(d/dv((df2/dv) X)) Y by nested finite differences of f2 (test oracle).

    f2 is quadratic in v, so the result is independent of `base_point`;
    exposing the base point lets tests assert exactly that.
    """
    f2 = drift_velocity_field(params, b0)
    xv = np.asarray(xv, dtype=float)
    yv = np.asarray(yv, dtype=float)
    if base_point is None:
        base_point = np.zeros(3)

    def df2_x(v):
        return fd_jacobian(f2, v, probe) @ xv

    return fd_jacobian(df2_x, np.asarray(base_point, dtype=float), probe) @ yv


def body_input_field(params, shape):
    """B(q) = M^{-1} G b(q) for a (surge, yaw) input shape b."""
    m11, m33 = params.m11, params.m33

    def value(q):
        b = np.asarray(shape(q), dtype=float)
        return np.array([b[0] / m11, 0.0, b[1] / m33])

    return ConfigVectorField(value=value)


def es_input_field(params, k, cost_field):
    """B1 for the seeking law: surge channel carrying k * rho(x, y)."""
    m11 = params.m11

    def value(q):
        return np.array([k * cost_field.value(q[0], q[1]) / m11, 0.0, 0.0])

    def jacobian(q):
        g = cost_field.gradient(q[0], q[1])
        jac = np.zeros((3, 3))
        jac[0, 0] = k * g[0] / m11
        jac[0, 1] = k * g[1] / m11
        return jac

    return ConfigVectorField(value=value, jacobian=jacobian)


def es_self_product(params, k, cost_field):
    """Closed form of <B1:B1> for the seeking law.

    <B1:B1>(q) = 2 (k/m11)^2 rho * (rho_x cos(theta) + rho_y sin(theta)) e1.
    """
    m11 = params.m11

    def value(q):
        rho = cost_field.value(q[0], q[1])
        gx, gy = cost_field.gradient(q[0], q[1])
        along = gx * math.cos(q[2]) + gy * math.sin(q[2])
        return np.array([2.0 * (k / m11) ** 2 * rho * along, 0.0, 0.0])

    return value


# ---------------------------------------------------------------------------
# dither averaging weights and velocity reconstruction

def lambda_matrix(dither_set, panels=DEFAULT_PANELS):
    """Gram matrix of integrated dithers: (1/2T) int_0^T W_i W_j ds."""
    comps = dither_set.components
    period = comps[0].period
    for comp in comps:
        if comp.period != period:
            raise ValueError("all dither components must share one period")
    running = []
    h = period / panels
    for comp in comps:
        _, values, h = sample_period(comp.w, period, panels)
        running.append(cumulative_simpson(values, h))
    m = len(comps)
    lam = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            lam[i, j] = lam[j, i] = simpson(running[i] * running[j], h) / (2.0 * period)
    return lam


def dither_running_integral(comp, t, panels=512):
    """int_0^t w(s) ds, closed form when available, else Simpson."""
    if comp.w_integral is not None:
        return comp.w_integral(t) - comp.w_integral(0.0)
    if t == 0.0:
        return 0.0
    n = 2 * max(1, panels // 2)
    s = np.linspace(0.0, t, n + 1)
    return simpson(np.array([comp.w(si) for si in s]), t / n)


def xi_field(dither_set, params, t, q):
    """Time-varying correction Xi(t, q) = sum_i (int_0^t w_i) B_i(q)."""
    xi = np.zeros(3)
    for comp in dither_set.components:
        wint = dither_running_integral(comp, t)
        xi += wint * body_input_field(params, comp.shape).value(q)
    return xi


def reconstruct_velocity(vhat, xi):
    """Fast-scale velocity v = vhat + Xi(t, q)."""
    return np.asarray(vhat, dtype=float) + np.asarray(xi, dtype=float)


# ---------------------------------------------------------------------------
# averaged dynamics

def averaged_rhs(params, b0, fields, lam, state, probe=1e-5):
    """Right-hand side of the symmetric product system on the 6-state.

    The vessel dynamics under the constant base input b0 = (u1, u2), from
    `dynamics_rhs`, minus the forcing sum_ij Lambda_ij <B_i:B_j>(q) on the
    velocity slots.
    """
    fields = [_as_field(f) for f in fields]
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(fields), len(fields)):
        raise ValueError("lambda matrix dimension must match field count")
    q = state[:3]
    forcing = np.zeros(3)
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            if lam[i, j] != 0.0:
                forcing += lam[i, j] * symmetric_product(fi, fj, params, q, probe)
    out = dynamics_rhs(params, state, b0)
    out[3:] -= forcing
    return out


def closed_loop_fields(params, gains, cost_field):
    """Drift f and (frozen-dither) input field g of the fast closed loop.

    f carries the kinematics and the velocity drift under the constant
    torque; g injects B1(q) into the velocity slots. Used for bracket
    structure checks: ad_g^k f vanishes for k >= 3.
    """
    b1 = es_input_field(params, gains.k, cost_field)

    def f(state):
        return dynamics_rhs(params, state, (0.0, gains.c))

    def g(state):
        return np.concatenate([np.zeros(3), b1.value(state[:3])])

    return f, g


# ---------------------------------------------------------------------------
# damped double-integrator demonstration

def double_integrator_fields(k_fun):
    """Drift and input fields of the damped double integrator."""
    def f(z):
        return np.array([z[1], -z[1]])

    def g(z):
        return np.array([0.0, k_fun(z[0])])

    return f, g


@dataclass
class DoubleIntegratorReport:
    full: Trajectory
    averaged: Trajectory
    sup_gap: float               # sup_t |xi1 - z1bar|
    final_error_full: float      # |xi1(tf) - minimizer| (nan if unknown)
    final_error_averaged: float


def double_integrator_demo(h_fun, alpha, omega_freq, horizon,
                           initial=(0.0, 0.0), minimizer=None,
                           samples_per_period=200, h_prime=None):
    """Simulate the oscillatory double integrator and its averaged twin.

    Full loop:     xi1' = xi2,  xi2' = -xi2 + h(xi1) * alpha * w * cos(w t)
    Averaged loop: z1'  = z2,   z2'  = -z2 - (alpha^2 / 4) * (h^2)'(z1)
    """
    if h_prime is None:
        def h_prime(z, _p=1e-6):
            return (h_fun(z + _p) - h_fun(z - _p)) / (2.0 * _p)

    aw = alpha * omega_freq

    def full_rhs(t, z):
        return np.array([z[1], -z[1] + h_fun(z[0]) * aw * math.cos(omega_freq * t)])

    def avg_rhs(_t, z):
        return np.array([z[1], -z[1] - 0.5 * alpha ** 2 * h_fun(z[0]) * h_prime(z[0])])

    if omega_freq > 0:
        step = (2.0 * math.pi / omega_freq) / samples_per_period
        step = horizon / max(1, int(math.ceil(horizon / step)))
    else:
        step = horizon / AVERAGED_STEPS
    full = integrate(full_rhs, initial, IntegratorSettings(step=step, tf=horizon))
    avg = integrate(avg_rhs, initial,
                    IntegratorSettings(step=horizon / AVERAGED_STEPS, tf=horizon))

    z1_on_full = np.interp(full.t, avg.t, avg.states[:, 0])
    sup_gap = float(np.max(np.abs(full.states[:, 0] - z1_on_full)))
    if minimizer is None:
        err_full = err_avg = float("nan")
    else:
        err_full = abs(full.states[-1, 0] - minimizer)
        err_avg = abs(avg.states[-1, 0] - minimizer)
    return DoubleIntegratorReport(full=full, averaged=avg, sup_gap=sup_gap,
                                  final_error_full=err_full,
                                  final_error_averaged=err_avg)
