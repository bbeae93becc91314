"""
Symmetric-product calculus and the averaged (symmetric product) system.

High-frequency, high-magnitude forcing of a mechanical system leaves a
second-order averaged footprint captured by the symmetric product of the
input vector fields,

    <X:Y>(q) = (dX/dq) J(q) Y + (dY/dq) J(q) X - (d/dv((df2/dv) X)) Y,

where f2(v) = -M^{-1} (C(v)v + Dv - B0) is the drift of the velocity
subsystem. Because C(v)v is quadratic in v, the second v-derivative term
is an exact bilinear form in (X, Y) and is evaluated from the Coriolis
structure directly (`coriolis_bilinear`); the tests check it against
nested finite differences of the drift.

The averaged dynamics replace the oscillatory input by the forcing
-M * sum_ij Lambda_ij <B_i:B_j>(q), where Lambda is the Gram matrix of
the integrated dither signals.
"""
import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .integrator import (IntegratorSettings, Trajectory, define_laws, dividing_step,
                         hermite, integrate)
from .quadrature import sample_period, simpson
from .vehicle import dynamics_rhs

# RK4 steps over the horizon for averaged systems: they carry no dither, so
# their grid is set by the horizon alone, fine enough for smooth flows
AVERAGED_STEPS = 10000


# ---------------------------------------------------------------------------
# vector fields and finite-difference calculus

@dataclass(frozen=True)
class ConfigVectorField:
    """Vector field on configurations with an optional analytic Jacobian.

    `symmetric_product` passes the configuration on as its caller gave it
    (a tuple of floats under `integrate` and `averaged_rhs`, an array row
    otherwise), so the callables index it rather than do array arithmetic
    on it. They may return tuples (rows of floats for the Jacobian) or
    arrays.
    """

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
    fv = np.asarray(f(point), dtype=float)
    gv = np.asarray(g(point), dtype=float)
    for val, field in ((fv, f), (gv, g)):
        if not np.all(np.isfinite(val)):
            raise ValueError(f"non-finite evaluation of field {_field_name(field)}")
    return fd_jacobian(f, point, probe) @ gv - fd_jacobian(g, point, probe) @ fv


def iterated_bracket(f, g, point, order):
    """ad_g^order f at `point`, nesting the finite-difference bracket.

    Each nesting level divides the inner evaluation's roundoff noise by
    the probe step, so nested brackets need a coarser probe than a
    single bracket does; 1e-3 balances truncation against noise for
    two to three levels.
    """
    probe = 1e-3
    field = f
    for _ in range(order - 1):
        inner = field
        field = (lambda x, inner=inner: lie_bracket(inner, g, x, probe))
    return lie_bracket(field, g, point, probe)


# ---------------------------------------------------------------------------
# symmetric product

def _floats(v):
    """A field's vector or matrix as Python floats; tuples pass through."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _jac(field, q):
    if field.jacobian is None:
        return fd_jacobian(field.value, q).tolist()
    jac = field.jacobian(q)
    return jac if jac.__class__ is tuple else _floats(jac)


def _apply(jac, w):
    """The 3x3 matrix `jac` (rows of floats) applied to the 3-vector `w`."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = jac
    w0, w1, w2 = w
    return (a0 * w0 + a1 * w1 + a2 * w2, b0 * w0 + b1 * w1 + b2 * w2,
            c0 * w0 + c1 * w1 + c2 * w2)


def coriolis_bilinear(params, xv, yv):
    """Symmetrized Coriolis form C(X)Y + C(Y)X (the exact second v-derivative).

    C(v) is the surface vessel's Coriolis matrix, the one `dynamics_rhs`
    writes out as C(v)v, here written out on floats; a 3-tuple.
    """
    m11, m22 = params.m11, params.m22
    x0, x1, x2 = xv
    y0, y1, y2 = yv
    return (-(m22 * x1 * y2 + m22 * y1 * x2),
            m11 * x0 * y2 + m11 * y0 * x2,
            (m22 * x1 * y0 - m11 * x0 * y1) + (m22 * y1 * x0 - m11 * y0 * x1))


def _symmetric_product(x_field, y_field, params, q):
    """<X:Y>(q) as a 3-tuple of floats; see `symmetric_product`.

    A self product <X:X> evaluates X, its Jacobian and J(theta) X once:
    its two Jacobian terms are then the same floats, and their sum is the
    one the two-field route forms.
    """
    th = q[2]
    cth, sth = cos(th), sin(th)
    xv = x_field.value(q)
    if xv.__class__ is not tuple:
        xv = _floats(xv)
    x0, x1, x2 = xv
    # J(theta) X
    jx = (cth * x0 - sth * x1, sth * x0 + cth * x1, x2)
    if y_field is x_field:
        yv = xv
        ax0, ax1, ax2 = ay0, ay1, ay2 = _apply(_jac(x_field, q), jx)
    else:
        yv = y_field.value(q)
        if yv.__class__ is not tuple:
            yv = _floats(yv)
        y0, y1, y2 = yv
        jy = (cth * y0 - sth * y1, sth * y0 + cth * y1, y2)
        ax0, ax1, ax2 = _apply(_jac(x_field, q), jy)
        ay0, ay1, ay2 = _apply(_jac(y_field, q), jx)
    c0, c1, c2 = coriolis_bilinear(params, xv, yv)
    return (ax0 + ay0 + c0 / params.m11,
            ax1 + ay1 + c1 / params.m22,
            ax2 + ay2 + c2 / params.m33)


def symmetric_product(x_field, y_field, params, q):
    """<X:Y>(q) for the vehicle's velocity drift; symmetric in (X, Y).

    The last term of the product is evaluated exactly through the
    Coriolis bilinear form: the linear damping and the constant base
    input drop out under the second v-derivative, so neither enters.
    Works on floats; fields may return tuples or arrays. A (3,) array.
    """
    return np.array(_symmetric_product(x_field, y_field, params, q))


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
        return (k * cost_field.value(q[0], q[1]) / m11, 0.0, 0.0)

    def jacobian(q):
        gx, gy = cost_field.gradient(q[0], q[1])
        return ((k * gx / m11, k * gy / m11, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    return ConfigVectorField(value=value, jacobian=jacobian)


def es_product_gain(params, k):
    """2 (k/m11)^2, the gain of the seeking law's self product <B1:B1>."""
    return 2.0 * (k / params.m11) ** 2


# the surge component of <B1:B1>, stated once as source text (see
# `integrator.define_laws`): it takes the heading's cosine and sine, which
# the model computes, and the field's value and gradient from one law,
# which computes what they share once
_SURGE_SELF_PRODUCT = define_laws("""\
def surge(x, y, cth, sth):
    rho, gx, gy = value_gradient(x, y)
    return gain * rho * (gx * cth + gy * sth)
""", ("gain", "value_gradient"))


def es_surge_self_product(params, k, cost_field):
    """Surge component of <B1:B1> as a float function of (x, y, cos(theta),
    sin(theta)).

    <B1:B1>_1 = 2 (k/m11)^2 rho * (rho_x cos(theta) + rho_y sin(theta));
    the sway and yaw components vanish. The averaged run's RK4 loop writes
    the function's call out as its statements, and in turn the call of the
    cost field's `value_gradient`.
    """
    [surge] = _SURGE_SELF_PRODUCT(es_product_gain(params, k), cost_field.value_gradient)
    return surge


def es_self_product(params, k, cost_field):
    """Closed form of <B1:B1> for the seeking law, a 3-vector field of q.

    An array row q is taken as Python floats, as `dynamics_rhs` takes it.
    """
    surge = es_surge_self_product(params, k, cost_field)

    def value(q):
        x, y, th = _floats(q)
        return np.array((surge(x, y, cos(th), sin(th)), 0.0, 0.0))

    return value


# ---------------------------------------------------------------------------
# dither averaging weights and the oscillatory correction

# Lambda_11 of the seeking law's single cosine dither, (1/2T) int_0^T sin^2
# over T = 2 pi; `lambda_matrix` of `dither.es_dither_set` reproduces it
LAMBDA_11 = 0.25


def lambda_matrix(dither_set):
    """Gram matrix of integrated dithers: (1/2T) int_0^T W_i W_j ds.

    W_i is each component's closed-form `w_integral`, the same W that
    `xi_field` reads, sampled on the `sample_period` grid.
    """
    comps = dither_set.components
    period = comps[0].period
    for comp in comps:
        if comp.period != period:
            raise ValueError("all dither components must share one period")
    samples = []
    for comp in comps:
        _, values, h = sample_period(comp.w_integral, period)
        samples.append(values)
    m = len(comps)
    lam = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            lam[i, j] = lam[j, i] = simpson(samples[i] * samples[j], h) / (2.0 * period)
    return lam


def xi_field(dither_set, params, t, q):
    """Time-varying correction Xi(t, q) = sum_i (int_0^t w_i) B_i(q)."""
    xi = np.zeros(3)
    for comp in dither_set.components:
        xi += comp.w_integral(t) * body_input_field(params, comp.shape).value(q)
    return xi


# ---------------------------------------------------------------------------
# averaged dynamics

def averaged_rhs(params, b0, fields, lam, state):
    """Right-hand side of the symmetric product system on the 6-state.

    The vessel dynamics under the constant base input b0 = (u1, u2), from
    `dynamics_rhs`, minus the forcing sum_ij Lambda_ij <B_i:B_j>(q) on the
    velocity slots, as an array. An array state is taken as a tuple of
    floats, so the fields get q as `integrate` passes it.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(fields), len(fields)):
        raise ValueError("lambda matrix dimension must match field count")
    if state.__class__ is not tuple and isinstance(state, np.ndarray):
        state = tuple(state.tolist())
    q = state[:3]
    # accumulated from zero, as an array sum would be
    f0 = f1 = f2 = 0.0
    for fi, row in zip(fields, lam.tolist()):
        for fj, lam_ij in zip(fields, row):
            if lam_ij != 0.0:
                s0, s1, s2 = _symmetric_product(fi, fj, params, q)
                f0 += lam_ij * s0
                f1 += lam_ij * s1
                f2 += lam_ij * s2
    d0, d1, d2, d3, d4, d5 = dynamics_rhs(params, state, b0)
    return np.array((d0, d1, d2, d3 - f0, d4 - f1, d5 - f2))


def closed_loop_fields(params, gains, cost_field):
    """Drift f and (frozen-dither) input field g of the fast closed loop.

    f carries the kinematics and the velocity drift under the constant
    torque; g injects B1(q) into the velocity slots. Used for bracket
    structure checks: ad_g^k f vanishes for k >= 3.
    """
    b1 = es_input_field(params, gains.k, cost_field)

    def f(state):
        return np.array(dynamics_rhs(params, state, (0.0, gains.c)))

    def g(state):
        return np.concatenate([np.zeros(3), b1.value(state[:3])])

    return f, g


# ---------------------------------------------------------------------------
# damped double-integrator demonstration

DEMO_SAMPLES_PER_PERIOD = 200


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
    final_error_full: float      # |xi1(tf) - minimizer|
    final_error_averaged: float  # |z1(tf) - minimizer|


def double_integrator_demo(h_fun, alpha, omega_freq, horizon, initial=(0.0, 0.0), *,
                           h_prime, minimizer):
    """Simulate the oscillatory double integrator and its averaged twin.

    Full loop:     xi1' = xi2,  xi2' = -xi2 + h(xi1) * alpha * w * cos(w t)
    Averaged loop: z1'  = z2,   z2'  = -z2 - (alpha^2 / 4) * (h^2)'(z1)

    `h_prime` is the exact derivative of `h_fun`, which the averaged loop
    reads as (h^2)' = 2 h h', and `minimizer` the minimizer of h that the
    final errors are measured from. The full loop resolves each dither
    period 2 pi / w in `DEMO_SAMPLES_PER_PERIOD` steps.
    """
    for name, value in (("omega_freq", omega_freq), ("horizon", horizon)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value:g}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha:g}")

    aw = alpha * omega_freq

    def full_rhs(t, z):
        return (z[1], -z[1] + h_fun(z[0]) * aw * math.cos(omega_freq * t))

    def avg_rhs(_t, z):
        return (z[1], -z[1] - 0.5 * alpha ** 2 * h_fun(z[0]) * h_prime(z[0]))

    step = dividing_step(horizon, (2.0 * math.pi / omega_freq) / DEMO_SAMPLES_PER_PERIOD)
    full = integrate(full_rhs, initial, IntegratorSettings(step=step, tf=horizon))
    avg = integrate(avg_rhs, initial,
                    IntegratorSettings(step=horizon / AVERAGED_STEPS, tf=horizon))

    # dense output of the averaged run with its exact rate z1' = z2
    z1_on_full = hermite(avg.t, avg.states[:, 0], avg.states[:, 1], full.t)
    sup_gap = float(np.max(np.abs(full.states[:, 0] - z1_on_full)))
    return DoubleIntegratorReport(
        full=full, averaged=avg, sup_gap=sup_gap,
        final_error_full=abs(full.states[-1, 0] - minimizer),
        final_error_averaged=abs(avg.states[-1, 0] - minimizer))
