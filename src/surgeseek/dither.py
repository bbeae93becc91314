"""
Extremum-seeking control law and the general oscillatory input family.

The seeking law uses only the scalar cost measurement: the surge force
is the measurement multiplied by a high-frequency cosine, and the yaw
torque is a constant that keeps the vehicle turning,

    u1 = (k / eps) * cos(t / eps) * rho(x, y),
    u2 = c.

The general input family is u = b0 + (1/eps) * sum_i b_i(q) w_i(t/eps)
with T-periodic dithers w_i. Admissible dithers must have zero mean and
zero iterated mean over one period; `validate_dither` checks both by
composite Simpson quadrature.
"""
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import cumulative_simpson, sample_period, simpson


@dataclass(frozen=True)
class EsGains:
    k: float        # feedback gain on the cost measurement; 0 disables seeking
    c: float        # constant yaw torque (N*m)
    epsilon: float  # dither time scale (s)

    def __post_init__(self):
        if not (self.k >= 0 and self.c > 0 and self.epsilon > 0):
            raise ValueError("require k >= 0 and c, epsilon > 0")


@dataclass(frozen=True)
class DitherComponent:
    """One periodic probing channel: scalar signal w and input shape b(q).

    `shape` maps the configuration (x, y, theta) to the 2-vector of
    (surge, yaw) input components. `w_integral` is the closed-form
    antiderivative of w with w_integral(0) = 0.
    """

    w: callable
    shape: callable
    period: float
    w_integral: callable

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.w_integral(0.0) != 0.0:
            raise ValueError("w_integral must vanish at 0")


@dataclass(frozen=True)
class DitherSet:
    b0: np.ndarray                 # constant (surge, yaw) base input
    components: tuple              # DitherComponent, m >= 1

    def __post_init__(self):
        object.__setattr__(self, "b0", np.asarray(self.b0, dtype=float))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("at least one dither component is required")


@dataclass(frozen=True)
class DitherCheck:
    passed: bool
    mean_residual: float       # |int_0^T w|
    iterated_residual: float   # |int_0^T int_0^s w|
    tol: float


def validate_dither(w, period, tol=1e-8):
    """Check the zero-mean and zero-iterated-mean admissibility conditions."""
    if period <= 0:
        raise ValueError("period must be positive")
    _, values, h = sample_period(w, period)
    r1 = simpson(values, h)
    running = cumulative_simpson(values, h)
    r2 = simpson(running, h)
    r1, r2 = abs(r1), abs(r2)
    return DitherCheck(passed=(r1 < tol and r2 < tol),
                       mean_residual=r1, iterated_residual=r2, tol=tol)


def surge_law(gains, cos=math.cos):
    """The seeking surge force u1(t, rho) = (k / eps) cos(t / eps) rho.

    Returns a float function of time and measurement; with `cos=np.cos`
    it takes arrays of samples.
    """
    k_over_eps = gains.k / gains.epsilon
    inv_eps = 1.0 / gains.epsilon

    def u1(t, rho):
        return k_over_eps * cos(t * inv_eps) * rho

    return u1


def general_input(dither_set, epsilon, t, q):
    """u = b0 + (1/eps) * sum_i b_i(q) * w_i(t/eps)."""
    u = dither_set.b0.copy()
    tau = t / epsilon
    for comp in dither_set.components:
        u += (comp.w(tau) / epsilon) * np.asarray(comp.shape(q), dtype=float)
    return u


def es_dither_set(gains, cost_field):
    """Single-component dither set of the seeking law: `surge_law` and torque c."""
    def shape(q):
        return np.array([gains.k * cost_field.value(q[0], q[1]), 0.0])

    comp = DitherComponent(w=math.cos, shape=shape, period=2.0 * math.pi,
                           w_integral=math.sin)
    return DitherSet(b0=np.array([0.0, gains.c]), components=(comp,))
