"""
Extremum-seeking control law and the general oscillatory input family.

The seeking law uses only the scalar cost measurement: the surge force
is the measurement multiplied by a high-frequency cosine, and the yaw
torque is a constant that keeps the vehicle turning,

    u1 = (k / eps) * cos(t / eps) * rho(x, y),
    u2 = c.

`surge_law` states u1 once, as source text, on Python floats: the full run
steps it and records it, so a change to the law (a dither phase, a bound on
the force, measurement noise) is written there alone.

The general input family is u = b0 + (1/eps) * sum_i b_i(q) w_i(t/eps)
with T-periodic dithers w_i. Admissible dithers must have zero mean and
zero iterated mean over one period; `validate_dither` checks both by
composite Simpson quadrature.
"""
import math
from dataclasses import dataclass

import numpy as np

from .integrator import define_laws
from .quadrature import sample_period, simpson


def _require_finite_positive(name, value):
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class EsGains:
    k: float        # feedback gain on the cost measurement; 0 disables seeking
    c: float        # constant yaw torque (N*m)
    epsilon: float  # dither time scale (s)

    def __post_init__(self):
        if not 0 <= self.k < math.inf:
            raise ValueError(f"k must be a finite non-negative number, got {self.k!r}")
        _require_finite_positive("c", self.c)
        _require_finite_positive("epsilon", self.epsilon)


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
        _require_finite_positive("period", self.period)
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
    """Check the zero-mean and zero-iterated-mean admissibility conditions.

    The iterated mean int_0^T int_0^s w is taken by Cauchy's formula for a
    repeated integral, int_0^T (T - s) w(s) ds, on the same samples.
    """
    _require_finite_positive("period", period)
    _require_finite_positive("tol", tol)
    s, values, h = sample_period(w, period)
    r1 = abs(simpson(values, h))
    r2 = abs(simpson((period - s) * values, h))
    return DitherCheck(passed=(r1 < tol and r2 < tol),
                       mean_residual=r1, iterated_residual=r2, tol=tol)


# the surge law, stated once as source text (see `integrator.define_laws`)
_SURGE_LAW = define_laws("""\
def u1(t, rho):
    return k_over_eps * cos(t * inv_eps) * rho
""", ("k_over_eps", "inv_eps", "cos"))


def surge_law(gains):
    """The seeking surge force u1(t, rho) = (k / eps) cos(t / eps) rho.

    Returns a function of a float time and a float measurement. This is the
    one statement of the law: its record stage maps the function over the
    recorded samples, and the full run's RK4 loop writes the function's
    call out as the same statements, so the recorded surge force is the one
    the loop applied.
    """
    # math.cos in a closure cell: cheaper per call than math.cos
    [u1] = _SURGE_LAW(gains.k / gains.epsilon, 1.0 / gains.epsilon, math.cos)
    return u1


def es_dither_set(gains, cost_field):
    """Single-component dither set of the seeking law: `surge_law` and torque c."""
    def shape(q):
        return np.array([gains.k * cost_field.value(q[0], q[1]), 0.0])

    comp = DitherComponent(w=math.cos, shape=shape, period=2.0 * math.pi,
                           w_integral=math.sin)
    return DitherSet(b0=np.array([0.0, gains.c]), components=(comp,))
