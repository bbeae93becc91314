"""
Scalar cost fields over the plane with analytic gradients.

Every field is smooth, non-negative, and has a unique global minimizer
where (and only where) the gradient vanishes. The registry ships a
quadratic benchmark bowl, a rotated anisotropic quadratic, and a
non-quadratic log bowl to keep downstream code honest about not
exploiting quadratic structure.

Each field's value and gradient are plain float functions of (x, y), stated
once as source text by `integrator.define_laws`. The record stage and the
generic averaging route call them; the runners' RK4 loops write their calls
out as the same statements (see `integrator`).
"""
import inspect
import math
from dataclasses import dataclass

from .integrator import define_laws


@dataclass(frozen=True)
class CostField:
    name: str
    value: callable          # (x, y) -> float >= 0
    gradient: callable       # (x, y) -> (gx, gy) float pair
    minimizer: tuple         # (x_star, y_star)


def _check_coefficients(a, b, floor):
    for name, value in (("a", a), ("b", b)):
        if not value > 0:
            raise ValueError(f"quadratic coefficient {name} must be strictly positive, "
                             f"got {value}")
    if not floor >= 0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    # an infinite one passes those tests, but gives an inf or NaN value
    _check_finite(a=a, b=b, floor=floor)


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# The fields' laws, each stated once as source text (see
# `integrator.define_laws`): a runner's RK4 loop writes a call to one out
# where the runner's text makes it. A law is written out where its call is
# an assignment's whole value; any other call is called. The quadratic form
# a (x - x_star)^2 + b (y - y_star)^2 and its gradient's components are
# spliced into the quadratic's and the log bowl's texts
_FORM = "a * (x - x_star) ** 2 + b * (y - y_star) ** 2"
_FORM_X = "2.0 * a * (x - x_star)"
_FORM_Y = "2.0 * b * (y - y_star)"
_FORM_NAMES = ("a", "b", "x_star", "y_star", "floor")

_QUADRATIC = define_laws(f"""\
def value(x, y):
    return {_FORM} + floor

def gradient(x, y):
    return ({_FORM_X}, {_FORM_Y})
""", _FORM_NAMES)

_LOG_BOWL = define_laws(f"""\
def value(x, y):
    return log1p({_FORM}) + floor

def gradient(x, y):
    denom = 1.0 + {_FORM}
    return ({_FORM_X} / denom, {_FORM_Y} / denom)
""", (*_FORM_NAMES, "log1p"))

# the offset from the minimizer in the principal axes, rotated by the angle
# whose cosine and sine are c and s
_AXES = """\
    dx, dy = x - x_star, y - y_star
    p = c * dx + s * dy
    q = -s * dx + c * dy
"""

_ROTATED_QUADRATIC = define_laws(f"""\
def value(x, y):
{_AXES}    return a * p * p + b * q * q + floor

def gradient(x, y):
{_AXES}    return (2.0 * a * p * c - 2.0 * b * q * s,
            2.0 * a * p * s + 2.0 * b * q * c)
""", (*_FORM_NAMES, "c", "s"))


def quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """a*(x-x_star)^2 + b*(y-y_star)^2 + floor."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star)
    value, gradient = _QUADRATIC(a, b, x_star, y_star, floor)
    return CostField("quadratic", value, gradient, (x_star, y_star))


def rotated_quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0,
                           floor=1.0, angle=0.5):
    """Anisotropic quadratic with principal axes rotated by `angle`."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star, angle=angle)
    value, gradient = _ROTATED_QUADRATIC(a, b, x_star, y_star, floor,
                                         math.cos(angle), math.sin(angle))
    return CostField("rotated_quadratic", value, gradient, (x_star, y_star))


def log_bowl_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """log(1 + quadratic) + floor: smooth, non-quadratic, same minimizer."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star)
    # math.log1p in a closure cell: cheaper per call than a global's attribute
    value, gradient = _LOG_BOWL(a, b, x_star, y_star, floor, math.log1p)
    return CostField("log_bowl", value, gradient, (x_star, y_star))


_REGISTRY = {
    "quadratic": quadratic_cost,
    "rotated_quadratic": rotated_quadratic_cost,
    "log_bowl": log_bowl_cost,
}


def _factory(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown cost field '{name}'; "
                       f"known: {sorted(_REGISTRY)}") from None


def get_field(name, **params):
    """Construct a registered cost field by name."""
    return _factory(name)(**params)


def field_parameters(name):
    """Names of the keyword parameters of the registered field `name`."""
    return tuple(inspect.signature(_factory(name)).parameters)
