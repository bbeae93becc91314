"""
Scalar cost fields over the plane with analytic gradients.

Every field is smooth, non-negative, and has a unique global minimizer
where (and only where) the gradient vanishes. The registry ships a
quadratic benchmark bowl, a rotated anisotropic quadratic, and a
non-quadratic log bowl to keep downstream code honest about not
exploiting quadratic structure.

Each field's value and gradient are plain float functions of (x, y), stated
once as source text by `integrator.define_laws`, and so is value_gradient,
which returns both and computes what they share once. The record stage and
the generic averaging route call them; the runners' RK4 loops write their
calls out as the same statements (see `integrator`).
"""
import inspect
import math
from dataclasses import dataclass, field

from .integrator import define_laws


@dataclass(frozen=True)
class CostField:
    name: str
    value: callable          # (x, y) -> float >= 0
    gradient: callable       # (x, y) -> (gx, gy) float pair
    minimizer: tuple         # (x_star, y_star)
    # (x, y) -> (value, gx, gy), a law: a registered field's own, or one that
    # calls `value` and `gradient`, such as a field replaced in part gets
    value_gradient: callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        [value_gradient] = _CALLED(self.value, self.gradient)
        object.__setattr__(self, "value_gradient", value_gradient)


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


def _field_laws(names, shared, value, gradient, extra=""):
    """`bind` of a field's laws over the names `names` (see
    `integrator.define_laws`), which include the minimizer's `x_star` and
    `y_star`: value, gradient and value_gradient of (x, y) each state the
    offset `dx, dy` from the minimizer, run the statements `shared` (the
    last two then `extra` as well) and return the expression `value`, the
    components `gradient` or both. So each is stated once, and
    value_gradient computes what they share once. A runner's RK4 loop
    writes a call to one out where its call is an assignment's whole value;
    any other call is called."""
    offset = "    dx, dy = x - x_star, y - y_star\n"
    return define_laws(f"""\
def value(x, y):
{offset}{shared}    return {value}

def gradient(x, y):
{offset}{shared}{extra}    return ({gradient})

def value_gradient(x, y):
{offset}{shared}{extra}    return ({value}, {gradient})
""", names)


# The quadratic form's terms a dx^2 and b dy^2 and its gradient's
# components, in the quadratic's and the log bowl's laws; the log bowl's
# value adds the terms and its gradient's denominator adds them to 1.0
_TERMS = ("a * dx ** 2", "b * dy ** 2")
_FORM_X = "2.0 * a * dx"
_FORM_Y = "2.0 * b * dy"
_FORM_NAMES = ("a", "b", "x_star", "y_star", "floor")

_QUADRATIC = _field_laws(_FORM_NAMES, "", f"{_TERMS[0]} + {_TERMS[1]} + floor",
                         f"{_FORM_X}, {_FORM_Y}")

_LOG_BOWL = _field_laws((*_FORM_NAMES, "log1p"),
                        f"    fx = {_TERMS[0]}\n    fy = {_TERMS[1]}\n", "log1p(fx + fy) + floor",
                        f"{_FORM_X} / denom, {_FORM_Y} / denom", "    denom = 1.0 + fx + fy\n")

# in the principal axes: the offset from the minimizer rotated by the angle
# whose cosine and sine are c and s
_ROTATED_QUADRATIC = _field_laws((*_FORM_NAMES, "c", "s"), """\
    p = c * dx + s * dy
    q = -s * dx + c * dy
""", "a * p * p + b * q * q + floor",
    "2.0 * a * p * c - 2.0 * b * q * s, 2.0 * a * p * s + 2.0 * b * q * c")

# value_gradient over a value and a gradient that are not one field's laws
# (a wrapper, say): it calls them
_CALLED = define_laws("""\
def value_gradient(x, y):
    rho = value(x, y)
    gx, gy = gradient(x, y)
    return (rho, gx, gy)
""", ("value", "gradient"))


def _field(name, laws, minimizer):
    """The field whose value, gradient and value_gradient are `laws`."""
    cost = CostField(name, *laws[:2], minimizer)
    object.__setattr__(cost, "value_gradient", laws[2])
    return cost


def quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """a*(x-x_star)^2 + b*(y-y_star)^2 + floor."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star)
    return _field("quadratic", _QUADRATIC(a, b, x_star, y_star, floor), (x_star, y_star))


def rotated_quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0,
                           floor=1.0, angle=0.5):
    """Anisotropic quadratic with principal axes rotated by `angle`."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star, angle=angle)
    return _field("rotated_quadratic", _ROTATED_QUADRATIC(
        a, b, x_star, y_star, floor, math.cos(angle), math.sin(angle)), (x_star, y_star))


def log_bowl_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """log(1 + quadratic) + floor: smooth, non-quadratic, same minimizer."""
    _check_coefficients(a, b, floor)
    _check_finite(x_star=x_star, y_star=y_star)
    # math.log1p in a closure cell: cheaper per call than a global's attribute
    return _field("log_bowl", _LOG_BOWL(a, b, x_star, y_star, floor, math.log1p),
                  (x_star, y_star))


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
