"""
Scalar cost fields over the plane with analytic gradients.

Every field is smooth, non-negative, and has a unique global minimizer
where (and only where) the gradient vanishes. The registry ships a
quadratic benchmark bowl, a rotated anisotropic quadratic, and a
non-quadratic log bowl to keep downstream code honest about not
exploiting quadratic structure.
"""
import inspect
import math
from dataclasses import dataclass


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


def quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """a*(x-x_star)^2 + b*(y-y_star)^2 + floor."""
    _check_coefficients(a, b, floor)

    def value(x, y):
        return a * (x - x_star) ** 2 + b * (y - y_star) ** 2 + floor

    def gradient(x, y):
        return (2.0 * a * (x - x_star), 2.0 * b * (y - y_star))

    return CostField("quadratic", value, gradient, (x_star, y_star))


def rotated_quadratic_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0,
                           floor=1.0, angle=0.5):
    """Anisotropic quadratic with principal axes rotated by `angle`."""
    _check_coefficients(a, b, floor)
    c, s = math.cos(angle), math.sin(angle)

    def value(x, y):
        dx, dy = x - x_star, y - y_star
        p = c * dx + s * dy
        q = -s * dx + c * dy
        return a * p * p + b * q * q + floor

    def gradient(x, y):
        dx, dy = x - x_star, y - y_star
        p = c * dx + s * dy
        q = -s * dx + c * dy
        return (2.0 * a * p * c - 2.0 * b * q * s,
                2.0 * a * p * s + 2.0 * b * q * c)

    return CostField("rotated_quadratic", value, gradient, (x_star, y_star))


def log_bowl_cost(a=1.0, b=0.5, x_star=2.0, y_star=3.0, floor=1.0):
    """log(1 + quadratic) + floor: smooth, non-quadratic, same minimizer."""
    _check_coefficients(a, b, floor)

    def value(x, y):
        return math.log1p(a * (x - x_star) ** 2 + b * (y - y_star) ** 2) + floor

    def gradient(x, y):
        denom = 1.0 + a * (x - x_star) ** 2 + b * (y - y_star) ** 2
        return (2.0 * a * (x - x_star) / denom,
                2.0 * b * (y - y_star) / denom)

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
