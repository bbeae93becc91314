import math

import numpy as np
import pytest

from surgeseek.costs import get_field, log_bowl_cost, quadratic_cost, rotated_quadratic_cost

from oracles import gradient_check


def test_benchmark_value_at_origin():
    field = quadratic_cost()
    assert field.value(0.0, 0.0) == pytest.approx(9.5)


def test_value_at_minimizer_is_floor():
    field = quadratic_cost(a=2.0, b=1.0, x_star=-1.0, y_star=4.0, floor=0.7)
    assert field.value(-1.0, 4.0) == pytest.approx(0.7)


def test_benchmark_gradient_at_origin():
    g = quadratic_cost().gradient(0.0, 0.0)
    assert np.allclose(g, [-4.0, -3.0])


def test_gradient_check_quadratic():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10, 10, (100, 2))
    assert gradient_check(quadratic_cost(), pts) < 1e-8


def test_gradient_check_translation_invariant():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, (50, 2))
    base = gradient_check(quadratic_cost(x_star=0.0, y_star=0.0), pts)
    shifted = gradient_check(quadratic_cost(x_star=3.0, y_star=-7.0),
                             pts + np.array([3.0, -7.0]))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_degenerate_coefficients_rejected():
    with pytest.raises(ValueError):
        quadratic_cost(a=0.0)
    with pytest.raises(ValueError):
        rotated_quadratic_cost(b=0.0)
    with pytest.raises(ValueError):
        log_bowl_cost(floor=-0.1)
    for factory in (quadratic_cost, rotated_quadratic_cost, log_bowl_cost):
        with pytest.raises(ValueError, match="floor"):
            factory(floor=float("nan"))


@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
@pytest.mark.parametrize("key, value", [("a", -1.0), ("b", 0.0), ("a", math.nan)])
def test_a_bad_coefficient_is_named(name, key, value):
    with pytest.raises(ValueError, match=rf"^quadratic coefficient {key} must be strictly "
                                         rf"positive, got {value}$"):
        get_field(name, **{key: value})


@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_a_bad_floor_is_named_with_its_value(name, value):
    with pytest.raises(ValueError, match=rf"^floor must be non-negative, got {value}$"):
        get_field(name, floor=value)


@pytest.mark.parametrize("key", ["a", "b", "floor"])
@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
def test_an_infinite_coefficient_or_floor_is_named(name, key):
    # it passes the sign tests, but the value at the minimizer would be NaN
    with pytest.raises(ValueError, match=rf"^{key} must be finite, got inf$"):
        get_field(name, **{key: math.inf})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, key", [
    ("quadratic", "x_star"), ("quadratic", "y_star"), ("rotated_quadratic", "x_star"),
    ("rotated_quadratic", "y_star"), ("rotated_quadratic", "angle"), ("log_bowl", "x_star"),
    ("log_bowl", "y_star")])
def test_a_non_finite_minimizer_or_angle_is_named_with_its_value(name, key, value):
    # such a field's value would be inf or NaN everywhere
    with pytest.raises(ValueError, match=rf"^{key} must be finite, got {value}$"):
        get_field(name, **{key: value})


@pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic", "log_bowl"])
def test_grid_positivity_and_unique_minimum(name):
    field = get_field(name)
    xs = np.linspace(-10, 10, 200)
    ys = np.linspace(-10, 10, 200)
    grid = np.array([[field.value(x, y) for y in ys] for x in xs])
    assert np.all(grid >= 0.0)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    xstar, ystar = field.minimizer
    # grid spacing is ~0.1; the declared minimizer must own the grid minimum
    assert abs(xs[i] - xstar) < 0.11 and abs(ys[j] - ystar) < 0.11


@pytest.mark.parametrize("name", ["rotated_quadratic", "log_bowl"])
def test_analytic_gradients_consistent(name):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-8, 8, (100, 2))
    assert gradient_check(get_field(name), pts) < 1e-8


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        get_field("himmelblau")
