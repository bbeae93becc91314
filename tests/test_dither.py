import math

import numpy as np
import pytest

from surgeseek.costs import quadratic_cost
from surgeseek.dither import (DitherComponent, DitherSet, EsGains, es_dither_set, surge_law,
                              validate_dither)
from surgeseek.quadrature import sample_period, simpson

from oracles import general_input

TWO_PI = 2.0 * math.pi


def test_cos_admissible():
    check = validate_dither(math.cos, TWO_PI)
    assert check.passed
    assert check.mean_residual < 1e-10
    assert check.iterated_residual < 1e-10


def test_sin_rejected_by_iterated_condition():
    check = validate_dither(math.sin, TWO_PI)
    assert not check.passed
    assert check.mean_residual < 1e-10
    assert check.iterated_residual == pytest.approx(TWO_PI, abs=1e-6)


def test_constant_rejected_by_mean_condition():
    check = validate_dither(lambda t: 1.0, TWO_PI)
    assert not check.passed
    assert check.mean_residual == pytest.approx(TWO_PI, abs=1e-10)


def test_period_must_be_positive():
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="period"):
            validate_dither(math.cos, period)
        with pytest.raises(ValueError, match="period"):
            DitherComponent(w=math.cos, shape=lambda q: (1.0, 0.0), period=period,
                            w_integral=math.sin)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            validate_dither(math.cos, TWO_PI, tol=tol)


def test_iterated_mean_weights_by_time_remaining():
    # int_0^1 int_0^s u du ds = 1/6, where the weight s instead of 1 - s gives 1/3
    check = validate_dither(lambda t: t, 1.0)
    assert check.mean_residual == pytest.approx(0.5, rel=1e-12)
    assert check.iterated_residual == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_es_control_cosine_zero_crossing():
    gains = EsGains(k=2.0, c=0.7, epsilon=0.05)
    u1 = surge_law(gains)(gains.epsilon * math.pi / 2, 12.3)
    assert u1 == pytest.approx(0.0, abs=1e-12)


def test_es_control_at_start():
    u1 = surge_law(EsGains(k=1.0, c=1.0, epsilon=0.1))
    assert u1(0.0, 9.5) == pytest.approx(95.0)


def test_es_control_torque_channel_constant():
    gains = EsGains(k=1.3, c=2.5, epsilon=0.1)
    dset = es_dither_set(gains, quadratic_cost())
    for t in np.linspace(0.0, 5.0, 101):
        assert general_input(dset, gains.epsilon, t, np.zeros(3))[1] == 2.5


def test_es_control_homogeneous_in_measurement():
    u1 = surge_law(EsGains(k=0.8, c=1.0, epsilon=0.2))
    assert u1(0.37, 6.0) == pytest.approx(2.0 * u1(0.37, 3.0))


def test_surge_period_average_zero_with_frozen_measurement():
    gains = EsGains(k=1.0, c=1.0, epsilon=0.1)
    period = TWO_PI * gains.epsilon
    _, values, h = sample_period(lambda t: surge_law(gains)(t, 7.7), period)
    assert abs(simpson(values, h)) < 1e-9


def test_general_input_matches_es_control_law():
    gains = EsGains(k=1.0, c=1.0, epsilon=0.1)
    field = quadratic_cost()
    dset = es_dither_set(gains, field)
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-5, 5, 3)
        t = rng.uniform(0, 10)
        rho = field.value(q[0], q[1])
        assert np.allclose(general_input(dset, gains.epsilon, t, q),
                           [surge_law(gains)(t, rho), gains.c], atol=1e-12)


def test_general_input_reduces_to_base_when_dithers_vanish():
    gains = EsGains(k=1.0, c=2.0, epsilon=0.1)
    dset = es_dither_set(gains, quadratic_cost())
    # cos(tau) = 0 at tau = pi/2
    u = general_input(dset, gains.epsilon, gains.epsilon * math.pi / 2,
                      np.zeros(3))
    assert np.allclose(u, dset.b0, atol=1e-12)


def test_zero_shape_component_contributes_nothing():
    gains = EsGains(k=1.0, c=1.0, epsilon=0.1)
    field = quadratic_cost()
    one = es_dither_set(gains, field)
    extra = DitherComponent(w=lambda t: math.cos(2.0 * t),
                            shape=lambda q: np.zeros(2), period=TWO_PI,
                            w_integral=lambda t: 0.5 * math.sin(2.0 * t))
    two = DitherSet(b0=one.b0, components=one.components + (extra,))
    q = np.array([1.0, -2.0, 0.5])
    for t in (0.0, 0.3, 1.7):
        assert np.allclose(general_input(one, gains.epsilon, t, q),
                           general_input(two, gains.epsilon, t, q), atol=1e-14)


def test_gains_validation():
    with pytest.raises(ValueError):
        EsGains(k=1.0, c=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        EsGains(k=1.0, c=1.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        EsGains(k=-1.0, c=1.0, epsilon=0.1)
    for bad in (math.nan, math.inf):
        for gains in ({"k": bad, "c": 1.0, "epsilon": 0.1},
                      {"k": 1.0, "c": bad, "epsilon": 0.1},
                      {"k": 1.0, "c": 1.0, "epsilon": bad}):
            with pytest.raises(ValueError, match="finite"):
                EsGains(**gains)
    EsGains(k=0.0, c=1.0, epsilon=0.1)  # seeking disabled is allowed


@pytest.mark.parametrize("name, value", [("k", -1.0), ("k", math.nan), ("c", 0.0),
                                         ("c", math.inf), ("epsilon", 0.0),
                                         ("epsilon", -0.1)])
def test_gains_name_the_bad_field(name, value):
    gains = {"k": 1.0, "c": 1.0, "epsilon": 0.1, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be a finite .*, got {value!r}$"):
        EsGains(**gains)


def test_dither_component_needs_w_integral_zero_at_start():
    # xi_field reads w_integral(t) as int_0^t w, which needs w_integral(0) = 0
    with pytest.raises(ValueError, match="w_integral"):
        DitherComponent(w=math.cos, shape=lambda q: np.zeros(2), period=TWO_PI,
                        w_integral=lambda t: math.sin(t) + 1.0)


def test_empty_dither_set_rejected():
    with pytest.raises(ValueError):
        DitherSet(b0=np.zeros(2), components=())
