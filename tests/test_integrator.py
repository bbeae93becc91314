import math

import numpy as np
import pytest

from surgeseek.integrator import (BlowUpError, IntegratorSettings, Trajectory,
                                  integrate)


def test_zero_field_constant():
    traj = integrate(lambda t, y: np.zeros_like(y), np.array([1.0, -2.0]),
                     IntegratorSettings(step=0.1, tf=1.0))
    assert np.all(traj.states == traj.states[0])
    assert len(traj.t) == 11


def test_exponential():
    traj = integrate(lambda t, y: y, np.array([1.0]),
                     IntegratorSettings(step=1e-3, tf=1.0))
    assert traj.states[-1, 0] == pytest.approx(math.e, abs=1e-8)


def test_fourth_order_convergence():
    def err(h):
        traj = integrate(lambda t, y: y, np.array([1.0]),
                         IntegratorSettings(step=h, tf=1.0))
        return abs(traj.states[-1, 0] - math.e)

    ratio = err(0.1) / err(0.05)
    assert 14.0 <= ratio <= 18.0


def test_harmonic_energy_drift():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    traj = integrate(rhs, np.array([1.0, 0.0]),
                     IntegratorSettings(step=1e-3, tf=100.0))
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-6


def test_determinism():
    def rhs(t, y):
        return np.array([math.sin(t) - 0.1 * y[0]])

    settings = IntegratorSettings(step=1e-3, tf=2.0)
    a = integrate(rhs, np.array([0.3]), settings)
    b = integrate(rhs, np.array([0.3]), settings)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.t.tobytes() == b.t.tobytes()


def test_blow_up_reports_time():
    def rhs(t, y):
        return np.asarray(y) ** 2

    with np.errstate(over="ignore"), pytest.raises(BlowUpError) as info:
        integrate(rhs, np.array([1.0]), IntegratorSettings(step=0.01, tf=2.0))
    assert 0.9 < info.value.time <= 2.0
    assert "t=" in str(info.value)


def test_blow_up_carries_last_finite_state():
    # y' = 1 up to t = 0.5, then inf: the step from t = 0.5 to 0.6 is the
    # first to leave a non-finite state
    def rhs(t, y):
        return (1.0,) if t < 0.52 else (math.inf,)

    with pytest.raises(BlowUpError) as info:
        integrate(rhs, np.array([0.0]), IntegratorSettings(step=0.1, tf=1.0))
    assert info.value.time == pytest.approx(0.6)
    assert str(info.value) == "non-finite state encountered at t=0.6"
    assert isinstance(info.value.state, np.ndarray)
    assert info.value.state == pytest.approx([0.5], abs=1e-12)


@pytest.mark.parametrize("width", [1, 3])
def test_rhs_output_length_must_match_state(width):
    with pytest.raises(ValueError, match=rf"rhs returned {width} values .* length 2"):
        integrate(lambda t, y: (0.0,) * width, np.array([1.0, 2.0]),
                  IntegratorSettings(step=0.1, tf=1.0))


def test_rhs_receives_a_tuple_of_floats():
    seen = []

    def rhs(t, y):
        seen.append(y)
        return [-v for v in y]

    integrate(rhs, np.array([1.0, 2.0]), IntegratorSettings(step=0.5, tf=1.0))
    assert all(type(y) is tuple and all(type(v) is float for v in y) for y in seen)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(step=0.0, tf=1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(step=2.0, tf=1.0)
    with pytest.raises(ValueError, match="step.*tf"):
        IntegratorSettings(step=0.3, tf=1.0)


def test_trajectory_length_checks():
    with pytest.raises(ValueError):
        Trajectory(t=np.arange(3.0), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(t=np.arange(3.0), states=np.zeros((3, 1)),
                   rho=np.zeros(2))
