"""
Deterministic fixed-step classical Runge-Kutta (RK4) integration.

The closed loop is driven by a high-frequency dither, so adaptive
steppers are deliberately avoided: a fixed step keeps reruns
byte-identical and the harness enforces enough samples per dither
period. No wrapping or projection is applied to the state.
"""
import math
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite."""

    def __init__(self, time):
        super().__init__(f"non-finite state encountered at t={time:.6g}")
        self.time = time


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed step over [0, tf]; the step must divide tf."""

    step: float
    tf: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.step <= self.tf):
            raise ValueError("require 0 < step <= tf")
        if abs(self.n_steps * self.step - self.tf) > 1e-9 * self.tf:
            raise ValueError(f"step={self.step:g} does not divide tf={self.tf:g}")

    @property
    def n_steps(self):
        return int(round(self.tf / self.step))


def dividing_step(tf, max_step):
    """Largest step that divides tf and is at most `max_step`."""
    return tf / max(1, int(math.ceil(tf / max_step)))


@dataclass
class Trajectory:
    """Time-indexed record of one simulation run.

    `states` is (n, m); `inputs` (n, 2) and `rho` (n,) are filled by the
    simulation layer and stay None for raw integrations.
    """

    t: np.ndarray
    states: np.ndarray
    inputs: np.ndarray = None
    rho: np.ndarray = None

    def __post_init__(self):
        n = len(self.t)
        if len(self.states) != n:
            raise ValueError("times and states must have equal length")
        for arr in (self.inputs, self.rho):
            if arr is not None and len(arr) != n:
                raise ValueError("per-sample arrays must have equal length")

    @property
    def step(self):
        return self.t[1] - self.t[0]


def integrate(rhs, initial, settings):
    """Integrate y' = rhs(t, y) with fixed-step RK4, recording every step."""
    n = settings.n_steps
    h = settings.step
    y = np.asarray(initial, dtype=float).copy()
    t = 0.0

    times = h * np.arange(n + 1)
    states = np.empty((n + 1, y.size))
    states[0] = y

    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        t = times[i + 1]
        if not np.isfinite(y).all():
            raise BlowUpError(t)
        states[i + 1] = y

    return Trajectory(t=times, states=states)


def hermite(ts, values, rates, t):
    """Cubic Hermite dense output of sampled `values` at times `t`.

    `rates` are the exact time derivatives of `values` at the sample times
    `ts`, so the interpolant is O(h^4) accurate between samples and exact
    at them (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).
    """
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    u = (t - ts[i]) / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return (h00 * values[i] + h10 * h * rates[i]
            + h01 * values[i + 1] + h11 * h * rates[i + 1])
