"""
Deterministic fixed-step classical Runge-Kutta (RK4) integration.

The closed loop is driven by a high-frequency dither, so adaptive
steppers are deliberately avoided: a fixed step keeps reruns
byte-identical and the harness enforces enough samples per dither
period. No wrapping or projection is applied to the state.
"""
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite."""

    def __init__(self, time):
        super().__init__(f"non-finite state encountered at t={time:.6g}")
        self.time = time


@dataclass(frozen=True)
class IntegratorSettings:
    step: float
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        span = self.tf - self.t0
        if not (0.0 < self.step <= span):
            raise ValueError("require 0 < step <= tf - t0")

    @property
    def n_steps(self):
        return int(round((self.tf - self.t0) / self.step))


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
    t = settings.t0

    times = settings.t0 + h * np.arange(n + 1)
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
