"""
Deterministic fixed-step classical Runge-Kutta (RK4) integration.

The closed loop is driven by a high-frequency dither, so adaptive
steppers are deliberately avoided: a fixed step keeps reruns
byte-identical and the harness enforces enough samples per dither
period. No wrapping or projection is applied to the state.

RHS contract: `rhs(t, y)` gets the state `y` as a tuple of Python floats
and returns any sequence of floats of the same length (a tuple, a list or
a 1-D array). The stages are formed on Python floats, so the only numpy
work in a step is storing its state as one row of the recorded array.
"""
import math
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite.

    `time` is the time of the first non-finite state and `state` the last
    finite one (a numpy array), one step earlier.
    """

    def __init__(self, time, state):
        super().__init__(f"non-finite state encountered at t={time:.6g}")
        self.time = time
        self.state = state


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
    """Integrate y' = rhs(t, y) with fixed-step RK4, recording every step.

    The state is carried as a tuple of floats (see the module docstring
    for the RHS contract). Raises a ValueError when the first RHS output
    and the state differ in length, and a BlowUpError when a step leaves
    the state non-finite.
    """
    n = settings.n_steps
    h = settings.step
    initial = np.asarray(initial, dtype=float)
    y = tuple(initial.tolist())

    times = h * np.arange(n + 1)
    states = np.empty((n + 1, len(y)))
    states[0] = initial

    half = 0.5 * h
    sixth = h / 6.0
    t = 0.0
    for i in range(n):
        k1 = rhs(t, y)
        if i == 0 and len(k1) != len(y):
            raise ValueError(f"rhs returned {len(k1)} values for a state "
                             f"of length {len(y)}")
        # tuples of list comprehensions: quicker than generators here
        k2 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k1)]))
        k3 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k2)]))
        k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
        y = tuple([a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        # the product that gives times[i + 1], bit for bit; a list of all
        # the times would keep about 1 MB of float objects alive through
        # the loop and raise the peak RSS
        t = h * (i + 1)
        if not all(map(math.isfinite, y)):
            raise BlowUpError(t, states[i].copy())
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
