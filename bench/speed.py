"""The machine's speed, sampled while an operation runs.

The benchmark's machine shares its cores: its speed flips between two
levels about 1.8x apart, in phases of one to tens of seconds. An operation's
wall time alone then depends on the phases it ran in. `SpeedProbe` samples
the speed through the operation: an interval timer interrupts it every
`INTERVAL_S`, and the signal handler times a short calibration loop after a
few untimed warm-up steps (about 5% of the run). The loop is fixed-step RK4 of a small linear system
through 6-vector numpy calls, the kind of work the program spends its time
on, but with no surgeseek code, so no change to the program changes it.

`scaled_s` is the operation's own time (wall time minus the handler's)
rescaled to the reference speed, at which one calibration step takes
`REFERENCE_STEP_S`: the warm loop's step in the fast phase of a 2-vCPU
Intel Xeon VM (Python 3.11, numpy 2.4), where the scaled time is about the
wall time. Scaled times compare between runs and commits.
`speed_now()` gives the speed at one moment from a pure-Python loop, which
needs no import: the set-up is scaled by it, taken right before and right
after. Its reference is the loop's time in the same fast phase,
`PYTHON_REFERENCE_S`. (The numpy loop, measured after the set-up, tracks
the set-up time worse than the pure-Python one.)
"""
import signal
from time import perf_counter

INTERVAL_S = 0.05
STEPS = 100
WARM_UP_STEPS = 20
REFERENCE_STEP_S = 12e-6
PYTHON_ITERATIONS = 20000
PYTHON_REFERENCE_S = 1.1e-3
MATRIX = ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
          (0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
          (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
          (-1.0, 0.0, 0.0, -0.1, 0.0, 0.0),
          (0.0, -2.0, 0.0, 0.0, -0.2, 0.0),
          (0.0, 0.0, -3.0, 0.0, 0.0, -0.3))


def calibrate(steps=STEPS):
    """Wall seconds of `steps` steps of the calibration loop."""
    import numpy as np  # imported here so that it is not part of the set-up time
    a, h = np.array(MATRIX), 0.01
    y = np.ones(6)
    start = perf_counter()
    for _ in range(steps):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) * np.cos(0.01 * y[0])
    return perf_counter() - start


def python_loop():
    """Wall seconds of the pure-Python calibration loop."""
    start = perf_counter()
    total = 0.0
    for i in range(PYTHON_ITERATIONS):
        total += i * 0.5
    return perf_counter() - start


def speed_now():
    """Relative speed right now: the faster of two pure-Python loops, after a warm-up."""
    python_loop()
    return PYTHON_REFERENCE_S / min(python_loop(), python_loop())


class SpeedProbe:
    """Context manager that times the block and samples the speed during it."""

    def __init__(self):
        calibrate()     # warm-up: the first call runs cold
        self.samples = []
        self.probe_s = 0.0
        self.wall_s = 0.0

    def _sample(self, _signum, _frame):
        start = perf_counter()
        calibrate(WARM_UP_STEPS)
        self.samples.append(calibrate())
        self.probe_s += perf_counter() - start

    def __enter__(self):
        self.samples, self.probe_s = [calibrate()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())
        return False

    @property
    def own_s(self):
        """Wall seconds of the block without the probe's own."""
        return self.wall_s - self.probe_s

    @property
    def speed(self):
        """Mean speed over the samples, relative to the reference speed."""
        return sum(REFERENCE_STEP_S * STEPS / t for t in self.samples) / len(self.samples)

    @property
    def scaled_s(self):
        return self.own_s * self.speed
