"""
Deterministic fixed-step classical Runge-Kutta (RK4) integration.

The closed loop is driven by a high-frequency dither, so adaptive
steppers are deliberately avoided: a fixed step keeps reruns
byte-identical and the harness enforces enough samples per dither
period. No wrapping or projection is applied to the state.

RHS contract: `rhs(t, y)` gets the state `y` as a tuple and returns any
sequence of floats of the same length (a tuple, a list or a 1-D array).
The stages are formed on what the RHS returns. Python floats keep every
stage, and so every `y`, on floats; a numpy array or numpy scalars make
the later stages step on numpy scalars: the same bits, at about three
times the cost per operation. So an RHS should return a tuple of floats.
Each step's state is packed into its row of the preallocated record by
`struct`, so on floats a step calls no numpy function.

The loop is generated once per state length m, from one source template,
the way `collections.namedtuple` generates its methods: it unpacks the
state and each RHS output into m locals and writes every stage and the
update out in full, in the operation order of the plain comprehension
loop, so it gives the same bits. It is built on the first `integrate` of
a state of that length and cached. It takes a range of steps, so
`step_rows` can step one run in consecutive ranges of rows with the bits
of one `integrate`, and the rows already stepped can be read in between.

Blow-up rule: a step that leaves the state non-finite is a blow-up, and so
is an error of the RHS on the state `s` it was handed: an OverflowError
always, and a ValueError (what `math.cos` raises on inf) when `s` is not
finite. A ValueError on a finite `s` is the RHS's own and propagates.
"""
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """Raised when the integrated state stops being finite (see the module's
    blow-up rule).

    `time` is the time of the first non-finite state and `state` the last
    finite one (a numpy array), one step earlier. `integrate` rejects a
    non-finite start, so there always is one.
    """

    def __init__(self, time, state):
        super().__init__(f"non-finite state encountered at t={time:.6g}")
        self.time = time
        self.state = state


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed step over [0, tf]; the step must divide tf."""

    step: float
    tf: float

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


# The RK4 loop for a state of length m. Each stage and the update are
# written out per component, in the operation order of the plain loop
# `tuple([a + half * b for a, b in zip(y, k)])` and so on: on Python floats
# that is about 2.5x cheaper per stage than a comprehension, which runs as
# its own frame over a zip.
_LOOP_TEMPLATE = """\
def rk4_loop(rhs, y, i0, i1, h, states):
    half = 0.5 * h
    sixth = h / 6.0
    {y} = y
    # the product the step before i0 left in t, bit for bit
    t = h * i0
    try:
        for i in range(i0, i1):
            # s: the state handed to the RHS call in progress (the blow-up rule)
            s = y
            k = rhs(t, s)
            try:
                {k1} = k
            except ValueError:
                raise ValueError(f"rhs returned {{len(k)}} values for a state "
                                 f"of length {m}") from None
            s = {stage2}
            {k2} = rhs(t + half, s)
            s = {stage3}
            {k3} = rhs(t + half, s)
            s = {stage4}
            {k4} = rhs(t + h, s)
            y = {y} = {update}
            # the product that gives times[i + 1], bit for bit; a list of all
            # the times would keep about 1 MB of float objects alive through
            # the loop and raise the peak RSS
            t = h * (i + 1)
            # a finite sum implies finite components; only a non-finite sum
            # (a NaN or inf, or an overflow of finite ones) needs the exact test
            if not isfinite({total}) and not all(map(isfinite, y)):
                raise BlowUpError(t, states[i].copy())
            # the row's bytes in place: cheaper than `states[i + 1] = y`, which
            # converts the tuple through numpy
            pack_row(states, row_bytes * (i + 1), {ylist})
    # an RHS on floats overflows by raising (a float ** 2 calls libm pow), and
    # math.cos and math.sin raise a ValueError on an infinite argument, where
    # numpy would return inf or NaN. Either is a blow-up in step i, but a
    # ValueError only when the state s it was handed is not finite; on a
    # finite s it is the RHS's own error. Stage 1 hands over y, which is
    # finite: the start is checked before the loop and every step after it
    except (OverflowError, ValueError) as exc:
        if isinstance(exc, ValueError) and all(map(isfinite, s)):
            raise
        raise BlowUpError(h * (i + 1), states[i].copy()) from exc
"""


@functools.cache
def _rk4_loop(m):
    """The RK4 loop for states of length m, generated from `_LOOP_TEMPLATE`."""
    def tup(items):
        # a trailing comma makes every length a tuple, (y0,) and () included
        return "(" + "".join(f"{item}, " for item in items) + ")"

    # locals: the state y0, y1, ... and the RHS outputs a*, b*, c* and d*
    y, k1, k2, k3, k4 = ([f"{p}{j}" for j in range(m)] for p in "yabcd")
    source = _LOOP_TEMPLATE.format(
        m=m, y=tup(y), k1=tup(k1), k2=tup(k2), k3=tup(k3), k4=tup(k4),
        stage2=tup(f"{a} + half * {b}" for a, b in zip(y, k1)),
        stage3=tup(f"{a} + half * {b}" for a, b in zip(y, k2)),
        stage4=tup(f"{a} + h * {b}" for a, b in zip(y, k3)),
        update=tup(f"{a} + sixth * ({b1} + 2.0 * ({b2} + {b3}) + {b4})"
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)),
        total=" + ".join(y) or "0.0", ylist="".join(f"{a}, " for a in y))
    # native doubles, the layout of a C-contiguous float64 row
    row = struct.Struct(f"{m}d")
    namespace = {"isfinite": math.isfinite, "BlowUpError": BlowUpError,
                 "pack_row": row.pack_into, "row_bytes": row.size}
    exec(compile(source, f"<rk4 loop, m={m}>", "exec"), namespace)
    return namespace["rk4_loop"]


def allocate(initial, settings):
    """The record of a run of `settings` from `initial`: its times, and its
    states with `initial` in row 0 and the other rows to be filled by
    `step_rows`. Raises a ValueError for a non-finite initial state."""
    initial = np.asarray(initial, dtype=float)
    for j, value in enumerate(initial.tolist()):
        if not math.isfinite(value):
            raise ValueError(f"initial state component {j} must be finite, got {value}")
    n = settings.n_steps
    states = np.empty((n + 1, len(initial)))
    states[0] = initial
    return Trajectory(t=settings.step * np.arange(n + 1), states=states)


def step_rows(rhs, states, h, i0, i1):
    """Take the RK4 steps i0, ..., i1 - 1 of size h from the state in row i0
    of `states`, writing each step's state into the next row.

    Row i0 must hold a finite state: the initial one, or one that an
    earlier call wrote. Steps i0 to i1 - 1 then give the bits that one call
    from row 0 gives them: the row holds the loop's own floats, packed in
    place, and the loop starts at the time h * i0 that it would carry into
    step i0. So a run can be stepped in consecutive ranges of rows, and
    rows [0, i0] read while later ones are still to be stepped.
    """
    _rk4_loop(states.shape[1])(rhs, tuple(states[i0].tolist()), i0, i1, h, states)


def integrate(rhs, initial, settings):
    """Integrate y' = rhs(t, y) with fixed-step RK4, recording every step.

    One `step_rows` over every row of `allocate`'s record. The state is
    carried as a tuple of floats (see the module docstring for the RHS
    contract). Raises a ValueError for a non-finite initial state or when
    an RHS output and the state differ in length, and a BlowUpError when a
    step leaves the state non-finite, the RHS raises an OverflowError, or
    it raises a ValueError on a state handed to it that is not finite (the
    RHS's error chained as its cause).
    """
    traj = allocate(initial, settings)
    step_rows(rhs, traj.states, settings.step, 0, settings.n_steps)
    return traj


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
