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

The loop is generated from one source template, the way
`collections.namedtuple` generates its methods: it keeps the state in m
locals and writes every stage and the update out in full, in the operation
order of the plain comprehension loop, so it gives the same bits. Each of
the four stages has one form: the stage time in `tau`, the stage state in
the slots, then a body that leaves the stage's rates in m locals. For a
plain callable the slots are one tuple `s` and the body is the call
`rhs(tau, s)`. A function whose code `_TEXTS` names (what
`vehicle.model_rhs` compiles) is written out instead: its slots are its own
locals, its body is its own statements, and the loop is bound to the
values of its free variables, so a step calls only what that body calls
and builds no stage or rate tuple. The same expressions run in the same
order, so the floats are those of calling it. The seeking laws that such a
body calls (a cost field's value and gradient, the surge law, the surge
self product) are stated once each as source text by `define_laws`, which
registers each text in `_LAWS` by the law's code, so `vehicle.model_rhs`
writes their calls out in the body too, and a runner's step calls none of
them. A body that names one of the loop's own names (its time `t`, its step
`h`, its `state`, ...) is called instead. The loop is generated once per state length and text, and
cached. It takes a range of steps, so `step_rows` can step one run in
consecutive ranges of rows with the bits of one `integrate`, and the rows
already stepped can be read in between.

Blow-up rule: a step that leaves the state non-finite is a blow-up, and so
is an error of a stage's body: an OverflowError always, and a ValueError
(what `math.cos` raises on inf) when that stage's state, read from its
slots, is not finite. A ValueError on a finite stage state is the RHS's
own and propagates.
"""
import ast
import functools
import math
import struct
import textwrap
from dataclasses import dataclass
from types import CodeType

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


# code object of an RHS function -> (slots, body, rates, namespace): the
# function is `def f(tau, state)`, which unpacks `state` into the names
# `slots`, runs the statements `body` and returns the names `rates` as a
# tuple, with `namespace` as its globals. `step_rows` writes `body` out at
# each stage in place of a call to the function
_TEXTS = {}

# code object of a law -> (params, body, result): the law is
# `def f(*params)`, which runs the assignments `body` and returns the
# expression `result`; it reads its free variables from its closure and any
# other name from the builtins. `vehicle.model_rhs` writes a call to it out
# as these statements in place of the call
_LAWS = {}

# `define_laws` as source: `bind` takes the laws' free variables and returns
# the laws
_LAWS_TEMPLATE = """\
def bind({names}):
{source}    return {laws}
"""


def define_laws(source, names):
    """`bind(*names)`, which returns the functions that `source` defines, in
    order, as closures over the names `names`.

    This is the one statement of each law: `source` defines it as a `def` of
    positional parameters whose body is assignments and then one `return`.
    Each function is the closure that the same `def` in a factory function
    would be, with its bytecode. Its text is registered in `_LAWS` under its
    code, which every function of that law that `bind` returns shares.
    Raises a ValueError for a law of any other form.
    """
    laws = ast.parse(source).body
    namespace = {}
    exec(compile(_LAWS_TEMPLATE.format(names=", ".join(names),
                                       source=textwrap.indent(source, " " * 4),
                                       laws=_tup(law.name for law in laws)),
                 "<laws>", "exec"), namespace)
    bind = namespace["bind"]
    codes = {c.co_name: c for c in bind.__code__.co_consts if isinstance(c, CodeType)}
    for law in laws:
        *body, result = law.body
        args = law.args
        if (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults
                or law.decorator_list or not isinstance(result, ast.Return)
                or result.value is None or not all(isinstance(s, ast.Assign) for s in body)
                or any(isinstance(node, (ast.Lambda, ast.NamedExpr, ast.comprehension))
                       for node in ast.walk(law))):
            raise ValueError(f"law {law.name} is not positional parameters, assignments "
                             f"and one return")
        _LAWS[codes[law.name]] = (tuple(arg.arg for arg in args.args),
                                  "".join(ast.unparse(stmt) + "\n" for stmt in body),
                                  ast.unparse(result.value))
    return bind


# The RK4 loop for a state of length m, bound by `bind` to the names its
# stages read: the RHS, or the free variables of a written-out function.
# Each stage and the update are written out per component, in the operation
# order of the plain loop `tuple([a + half * b for a, b in zip(y, k)])` and
# so on: on Python floats that is about 2.5x cheaper per stage than a
# comprehension, which runs as its own frame over a zip.
_LOOP_TEMPLATE = """\
def bind({names}):
    def rk4_loop(state, i0, i1, h, states):
        half = 0.5 * h
        sixth = h / 6.0
        {y} = state
        # the product the step before i0 left in t, bit for bit
        t = h * i0
        try:
            for i in range(i0, i1):
{steps}\
                # the product that gives times[i + 1], bit for bit; a list of
                # all the times would keep about 1 MB of float objects alive
                # through the loop and raise the peak RSS
                t = h * (i + 1)
                # a finite sum implies finite components; only a non-finite
                # sum (a NaN or inf, or an overflow of finite ones) needs the
                # exact test
                if not isfinite({total}) and not all(map(isfinite, {y})):
                    raise BlowUpError(t, states[i].copy())
                # the row's bytes in place: cheaper than `states[i + 1] = y`,
                # which converts a tuple through numpy
                pack_row(states, row_bytes * (i + 1), {ylist})
        # an RHS on floats overflows by raising (a float ** 2 calls libm pow),
        # and math.cos and math.sin raise a ValueError on an infinite argument,
        # where numpy would return inf or NaN. Either is a blow-up in step i,
        # but a ValueError only when the stage state is not finite; on a
        # finite one it is the RHS's own error. Stage 1's state is finite: the
        # start is checked before the loop and every step after it
        except (OverflowError, ValueError) as exc:
            if isinstance(exc, ValueError) and all(map(isfinite, {stage_state})):
                raise
            raise BlowUpError(h * (i + 1), states[i].copy()) from exc
    return rk4_loop
"""

# One stage: its time in tau and its state in the slots, then the body,
# which leaves the stage's rates in its outputs
_STAGE = "tau = {time}\n{slots}{body}"

# the body of a stage that calls the RHS; the first stage's body also
# checks the length of what the RHS returns
_CALL = "{out} = rhs(tau, s)\n"
_FIRST_CALL = """\
k = rhs(tau, s)
try:
    {out} = k
except ValueError:
    raise ValueError(f"rhs returned {{len(k)}} values for a state of length {m}") from None
"""


def _tup(items):
    # a trailing comma makes every length a tuple, (y0,) and () included
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _names(code):
    """Every name that `code` and the code nested in it read or write."""
    return set().union(code.co_names, code.co_varnames, code.co_cellvars, code.co_freevars,
                       *(_names(c) for c in code.co_consts if isinstance(c, CodeType)))


@functools.cache
def _rk4_loop(m, code=None):
    """`bind` of the RK4 loop for states of length m, generated from
    `_LOOP_TEMPLATE`.

    Without `code`, `bind(rhs)` gives the loop that calls `rhs` at each
    stage, with the stage state in the tuple s. With the code object of a
    function that `_TEXTS` names, `bind` takes the function's free
    variables and gives the loop that writes its body out at each stage,
    with the stage state in its slots. None when that body cannot be
    written out for states of length m: its slots or rates are not m, or
    the body, slots or rates name one of the calling loop's own names
    other than tau (its `state`, `t`, `h`, `half`, `s`, ...).
    """
    y, k1, k2, k3, k4 = ([f"{p}{j}" for j in range(m)] for p in "yabcd")
    namespace = {}
    if code is None:
        names, stage_state = ("rhs",), "s"

        def stage(time, state, out):
            body = _FIRST_CALL if out is k1 else _CALL
            return _STAGE.format(time=time, slots=f"s = {_tup(state)}\n",
                                 body=body.format(out=_tup(out), m=m))
    else:
        slots, body, rates, namespace = _TEXTS[code]
        own = _names(_rk4_loop(m).__code__) - {"tau"}
        read = {*slots, *rates, *_names(compile(body, "<body>", "exec"))}
        if len(slots) != m or len(rates) != m or not own.isdisjoint(read):
            return None
        # the last stage's rates are read by the update where the body leaves them
        names, stage_state, k4 = code.co_freevars, _tup(slots), list(rates)

        def stage(time, state, out):
            return _STAGE.format(
                time=time, slots="".join(f"{a} = {b}\n" for a, b in zip(slots, state)),
                body=body + "".join(f"{a} = {b}\n" for a, b in zip(out, rates) if a != b))
    stages = "".join(map(stage, ("t", "t + half", "t + half", "t + h"), (
        y, [f"{a} + half * {b}" for a, b in zip(y, k1)],
        [f"{a} + half * {b}" for a, b in zip(y, k2)],
        [f"{a} + h * {b}" for a, b in zip(y, k3)]), (k1, k2, k3, k4)))
    update = "".join(f"{a} = {a} + sixth * ({b1} + 2.0 * ({b2} + {b3}) + {b4})\n"
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    source = _LOOP_TEMPLATE.format(
        names=", ".join(names), y=_tup(y), steps=textwrap.indent(stages + update, " " * 16),
        total=" + ".join(y) or "0.0", ylist="".join(f"{a}, " for a in y),
        stage_state=stage_state)
    # native doubles, the layout of a C-contiguous float64 row
    row = struct.Struct(f"{m}d")
    namespace = {**namespace, "isfinite": math.isfinite, "BlowUpError": BlowUpError,
                 "pack_row": row.pack_into, "row_bytes": row.size}
    exec(compile(source, f"<rk4 loop, m={m}>", "exec"), namespace)
    return namespace["bind"]


def _loop(rhs, m):
    """The RK4 loop that steps `rhs` on states of length m: a function that
    `_TEXTS` names written out, bound to the values of its free variables,
    where it can be; otherwise the calls to `rhs`."""
    code = getattr(rhs, "__code__", None)
    bind = code in _TEXTS and _rk4_loop(m, code)
    if bind:
        return bind(*[cell.cell_contents for cell in rhs.__closure__ or ()])
    return _rk4_loop(m)(rhs)


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
    _loop(rhs, states.shape[1])(tuple(states[i0].tolist()), i0, i1, h, states)


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
    at them (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6). The
    samples lie along the last axis of the arrays `values` and `rates`:
    stacked rows, shape (k, len(ts)), share one search for the intervals
    and one evaluation of the basis, and each row has the bits it has on
    its own.
    """
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    u = (t - ts[i]) / h
    # the rate terms' basis carries h: (h10 * h) * rate is the plain
    # formula's product order
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2 * h
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0) * h
    # freed before the rows are formed, which sets the peak memory
    del h, u
    out = np.empty(values.shape[:-1] + np.shape(t))
    for row in np.ndindex(values.shape[:-1]):
        v, r = values[row], rates[row]
        out[row] = h00 * v[i] + h10 * r[i] + h01 * v[i + 1] + h11 * r[i + 1]
    return out
