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
`s0 ... s{m-1}`, then `(k...) = rhs(tau, (s0, ...))`; the first checks the
length of what `rhs` returns, unless `rhs` is a law whose result is a tuple
of m names. A law is a function stated once as source text by
`define_laws`, which registers the text in `_LAWS` by the law's code: the
seeking laws are, and so are the runners' right-hand sides that call them
(see `vehicle.model_rhs`). The loop is the one place a law is written out,
by one rule: a law is written out where its call is an assignment's whole
value; any other call is called. When `rhs` is a law, `_Splice` writes each
stage's call out as its statements, and the calls of the laws in its
closure in turn, bound to the values of their free variables, so a step
calls only what they call and builds no stage or rate tuple; the same
expressions run in the same order, so the floats are those of calling it.
Any other callable is called, and so is a law bound to a value that is not
a float or a callable. A law's step reads each bound value, and each +, -,
* or unary - of them and constants (on floats it cannot raise), from a
local computed once per call, before the first step (see `_Hoist`); what
laws share within a step their texts state once. The loop is generated
once per state length and `_loop` key, and cached; it takes a range of
steps, so `step_rows` can step one run in consecutive ranges of rows,
reading those stepped in between.

Blow-up rule: a step that leaves the state non-finite is a blow-up, and so
is an error of a stage's RHS: an OverflowError always, and a ValueError
(what `math.cos` raises on inf) when that stage's state, read from
`s0 ...`, is not finite. A ValueError on a finite stage state is the RHS's
own and propagates.
"""
import ast
import builtins
import collections
import functools
import math
import struct
import textwrap
from dataclasses import dataclass
from types import CellType, CodeType, FunctionType

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
    """Fixed step over [0, tf], both finite; the step must divide tf."""

    step: float
    tf: float

    def __post_init__(self):
        for name, value in (("step", self.step), ("tf", self.tf)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


# code object of a law -> (params, body, result): the law is
# `def f(*params)`, which runs the assignments `body` and returns the
# expression `result`; it reads its free variables from its closure and any
# other name from the builtins. `_Splice` writes a call to it out as these
# statements in place of the call
_LAWS = {}

# `define_laws` as source: `bind` takes the laws' free variables and returns
# the laws
_LAWS_TEMPLATE = """\
def bind({names}):
{source}    return {laws}
"""


@functools.cache
def define_laws(source, names):
    """`bind(*names)`, which returns the functions that `source` defines, in
    order, as closures over the names `names`.

    This is the one statement of each law: `source` defines it as a `def` of
    positional parameters whose body is assignments and then one `return`.
    Each function is the closure that the same `def` in a factory function
    would be, with its bytecode. Its text is registered in `_LAWS` under its
    code, which every function of that law that `bind` returns shares. The
    same source and names give the same `bind`, so the laws of one text,
    bound to any values (a sweep's runs, say), share one compile. Raises a
    ValueError for a law of any other form. A law bound to a value that is
    not a float or a callable is called, not written out (see `_loop`).
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


def _tuple_names(node):
    """The names of a tuple of names, or None for any other node."""
    if isinstance(node, ast.Tuple) and all(isinstance(elt, ast.Name) for elt in node.elts):
        return [elt.id for elt in node.elts]
    return None


class _Splice:
    """Writes the calls of laws (`_LAWS`) in statements out as the laws' own
    statements; `values` holds the values of the names the statements read,
    and `taken` every name of the text they are part of.

    One rule: a law is written out where its call is an assignment's whole
    value; any other call is called. The call names a value that is a law
    and passes positional arguments only. The law's parameters are bound to
    its arguments: a name as itself, a tuple of names passed for the
    parameter that the law's first statement unpacks (and nothing else
    reads) by making the unpacked locals those names, any other argument by
    a statement that runs first. A statement that assigns a result tuple of
    the law's locals to as many names goes, and those locals are those
    names; otherwise the result expression replaces the call. The law's
    other names keep their own unless `taken` or another law's names take
    them, and are the same at each call of the law; its closure values and
    builtins join `values`. So the same float operations run in the same
    order and raise the same errors. The law's statements, and the
    statement its result goes into, are written out in turn by the same
    rule.
    """

    def __init__(self, values, taken):
        self.values = values
        self.taken = {*values, *taken}
        # law function -> the names its own names are written out under
        self.names = {}

    def fresh(self, base):
        name, n = base, 1
        while name in self.taken:
            name, n = f"{base}_{n}", n + 1
        self.taken.add(name)
        return name

    def law(self, node):
        """The law that the expression `node` calls and its text, or None."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            fn = self.values.get(node.func.id)
            text = _LAWS.get(_law_code(fn))
            if text and len(node.args) == len(text[0]) and not any(
                    isinstance(arg, ast.Starred) for arg in node.args):
                return fn, text
        return None

    def statement(self, stmt):
        """`stmt` as a list of statements: where its whole value is a call of
        a law, the law's statements, then it with the law's result as its
        value, unless they store that result in its targets."""
        called = isinstance(stmt, ast.Assign) and self.law(stmt.value)
        if not called:
            return [stmt]
        statements, result = self.splice(stmt.value, *called, len(stmt.targets) == 1
                                         and _tuple_names(stmt.targets[0]))
        if result is None:
            return statements
        stmt.value = result
        return statements + self.statement(stmt)

    def splice(self, call, fn, text, targets=None):
        """The statements that bind the parameters of the law `fn` to the
        arguments of `call` and run its body, and its result expression, or
        None where they store the result under the names `targets`."""
        params, body, result = text
        body = ast.parse(body).body
        result = ast.parse(result, mode="eval").body
        nodes = [node for tree in (*body, result) for node in ast.walk(tree)
                 if isinstance(node, ast.Name)]
        used = collections.Counter(node.id for node in nodes)
        stored = collections.Counter(node.id for node in nodes if isinstance(node.ctx, ast.Store))
        args = dict(zip(params, call.args))
        names = {param: arg.id for param, arg in args.items()
                 if isinstance(arg, ast.Name) and param not in stored}
        first = body[0] if body else None
        if isinstance(first, ast.Assign) and isinstance(first.value, ast.Name):
            param, unpacked = first.value.id, _tuple_names(first.targets[0])
            passed = _tuple_names(args.get(param))
            # the first statement is the one use of the parameter, which then
            # needs no binding, and the one assignment of the unpacked locals
            if (passed and unpacked and len(passed) == len(set(unpacked)) == len(unpacked)
                    and len(first.targets) == 1 and set(unpacked).isdisjoint(params)
                    and used[param] == 1 and all(stored[name] == 1 for name in unpacked)):
                names.update(zip(unpacked, passed), **{param: param})
                del body[0]
        results = _tuple_names(result)
        into = (targets and results and len(targets) == len(set(targets)) == len(results)
                == len(set(results)) and stored.keys() >= set(results)
                and set(results).isdisjoint([*params, *names])
                and set(targets).isdisjoint(names.values()))
        if into:
            names.update(zip(results, targets))
        own = self.names.setdefault(fn, {})
        closure = dict(zip(fn.__code__.co_freevars,
                           [cell.cell_contents for cell in fn.__closure__ or ()]))
        statements, unbound = [], [param for param in args if param not in names]
        for name in unbound + sorted(used.keys() - names.keys() - args.keys()):
            if name not in own:
                own[name] = self.fresh(name)
                if name not in stored and name not in params:
                    self.values[own[name]] = (closure[name] if name in closure
                                              else getattr(builtins, name))
            names[name] = own[name]
            if name in unbound:
                # with a position, so that it compiles as a syntax tree
                statements += self.statement(ast.fix_missing_locations(
                    ast.Assign([ast.Name(own[name], ast.Store())], args[name], lineno=0)))
        for node in nodes:
            node.id = names[node.id]
        for stmt in body:
            statements += self.statement(stmt)
        return statements, None if into else result


def _invariant(node, values):
    """Whether `node` is a name of `values`, a constant, or +, -, * or unary -
    of such: on floats it cannot raise."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.USub)) and all(
            _invariant(operand, values) for operand in ast.iter_child_nodes(node)
            if isinstance(operand, ast.expr))
    return isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id in values


class _Hoist(ast.NodeTransformer):
    """Makes an RK4 step read each name of `values`, and each `_invariant`
    operation of them, from a local; `prologue` maps the text that computes
    a local, once per call of the loop, to its name (from `fresh`), each
    after those it reads. The prologue runs before the loop's `try`, even
    for no steps: exact only if `values` are floats (a huge int times 1.0
    raises OverflowError there), so `_loop` calls a law bound to another
    value instead."""

    def __init__(self, values, fresh):
        self.values, self.fresh = values, fresh
        self.prologue = {}

    def local(self, node, base):
        text = ast.unparse(node)
        return ast.Name(self.prologue.get(text) or self.prologue.setdefault(
            text, self.fresh(base)), ast.Load())

    def visit(self, node):
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and _invariant(node, self.values):
            for name in ast.walk(node):
                if isinstance(name, ast.Name):
                    name.id = self.local(name, name.id).id
            return self.local(node, "invariant")
        if isinstance(node, ast.Name) and node.id in self.values:
            return self.local(node, node.id)
        return super().visit(node)


# The RK4 loop for a state of length m, bound by `bind` to the RHS and to
# the names its stages read besides. Each stage and the update are written
# out per component, in the operation order of the plain loop
# `tuple([a + half * b for a, b in zip(y, k)])` and so on: on Python floats
# that is about 2.5x cheaper per stage than a comprehension, which runs as
# its own frame over a zip.
_LOOP_TEMPLATE = """\
def bind({names}):
    def rk4_loop(state, i0, i1, h, states):
        half = 0.5 * h
        sixth = h / 6.0
        {y} = state
        # the product the step before i0 left in t, bit for bit
        t = h * i0
{prologue}        try:
            for i in range(i0, i1):
                # the stages and the update: `_rk4_loop` puts them here
                pass
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
            if isinstance(exc, ValueError) and all(map(isfinite, {s})):
                raise
            raise BlowUpError(h * (i + 1), states[i].copy()) from exc
    return rk4_loop
"""

# One stage: its time in tau and its state in s0 ... s{m-1}, then the call
# of the RHS, which leaves the stage's rates in its outputs; the first
# stage's call also checks the length of what the RHS returns, unless that
# is a tuple of m names
_STAGE = "tau = {time}\n{slots}{out} = rhs(tau, {s})\n"
_FIRST_STAGE = """\
tau = {time}
{slots}k = rhs(tau, {s})
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


def _law_code(value):
    """The code object of `value` if it is a law, else None."""
    return value.__code__ if type(value) is FunctionType and value.__code__ in _LAWS else None


def _tree(law):
    """(law, free variable, value) of `law`'s closure, each law in it followed by its own."""
    for name, cell in zip(law.__code__.co_freevars, law.__closure__ or ()):
        yield law, name, cell.cell_contents
        if _law_code(cell.cell_contents):
            yield from _tree(cell.cell_contents)


def _stand_in(key):
    """A law with the `_loop` key `key`, whose tree holds no run's values: a
    function of each law's code, whose closure holds the stand-ins of the
    entries after it in `_tree`'s order, and None for any other value."""
    entries = iter(key)

    def stand_in(code):
        return code and FunctionType(code, {}, "rhs", None, tuple(
            CellType(stand_in(next(entries))) for _ in code.co_freevars))
    return stand_in(next(entries))


@functools.cache
def _rk4_loop(m, key=None):
    """`bind` of the RK4 loop for states of length m, generated from
    `_LOOP_TEMPLATE`: without `key`, `bind(rhs)` gives the loop that calls
    `rhs` at each stage. With the `_loop` key of a law, each stage's call of
    `rhs` is written out as the law's statements, and the calls of laws in
    those in turn (see `_Splice`), and `bind(rhs, *values)` binds them to
    the values of its `_tree`; the step reads them, and the operations that
    `_Hoist` takes out of it, from locals computed once per call. A stage
    writes its time `tau` only where it reads it.
    """
    y, s, k1, k2, k3, k4 = ([f"{p}{j}" for j in range(m)] for p in "ysabcd")
    results = key and _tuple_names(ast.parse(_LAWS[key[0]][2], mode="eval").body)
    checked = results is None or len(results) != m
    names, prologue, namespace = ["rhs"], "", {}
    if key is not None:
        # the loop serves every run of the key, so the stand-ins hold no run's values
        law = _stand_in(key)
        splice = _Splice({"rhs": law}, _names(_rk4_loop(m).__code__))
    steps = []
    for time, state, out in zip(("t", "t + half", "t + half", "t + h"),
                                (y, [f"{a} + half * {b}" for a, b in zip(y, k1)],
                                 [f"{a} + half * {b}" for a, b in zip(y, k2)],
                                 [f"{a} + h * {b}" for a, b in zip(y, k3)]), (k1, k2, k3, k4)):
        tau, *stage = ast.parse((_FIRST_STAGE if out is k1 and checked else _STAGE).format(
            time=time, slots="".join(f"{a} = {b}\n" for a, b in zip(s, state)), s=_tup(s),
            out=_tup(out), m=m)).body
        if key is not None:
            stage = [new for stmt in stage for new in splice.statement(stmt)]
        if any(isinstance(node, ast.Name) and node.id == "tau"
               for stmt in stage for node in ast.walk(stmt)):
            steps.append(tau)
        steps += stage
    steps += ast.parse("".join(f"{a} = {a} + sixth * ({b1} + 2.0 * ({b2} + {b3}) + {b4})\n"
                               for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))).body
    if key is not None:
        # a law that stays a call leaves its values unread
        names += [splice.names.get(fn, {}).get(name) or splice.fresh(name)
                  for fn, name, _ in _tree(law)]
        # the builtins the law reads under a name that the loop takes
        namespace = {name: value for name, value in splice.values.items() if name not in names}
        # locals are cheaper to read than a closure cell or a global
        hoist = _Hoist(splice.values, splice.fresh)
        steps = [hoist.visit(stmt) for stmt in steps]
        prologue = "".join(f"        {name} = {text}\n" for text, name in hoist.prologue.items())
    tree = ast.parse(_LOOP_TEMPLATE.format(
        names=", ".join(names), prologue=prologue, y=_tup(y), total=" + ".join(y) or "0.0",
        ylist="".join(f"{a}, " for a in y), s=_tup(s)))
    # as syntax trees, the statements are not unparsed and parsed again
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    loop.body[:1] = steps
    # native doubles, the layout of a C-contiguous float64 row
    row = struct.Struct(f"{m}d")
    namespace.update(isfinite=math.isfinite, BlowUpError=BlowUpError,
                     pack_row=row.pack_into, row_bytes=row.size)
    exec(compile(ast.fix_missing_locations(tree), f"<rk4 loop, m={m}>", "exec"), namespace)
    return namespace["bind"]


def _loop(rhs, m):
    """The RK4 loop that steps `rhs` on states of length m: a law written out
    with the laws of its `_tree`, bound to its values; any other callable
    called, and so is a law whose tree holds a value that is not a float or
    a callable, since `_Hoist`'s prologue is exact on floats only. The loop
    of a law is keyed on the codes of the laws of its tree, with None for
    any other value, so the runs of one text share a loop whatever their
    values."""
    values = [value for *_, value in _tree(rhs)] if _law_code(rhs) else None
    if values is None or not all(type(v) is float or callable(v) for v in values):
        return _rk4_loop(m)(rhs)
    return _rk4_loop(m, (rhs.__code__, *map(_law_code, values)))(rhs, *values)


def prepare(rhs, m):
    """Generate the RK4 loop that steps `rhs` on states of length m, and
    step nothing: a process that forks after it hands the loop to its
    children, which step `rhs`, or another run of its text, without
    generating it."""
    _loop(rhs, m)


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
