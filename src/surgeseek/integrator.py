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
Any other callable is called. Then one value-numbering pass runs over a
law's written-out step (see `_Numbering`): within one step a pure
expression is computed once while its operands keep their values; names
bound to one object are one operand; only `math`'s functions and arithmetic
are pure. A repeat reads the name that holds the first result, which runs
where it ran, so the floats and the errors are those of the written-out
step; the step reads each value from a local bound once per call of the
loop. The loop is generated once per state length and `_loop` key (the tree
of law codes, the pure functions and which values share a closure cell),
and cached. It takes a range of steps, so
`step_rows` can step one run in consecutive ranges of rows with the bits of
one `integrate`, and the rows already stepped can be read in between.

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
from types import BuiltinFunctionType, CellType, CodeType, FunctionType

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
    ValueError for a law of any other form.
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


# math's functions of numbers, by id: a call of one on the same operands
# gives the same float, or raises the same error, again. Those of an
# iterable are left out: a list keeps its identity while its items change
_PURE = {id(fn): fn for name, fn in vars(math).items() if isinstance(fn, BuiltinFunctionType)
         and name not in ("fsum", "prod", "dist", "sumprod")}

# the expressions whose every evaluation evaluates each of their operands, in
# field order; `_Numbering` numbers the operands of these and of arithmetic
_EVALUATED = (ast.Call, ast.Tuple, ast.List, ast.Subscript)


class _Numbering(ast.NodeTransformer):
    """Local value numbering (Briggs, Cooper and Simpson, "Value Numbering",
    Software: Practice and Experience 1997) of the statements of one RK4
    step, in order: within the step a pure expression is computed once while
    its operands keep their values; names bound to one object are one
    operand; only `math`'s functions and arithmetic are pure.

    `values` maps each name the statements read that is not a loop local to
    its value, one object for names bound to one object, and `fresh` gives a
    name the loop does not take. A local is numbered by the number it holds,
    a value name by its object, a constant by its type and repr, and
    arithmetic (`BinOp`, `UnaryOp`) or a call of one of `_PURE` by its
    operation and its operands' numbers. Any other expression gets a new
    number and runs every time; only the operands of `_EVALUATED` ones are
    numbered inside it. So does every statement but an assignment to names:
    the names it stores get new numbers.

    An expression whose number the step computed before reads it: a local
    is read as the value name or constant it holds, or as the first local
    that still holds its number, and any other expression in turn as such a
    local, or as the name its first computation is made to store with `:=`.
    An assignment of the numbers its targets hold goes. Nothing is
    reordered: a repeat skips only an operation that has already run on the
    same operands and succeeded.
    """

    def __init__(self, values, fresh):
        self.values, self.fresh = values, fresh
        self.keys = {}          # an expression's key -> its number
        self.held = {}          # local -> the number it holds
        self.holders = collections.defaultdict(list)  # number -> the locals given it
        self.leaves = {}        # number -> the value name or constant node that reads it
        self.first = {}         # number -> the expression that computed it first, its statement
        self.stored = {}        # expression -> the name it is made to store with `:=`
        self.changed = set()    # the statements of those expressions
        self.numbers = {}       # node of the statement at hand -> its number

    def new(self, key=None):
        """The number of `key`, or a new number."""
        return self.keys.setdefault(object() if key is None else key, len(self.keys))

    def give(self, name, number):
        self.held[name] = number
        self.holders[number].append(name)
        return number

    def pure(self, node):
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Name) and not node.keywords
                    and id(self.values.get(node.func.id)) in _PURE
                    and not any(isinstance(arg, ast.Starred) for arg in node.args))
        return isinstance(node, (ast.BinOp, ast.UnaryOp))

    def number(self, node):
        """The number of the expression `node`, kept in `numbers` with those
        of the operands it evaluates."""
        if isinstance(node, ast.Name) and node.id in self.values:
            number = self.new(("value", id(self.values[node.id])))
            self.leaves.setdefault(number, node)
        elif isinstance(node, ast.Name):
            # a local the step has not assigned holds a value from before it
            number = self.held.get(node.id)
            if number is None:
                number = self.give(node.id, self.new())
        elif isinstance(node, ast.Constant):
            number = self.new(("constant", type(node.value), repr(node.value)))
            self.leaves.setdefault(number, node)
        elif isinstance(node, ast.Call) and self.pure(node):
            number = self.new((self.values[node.func.id], *map(self.number, node.args)))
        elif isinstance(node, ast.BinOp):
            number = self.new((type(node.op), self.number(node.left), self.number(node.right)))
        elif isinstance(node, ast.UnaryOp):
            number = self.new((type(node.op), self.number(node.operand)))
        else:
            if isinstance(node, _EVALUATED):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.expr):
                        self.number(child)
            number = self.new()
        self.numbers[node] = number
        return number

    def holder(self, number):
        return next((name for name in self.holders[number] if self.held.get(name) == number),
                    None)

    def read(self, number):
        """A name or constant that reads `number`, computed before."""
        leaf = self.leaves.get(number)
        if leaf is not None:
            return ast.Name(leaf.id, ast.Load()) if isinstance(leaf, ast.Name) else (
                ast.Constant(leaf.value))
        name = self.holder(number)
        if name is None:
            node, stmt = self.first[number]
            name = self.stored[node] = self.fresh("shared")
            self.changed.add(stmt)
            self.give(name, number)
        return ast.Name(name, ast.Load())

    def visit(self, node):
        number = self.numbers.get(node)
        if (number is None or isinstance(node, ast.Constant)
                or isinstance(node, ast.Name) and node.id in self.values):
            return node
        if number in self.leaves or number in self.first or self.holder(number) is not None:
            return ast.copy_location(self.read(number), node)
        self.generic_visit(node)
        if self.pure(node):
            self.first[number] = node, self.stmt
        return node

    def statement(self, stmt):
        """`stmt` with its expressions read where the step computed them
        before, or None where it stores the numbers its targets hold."""
        self.numbers, self.stmt = {}, stmt
        if not (isinstance(stmt, ast.Assign) and all(
                isinstance(target, ast.Name) or _tuple_names(target) is not None
                for target in stmt.targets)):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    self.give(node.id, self.new())
            return stmt
        value, numbers = stmt.value, []
        number = self.number(value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                numbers.append((target.id, number))
            elif isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts) and not any(
                    isinstance(element, ast.Starred) for element in value.elts):
                numbers += zip(_tuple_names(target), map(self.numbers.get, value.elts))
            else:
                numbers += [(name, self.new()) for name in _tuple_names(target)]
        if numbers and all(self.held.get(name) == number for name, number in numbers):
            return None
        stmt.value = self.visit(stmt.value)
        for name, number in numbers:
            self.give(name, number)
        return stmt


class _Store(ast.NodeTransformer):
    """Makes each expression of `stored` store its value under its name with `:=`."""

    def __init__(self, stored):
        self.stored = stored

    def visit(self, node):
        node = self.generic_visit(node)
        name = self.stored.get(node)
        if name is None:
            return node
        target = ast.copy_location(ast.Name(name, ast.Store()), node)
        return ast.copy_location(ast.NamedExpr(target, node), node)


def _plain(node):
    """Whether `node` is a name, a constant, or +, - or * of such."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)) and _plain(
            node.left) and _plain(node.right)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _plain(node.operand)
    return isinstance(node, (ast.Name, ast.Constant))


def _cannot_raise(stmt):
    """Whether the assignment `stmt` raises nothing: a `_plain` value stored
    under names, or a tuple of them unpacked to as many names."""
    value = stmt.value
    if not isinstance(value, ast.Tuple):
        return _plain(value) and all(isinstance(target, ast.Name) for target in stmt.targets)
    return all(map(_plain, value.elts)) and all(
        isinstance(target, ast.Name) or _tuple_names(target) is not None
        and len(target.elts) == len(value.elts) for target in stmt.targets)


def _numbered(steps, values, fresh, live):
    """The statements `steps` of one RK4 step after `_Numbering` with
    `values` and `fresh`, without the assignments that raise nothing and
    store names that nothing reads after them: no later statement of the
    step, and none of the names `live`, which the rest of the loop reads.
    They read each value under a local name of its own; returns them and
    the local name of each value they read."""
    numbering = _Numbering(values, fresh)
    steps = [stmt for stmt in map(numbering.statement, steps) if stmt is not None]
    store = _Store(numbering.stored)
    steps = [store.visit(stmt) if stmt in numbering.changed else stmt for stmt in steps]
    read, kept, local = set(live), [], {}
    for stmt in reversed(steps):
        names = [node for node in ast.walk(stmt) if isinstance(node, ast.Name)]
        stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        if isinstance(stmt, ast.Assign):
            if stored.isdisjoint(read) and _cannot_raise(stmt):
                continue
            # the rest of the loop can read `live` after any statement that raises
            read -= stored - live
        read |= {node.id for node in names if isinstance(node.ctx, ast.Load)}
        for node in names:
            if node.id in values:
                node.id = local.get(node.id) or local.setdefault(node.id, fresh(node.id))
        kept.append(stmt)
    return kept[::-1], local


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
        try:
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
    """(law, free variable, cell) of `law`'s closure, each law in it followed by its own."""
    for name, cell in zip(law.__code__.co_freevars, law.__closure__ or ()):
        yield law, name, cell
        if _law_code(cell.cell_contents):
            yield from _tree(cell.cell_contents)


def _stand_in(key):
    """A law with the `_loop` key `key`, whose tree holds no run's values: a
    function of each law's code, whose closure holds the stand-ins of the
    entries after it in `_tree`'s order, each pure function itself, and one
    new object per cell of the key's values."""
    entries, cells = iter(key), {}

    def stand_in(entry):
        if isinstance(entry, CodeType):
            return FunctionType(entry, {}, "rhs", None, tuple(
                CellType(stand_in(next(entries))) for _ in entry.co_freevars))
        return cells.setdefault(entry, object()) if isinstance(entry, int) else entry
    return stand_in(next(entries))


@functools.cache
def _rk4_loop(m, key=None):
    """`bind` of the RK4 loop for states of length m, generated from
    `_LOOP_TEMPLATE`: without `key`, `bind(rhs)` gives the loop that calls
    `rhs` at each stage. With the `_loop` key of a law, each stage's call of
    `rhs` is written out as the law's statements, and the calls of laws in
    those in turn (see `_Splice`), and `bind(rhs, *values)` binds them to
    the values of its `_tree`. Then one value-numbering pass runs over the
    written-out step (see `_Numbering`): within one step a pure expression
    is computed once while its operands keep their values; names bound to
    one object are one operand; only `math`'s functions and arithmetic are
    pure. An assignment that raises nothing and whose names nothing reads
    after it goes, and the step reads each value from a local that the loop
    binds once per call.
    """
    y, s, k1, k2, k3, k4 = ([f"{p}{j}" for j in range(m)] for p in "ysabcd")
    checked = key is None or len(
        _tuple_names(ast.parse(_LAWS[key[0]][2], mode="eval").body) or "*") != m
    steps = "".join((_FIRST_STAGE if out is k1 and checked else _STAGE).format(
        time=time, slots="".join(f"{a} = {b}\n" for a, b in zip(s, state)), s=_tup(s),
        out=_tup(out), m=m) for time, state, out in zip(
            ("t", "t + half", "t + half", "t + h"),
            (y, [f"{a} + half * {b}" for a, b in zip(y, k1)],
             [f"{a} + half * {b}" for a, b in zip(y, k2)],
             [f"{a} + h * {b}" for a, b in zip(y, k3)]), (k1, k2, k3, k4)))
    steps += "".join(f"{a} = {a} + sixth * ({b1} + 2.0 * ({b2} + {b3}) + {b4})\n"
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    steps, names, namespace = ast.parse(steps).body, ["rhs"], {}
    if key is not None:
        # the loop serves every run of the key, so the stand-ins hold no run's values
        law = _stand_in(key)
        splice = _Splice({"rhs": law}, _names(_rk4_loop(m).__code__))
        steps = [out for stmt in steps for out in splice.statement(stmt)]
        # a law that stays a call leaves its values unread
        names += [splice.names.get(fn, {}).get(name) or splice.fresh(name)
                  for fn, name, _ in _tree(law)]
        # the builtins the law reads under a name that the loop takes
        namespace = {name: value for name, value in splice.values.items() if name not in names}
    tree = ast.parse(_LOOP_TEMPLATE.format(
        names=", ".join(names), y=_tup(y), total=" + ".join(y) or "0.0",
        ylist="".join(f"{a}, " for a in y), s=_tup(s)))
    # as syntax trees, the statements are not unparsed and parsed again
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    if key is not None:
        steps, local = _numbered(steps, splice.values, splice.fresh, {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})
        # the step reads each value from a local bound once per call of the
        # loop, which is cheaper to read than a closure cell or a global
        rk4_loop = tree.body[0].body[0]
        rk4_loop.body[-1:-1] = ast.parse("".join(f"{name} = {value}\n"
                                                 for value, name in local.items())).body
    loop.body[:1] = steps
    # native doubles, the layout of a C-contiguous float64 row
    row = struct.Struct(f"{m}d")
    namespace.update(isfinite=math.isfinite, BlowUpError=BlowUpError,
                     pack_row=row.pack_into, row_bytes=row.size)
    exec(compile(tree, f"<rk4 loop, m={m}>", "exec"), namespace)
    return namespace["bind"]


def _loop(rhs, m):
    """The RK4 loop that steps `rhs` on states of length m: a law written out
    with the laws of its `_tree`, bound to its values; any other callable
    called. The loop of a law is keyed on its code and one entry per value
    of its tree: a law's code, a pure function itself (`_PURE`), and for any
    other value the position of the first value in the same closure cell.
    So the runs of one text share a loop whatever their values, and names
    that read one cell, such as a field's value and gradient do, are one
    operand in it."""
    if _law_code(rhs) is None:
        return _rk4_loop(m)(rhs)
    tree = [cell for *_, cell in _tree(rhs)]
    values = [cell.cell_contents for cell in tree]
    cells = {}
    key = [_law_code(value) or _PURE.get(id(value)) or cells.setdefault(id(cell), j)
           for j, (cell, value) in enumerate(zip(tree, values), 1)]
    return _rk4_loop(m, (rhs.__code__, *key))(rhs, *values)


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
