"""The seeking laws, each stated once as source text by `define_laws`: the
function it compiles and the statements that `_Splice` writes a call to it
out as give the same floats and raise the same errors, and an RK4 loop
writes out the laws that a runner's function calls under names of its own."""
import ast
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from surgeseek.averaging import es_surge_self_product
from surgeseek.costs import log_bowl_cost, quadratic_cost, rotated_quadratic_cost
from surgeseek.dither import EsGains, surge_law
from surgeseek.integrator import (_LAWS, BlowUpError, IntegratorSettings, _loop, _Splice,
                                  define_laws, integrate)
from surgeseek.vehicle import model_rhs, reference_boat


def loop_calls(rhs):
    """The free names of the RK4 loop that steps `rhs` whose values are
    `rhs` itself or a registered law."""
    loop = _loop(rhs, 6)
    return [name for name, cell in zip(loop.__code__.co_freevars, loop.__closure__)
            if name == "rhs" or getattr(cell.cell_contents, "__code__", None) in _LAWS]


def _written_out(law, targets, args):
    """The values that the statement `targets = law(...)` on `args`, written
    out by `_Splice`, leaves in `targets`, as a tuple."""
    names = [f"arg{j}" for j in range(len(args))]
    splice = _Splice({"law": law, **dict(zip(names, args))}, targets.split(", "))
    [stmt] = ast.parse(f"{targets} = law({', '.join(names)})").body
    statements = splice.statement(stmt)
    # no call of a law is left
    assert not [node for tree in statements for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and getattr(splice.values.get(node.func.id), "__code__", None) in _LAWS]
    namespace = dict(splice.values)
    exec(compile(ast.Module(statements, []), "<written out>", "exec"), namespace)
    return tuple(namespace[name] for name in targets.split(", "))


def _outcome(call):
    """What `call()` returns, as bits, or the type and arguments of what it
    raises."""
    try:
        value = call()
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        return type(exc), exc.args
    return struct.pack(f"{len(value)}d", *value)


positive = st.floats(0.1, 10.0)
offset = st.floats(-100.0, 100.0)
fields = (st.builds(quadratic_cost, positive, positive, offset, offset, st.floats(0.0, 5.0))
          | st.builds(rotated_quadratic_cost, positive, positive, offset, offset,
                      st.floats(0.0, 5.0), st.floats(-4.0, 4.0))
          | st.builds(log_bowl_cost, positive, positive, offset, offset, st.floats(0.0, 5.0)))


@st.composite
def laws(draw):
    """A registered law with drawn parameters, and the names its result is
    assigned to."""
    field = draw(fields)
    gains = draw(st.builds(EsGains, st.floats(0.0, 10.0), positive, positive))
    return draw(st.sampled_from([
        (field.value, "dx"), (field.gradient, "dx, dy"), (surge_law(gains), "dx"),
        (es_surge_self_product(reference_boat(), gains.k, field), "dx")]))


# any float, the overflowing and the non-finite ones included
anything = st.floats() | st.sampled_from([1e152, -1e152, 1e200, 1e308])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(laws(), st.tuples(anything, anything, anything, anything))
@example((quadratic_cost().value, "dx"), (1e152, 0.0, 0.0, 0.0))
@example((quadratic_cost().value, "dx"), (1e200, 0.0, 0.0, 0.0))
@example((log_bowl_cost().gradient, "dx, dy"), (1e152, 0.0, 0.0, 0.0))
@example((es_surge_self_product(reference_boat(), 1.0, log_bowl_cost()), "dx"),
         (1e200, 0.0, 1.0, 0.0))
def test_a_written_out_law_gives_the_floats_and_errors_of_its_function(law, args):
    fn, targets = law
    n = len(targets.split(","))
    args = args[:len(_LAWS[fn.__code__][0])]

    def called():
        result = fn(*args)
        return result if n > 1 else (result,)

    assert _outcome(lambda: _written_out(fn, targets, args)) == _outcome(called)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fields, anything, anything)
@example(quadratic_cost(), 1e152, 0.0)
@example(quadratic_cost(), 1e200, 0.0)
@example(log_bowl_cost(), 1e152, 0.0)
@example(log_bowl_cost(), 0.0, 1e200)
def test_a_fields_value_gradient_is_its_value_and_gradient(field, x, y):
    # the one law computes what the two share once: the same floats, or the
    # same error
    assert _outcome(lambda: field.value_gradient(x, y)) == _outcome(
        lambda: (field.value(x, y), *field.gradient(x, y)))


@pytest.mark.parametrize("x, y", [(0.3, -1.7), (-1.05, 0.76), (-40.0, 60.0), (2.0, 3.0)])
def test_the_fields_laws_give_the_floats_of_their_formulas(x, y):
    # each formula in its operation order; the log bowl's denominator adds
    # the form's terms to 1.0 one at a time
    a, b, xs, ys, floor, angle = 1.3, 0.7, 2.0, 3.0, 0.5, 0.4
    qx, qy = a * (x - xs) ** 2, b * (y - ys) ** 2
    c, s = math.cos(angle), math.sin(angle)
    p, q = c * (x - xs) + s * (y - ys), -s * (x - xs) + c * (y - ys)
    formulas = {
        quadratic_cost(a, b, xs, ys, floor):
            (qx + qy + floor, 2.0 * a * (x - xs), 2.0 * b * (y - ys)),
        log_bowl_cost(a, b, xs, ys, floor):
            (math.log1p(qx + qy) + floor, 2.0 * a * (x - xs) / (1.0 + qx + qy),
             2.0 * b * (y - ys) / (1.0 + qx + qy)),
        rotated_quadratic_cost(a, b, xs, ys, floor, angle):
            (a * p * p + b * q * q + floor, 2.0 * a * p * c - 2.0 * b * q * s,
             2.0 * a * p * s + 2.0 * b * q * c),
    }
    for field, want in formulas.items():
        want = struct.pack("3d", *want)
        assert struct.pack("3d", field.value(x, y), *field.gradient(x, y)) == want
        assert struct.pack("3d", *field.value_gradient(x, y)) == want


def test_a_law_is_written_out_under_names_its_text_does_not_take():
    # the field's locals dx and dy are two of the model's rates, and its
    # closure values a and c are two of the values
    field = rotated_quadratic_cost()
    values = {"value": field.value, "a": 5.0, "c": -0.7}
    inputs = "u1 = value(x, y)\nu1 = u1 + a\nu2 = c\n"
    spliced = model_rhs(reference_boat(), inputs, values)
    called = model_rhs(reference_boat(), inputs,
                       {**values, "value": lambda x, y: field.value(x, y)})
    assert loop_calls(spliced) == []
    assert "value" in _loop(called, 6).__code__.co_freevars
    initial = (0.5, -0.3, 0.2, 0.1, 0.4, 0.3)
    settings = IntegratorSettings(step=0.01, tf=1.0)
    got = integrate(spliced, initial, settings)
    assert got.states.tobytes() == integrate(called, initial, settings).states.tobytes()


@pytest.mark.parametrize("after", [
    # the product before the call is evaluated first and can raise: the
    # law's statements cannot run before it
    "dx = vx ** 2 + law(x, y)\n",
    # keywords are not bound
    "dx = law(x, y=y)\n",
    # a call inside an expression is not written out
    "dx = law(x, y) + vx\n",
])
def test_a_law_called_after_an_operation_stays_a_call(after):
    rhs = model_rhs(reference_boat(), "u1 = 0.0\nu2 = 0.0\n", {"law": quadratic_cost().value},
                    after=after)
    assert loop_calls(rhs) == ["law"]
    with pytest.raises(BlowUpError) as info:
        integrate(rhs, (1e200, 0.0, 0.0, 1e200, 0.0, 0.0), IntegratorSettings(step=0.1, tf=0.1))
    assert type(info.value.__cause__) is OverflowError


@pytest.mark.parametrize("source", [
    "def f(x):\n    if x:\n        return 1.0\n    return 2.0\n",
    "def f(x, y=1.0):\n    return x + y\n",
    "def f(x):\n    g = lambda: x\n    return g()\n",
])
def test_a_law_that_is_not_straight_line_is_refused(source):
    with pytest.raises(ValueError, match="is not positional parameters, assignments"):
        define_laws(source, ())
