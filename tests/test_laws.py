"""The seeking laws, each stated once as source text by `define_laws`: the
function it compiles and the statements that `model_rhs` writes a call to
it out as give the same floats and raise the same errors."""
import ast
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from surgeseek.averaging import es_surge_self_product
from surgeseek.costs import log_bowl_cost, quadratic_cost, rotated_quadratic_cost
from surgeseek.dither import EsGains, surge_law
from surgeseek.integrator import _LAWS, define_laws
from surgeseek.vehicle import model_rhs, reference_boat


def law_calls(rhs):
    """The names through which the text of the `model_rhs` function `rhs`
    calls a registered law."""
    closure = dict(zip(rhs.__code__.co_freevars,
                       [cell.cell_contents for cell in rhs.__closure__]))
    return [node.func.id for node in ast.walk(ast.parse(_LAWS[rhs.__code__][1]))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and getattr(closure.get(node.func.id), "__code__", None) in _LAWS]


def _written_out(law, targets, after=None):
    """The rates of a `model_rhs` function whose `after` statements assign the
    law's result to `targets` from the slots x, y and vx; the heading is 0,
    so the model before them raises nothing on any float."""
    args = ", ".join(["x", "y", "vx"][:len(_LAWS[law.__code__][0])])
    after = after or f"{targets} = law({args})\n"
    return model_rhs(reference_boat(), "u1 = 0.0\nu2 = 0.0\n", {"law": law}, after=after)


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
    """A registered law with drawn parameters, and the rates its result goes to."""
    field = draw(fields)
    gains = draw(st.builds(EsGains, st.floats(0.0, 10.0), positive, positive))
    return draw(st.sampled_from([
        (field.value, "dx"), (field.gradient, "dx, dy"), (surge_law(gains), "dx"),
        (es_surge_self_product(reference_boat(), gains.k, field), "dx")]))


# any float, the overflowing and the non-finite ones included
anything = st.floats() | st.sampled_from([1e152, -1e152, 1e200, 1e308])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(laws(), st.tuples(anything, anything, anything))
@example((quadratic_cost().value, "dx"), (1e152, 0.0, 0.0))
@example((quadratic_cost().value, "dx"), (1e200, 0.0, 0.0))
@example((log_bowl_cost().gradient, "dx, dy"), (1e152, 0.0, 0.0))
@example((es_surge_self_product(reference_boat(), 1.0, quadratic_cost()), "dx"),
         (0.0, 0.0, float("inf")))
def test_a_written_out_law_gives_the_floats_and_errors_of_its_function(law, args):
    fn, targets = law
    rhs = _written_out(fn, targets)
    assert law_calls(rhs) == []
    n = len(targets.split(","))
    state = (args[0], args[1], 0.0, args[2], 0.0, 0.0)

    def called():
        result = fn(*args[:len(_LAWS[fn.__code__][0])])
        return result if n > 1 else (result,)

    assert _outcome(lambda: rhs(0.0, state)[:n]) == _outcome(called)


def test_a_law_is_written_out_under_names_its_text_does_not_take():
    # the field's locals dx and dy are two of the model's rates, and the
    # name the field's `a` would take first is one of the values
    field = rotated_quadratic_cost()
    values = {"value": field.value, "value_a": 5.0}
    spliced = model_rhs(reference_boat(), "u1 = value(x, y) + value_a\nu2 = 0.0\n", values)
    called = model_rhs(reference_boat(), "u1 = value(x, y) + value_a\nu2 = 0.0\n",
                       {**values, "value": lambda x, y: field.value(x, y)})
    assert law_calls(spliced) == []
    state = (0.5, -0.3, 0.2, 0.1, 0.4, 0.3)
    assert spliced(0.7, state) == called(0.7, state)


@pytest.mark.parametrize("after", [
    # the product before the call is evaluated first and can raise: the
    # law's statements cannot run before it
    "dx = vx ** 2 + law(x, y)\n",
    # keywords are not bound
    "dx = law(x, y=y)\n",
])
def test_a_law_called_after_an_operation_stays_a_call(after):
    rhs = _written_out(quadratic_cost().value, "dx", after=after)
    assert law_calls(rhs) == ["law"]
    state = (1e200, 0.0, 0.0, 1e200, 0.0, 0.0)
    with pytest.raises(OverflowError):
        rhs(0.0, state)


@pytest.mark.parametrize("source", [
    "def f(x):\n    if x:\n        return 1.0\n    return 2.0\n",
    "def f(x, y=1.0):\n    return x + y\n",
    "def f(x):\n    g = lambda: x\n    return g()\n",
])
def test_a_law_that_is_not_straight_line_is_refused(source):
    with pytest.raises(ValueError, match="is not positional parameters, assignments"):
        define_laws(source, ())
