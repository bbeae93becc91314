"""The runners' right-hand sides, compiled from `vehicle.MODEL` by
`model_rhs` without the vessel's zero damping products. They step the same
floats as the closures that call `dynamics_rhs`, and they keep the loop's
blow-up rule."""
import ast
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import surgeseek.scenario as sc
from surgeseek.averaging import AVERAGED_STEPS
from surgeseek.costs import get_field
from surgeseek.dither import EsGains
from surgeseek.integrator import _LAWS, BlowUpError, IntegratorSettings, _loop, integrate
from surgeseek.vehicle import (MODEL, RATES, SLOTS, VehicleParams, constants, dynamics_rhs,
                               model_rhs, reference_boat)

from oracles import averaged_closure, full_closure
from test_integrator import loop_text, stepped
from test_laws import loop_calls

# per runner: its integration, the closure it replaced, and its step
RUNNERS = {
    "full": (sc._integrate_full, full_closure, sc._full_step),
    "averaged": (sc._integrate_averaged, averaged_closure,
                 lambda scenario: scenario.horizon / AVERAGED_STEPS),
}


def _scenario(field="quadratic"):
    return sc.Scenario(vehicle=reference_boat(), cost=get_field(field),
                       gains=EsGains(k=1.0, c=1.0, epsilon=0.1),
                       initial=np.array([0.5, -0.3, 0.2, 0.1, 0.0, 0.3]), horizon=2.0)


def _settings(runner, scenario):
    return IntegratorSettings(step=RUNNERS[runner][2](scenario), tf=scenario.horizon)


@pytest.mark.parametrize("field", ["quadratic", "rotated_quadratic", "log_bowl"])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_the_runners_step_the_closures_floats(runner, field):
    scenario = _scenario(field)
    run, closure, _ = RUNNERS[runner]
    got = run(scenario)
    reference = integrate(closure(scenario), scenario.initial, _settings(runner, scenario))
    assert got.states.tobytes() == reference.states.tobytes()
    assert got.t.tobytes() == reference.t.tobytes()


def _with_value(scenario, value):
    return replace(scenario, cost=replace(scenario.cost, value=value))


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_an_overflow_in_a_runner_at_any_stage_is_a_blow_up(runner, stage):
    # each runner measures the cost once per stage; the measurement
    # overflows on its own at the given stage of step 2
    scenario = _scenario()
    value = scenario.cost.value
    calls, raised = [], []

    def overflowing(x, y):
        calls.append((x, y))
        if len(calls) == 4 * 2 + stage:
            try:
                1e200 ** 2
            except OverflowError as exc:
                raised.append(exc)
                raise
        return value(x, y)

    run = RUNNERS[runner][0]
    with pytest.raises(RuntimeError) as info:
        run(_with_value(scenario, overflowing))
    blow_up = info.value.__cause__
    assert isinstance(blow_up, BlowUpError)
    assert blow_up.time == _settings(runner, scenario).step * 3
    assert blow_up.state.tobytes() == run(scenario).states[2].tobytes()
    assert blow_up.__cause__ is raised[0]


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_value_error_on_a_finite_slot_state_propagates(runner, stage):
    scenario = _scenario()
    value = scenario.cost.value
    calls = []
    error = ValueError("math domain error")

    def failing(x, y):
        calls.append((x, y))
        if len(calls) == 4 + stage:
            raise error
        return value(x, y)

    with pytest.raises(RuntimeError) as info:
        RUNNERS[runner][0](_with_value(scenario, failing))
    assert info.value.__cause__ is error
    assert error.__cause__ is None


COUPLED = VehicleParams(1.0, 2.0, 0.5, np.array([[2.0, 0.3, 0.1], [0.3, 3.0, 0.2],
                                                [0.1, 0.2, 1.0]]))
# sway-yaw coupling alone: its text leaves out four of the nine products
PARTLY_COUPLED = VehicleParams(1.0, 2.0, 0.5, np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.2],
                                                       [0.0, 0.2, 1.0]]))
OTHER_DIAGONAL = VehicleParams.diagonal(1.0, 2.0, 0.5, 2.0, 3.0, 1.0)


@pytest.mark.parametrize("p", [reference_boat(), COUPLED], ids=["boat", "coupled"])
def test_model_rhs_gives_the_floats_of_dynamics_rhs(p):
    rhs = model_rhs(p, "u1 = surge(tau)\nu2 = c\n", {"surge": lambda t: 3.0 * t, "c": -0.7})
    rng = np.random.default_rng(25)
    for t, state in zip(rng.uniform(-2.0, 2.0, 50).tolist(),
                        rng.uniform(-3.0, 3.0, (50, 6)).tolist()):
        assert rhs(t, tuple(state)) == dynamics_rhs(p, tuple(state), (3.0 * t, -0.7))


def test_one_compile_serves_every_run_of_a_text():
    # the text is the input statements and the model without the vessel's
    # zero damping products: a sweep's runs, which share one vessel, differ
    # in their values only, and every diagonal vessel has one pattern
    def rhs(p, c):
        return model_rhs(p, "u1 = 0.0\nu2 = c\n", {"c": c})

    boat = rhs(reference_boat(), 1.0)
    for other in (rhs(reference_boat(), 2.0), rhs(OTHER_DIAGONAL, 1.0)):
        assert other.__code__ is boat.__code__
        assert other(0.0, (0.0,) * 6) != boat(0.0, (0.0,) * 6)
    assert rhs(COUPLED, 2.0).__code__ is not boat.__code__


def test_one_loop_serves_every_run_of_a_text():
    # the loop that writes a text out is generated once per text and bound
    # to each run's values; it calls no rhs
    def loop(p, c):
        return _loop(model_rhs(p, "u1 = 0.0\nu2 = c\n", {"c": c}), 6)

    boat = loop(reference_boat(), 1.0)
    assert "rhs" not in boat.__code__.co_freevars
    for other in (loop(reference_boat(), 2.0), loop(OTHER_DIAGONAL, 1.0)):
        assert other.__code__ is boat.__code__
        assert other is not boat
    assert loop(COUPLED, 2.0).__code__ is not boat.__code__


def _stepped_rhs(runner, scenario, monkeypatch):
    """The function that `runner` hands `integrate` for `scenario`."""
    stepped = []
    with monkeypatch.context() as patch:
        patch.setattr(sc, "integrate", lambda rhs, *_: stepped.append(rhs))
        RUNNERS[runner][0](scenario)
    [rhs] = stepped
    return rhs


@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_the_boats_runners_read_no_off_diagonal_damping_entry(runner, monkeypatch):
    # the six zero products of a diagonal vessel are left out of the
    # function the loop steps, so its closure holds the diagonal entries
    # only, and so does the loop that writes that function out
    rhs = _stepped_rhs(runner, _scenario(), monkeypatch)
    damping = {name for name in rhs.__code__.co_freevars if name[0] == "d"}
    assert damping == {"d11", "d22", "d33"}
    code = _loop(rhs, 6).__code__
    names = {*code.co_freevars, *code.co_varnames, *code.co_names}
    assert {name for name in names if re.fullmatch(r"d\d\d", name)} == {"d11", "d22", "d33"}


def _with_gains(scenario, **gains):
    return replace(scenario, gains=replace(scenario.gains, **gains))


@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_runner_compiles_one_text_whatever_the_field(runner, monkeypatch):
    # the text calls the field's laws by name; the loop writes them out
    quadratic, *others = [_stepped_rhs(runner, _scenario(field), monkeypatch)
                          for field in ("quadratic", "rotated_quadratic", "log_bowl")]
    for other in others:
        assert other.__code__ is quadratic.__code__


@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_one_loop_serves_every_k_of_a_field_and_one_per_field(runner, monkeypatch):
    def loop(field, k):
        return _loop(_stepped_rhs(runner, _with_gains(_scenario(field), k=k), monkeypatch), 6)

    quadratic = loop("quadratic", 1.0)
    assert loop("quadratic", 2.0).__code__ is quadratic.__code__
    for field in ("rotated_quadratic", "log_bowl"):
        assert loop(field, 1.0).__code__ is not quadratic.__code__


def test_a_warm_run_at_another_k_or_c_parses_no_text(monkeypatch):
    # its text, its compile and its loop are those of the run before it
    scenario = _scenario()
    runs = (sc._integrate_full, sc._integrate_averaged)
    for run in runs:
        run(scenario)
    parse, parsed = ast.parse, []

    def counting(*args, **kwargs):
        parsed.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    for run in runs:
        for gains in ({"k": 2.0}, {"c": 0.5}):
            run(_with_gains(scenario, **gains))
    assert parsed == []


@pytest.mark.parametrize("field", ["quadratic", "rotated_quadratic", "log_bowl"])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_the_runners_write_out_their_laws_and_the_loop_writes_out_the_runners(
        runner, field, monkeypatch):
    # the loop writes out the runner's text, and in it the surge law, the self
    # product and the field's value and gradient
    rhs = _stepped_rhs(runner, _scenario(field), monkeypatch)
    assert loop_calls(rhs) == []
    # a wrapped field is called by the loop
    value = _scenario(field).cost.value

    def wrapper(x, y):
        return value(x, y)

    wrapped = _stepped_rhs(runner, _with_value(_scenario(field), wrapper), monkeypatch)
    assert loop_calls(wrapped) == []
    loop = _loop(wrapped, 6)
    cells = dict(zip(loop.__code__.co_freevars, loop.__closure__))
    assert cells["value"].cell_contents is wrapper


@pytest.mark.parametrize("field", ["quadratic", "rotated_quadratic", "log_bowl"])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_wrapped_runner_rhs_steps_the_bytes_of_the_written_out_one(runner, field,
                                                                    monkeypatch):
    # a lambda is stepped by calls, the runner's own function written out
    scenario = _scenario(field)
    rhs = _stepped_rhs(runner, scenario, monkeypatch)
    assert "rhs" not in _loop(rhs, 6).__code__.co_freevars
    settings = _settings(runner, scenario)
    bare = integrate(rhs, scenario.initial, settings)
    wrapped = integrate(lambda tau, state: rhs(tau, state), scenario.initial, settings)
    assert bare.states.tobytes() == wrapped.states.tobytes()


@pytest.mark.parametrize("slot, value", [("om", 1e308), ("x", 1e152)])
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_written_out_runner_blows_up_as_a_called_one(runner, slot, value, monkeypatch):
    # a spin of 1e308 feeds an infinite heading to math.cos, which raises a
    # ValueError on a slot state that is not finite; far out, the cost
    # overflows. Either way the written-out loop and the called one report
    # the same step and cause
    initial = _scenario().initial.copy()
    initial[SLOTS.index(slot)] = value
    scenario = replace(_scenario(), initial=initial)
    rhs = _stepped_rhs(runner, scenario, monkeypatch)
    blow_ups = []
    for stepped in (rhs, lambda tau, state: rhs(tau, state)):
        with pytest.raises(BlowUpError) as info:
            integrate(stepped, initial, _settings(runner, scenario))
        blow_ups.append(info.value)
    bare, wrapped = blow_ups
    assert bare.time == wrapped.time == _settings(runner, scenario).step
    assert bare.state.tobytes() == wrapped.state.tobytes() == initial.tobytes()
    assert type(bare.__cause__) is type(wrapped.__cause__)
    assert type(bare.__cause__) is (ValueError if runner == "averaged" else OverflowError)


@pytest.mark.parametrize("inputs, after, values", [
    # reads the loop's step, its stage state and its time
    ("u1 = half * tau\nu2 = c\n", "", {"half": 0.5, "c": -0.7}),
    ("u1 = state[3] * t\nu2 = c\n", "", {"t": 2.0, "c": -0.7}),
    # writes the loop's time and one of its first stage's rates
    ("u1 = 0.3\nu2 = c\n", "t = dvx\na0 = t\ndvx = dvx - a0 * a0\n", {"c": -0.7}),
    # both, in statements with no trailing newline
    ("u1 = half * tau\nu2 = c", "t = dvx\na0 = t\ndvx = dvx - a0 * a0", {"half": 0.5, "c": -0.7}),
])
def test_a_text_naming_a_loop_name_is_written_out_under_fresh_names(inputs, after, values):
    # such a text is written out into the loop under names the loop does not
    # take, and steps the bytes of any other callable
    rhs = model_rhs(reference_boat(), inputs, values, after=after)
    assert loop_calls(rhs) == []
    initial = np.array([0.5, -0.3, 0.2, 0.1, 0.0, 0.3])
    settings = IntegratorSettings(step=0.01, tf=1.0)
    got = integrate(rhs, initial, settings)
    want = integrate(lambda tau, state: rhs(tau, state), initial, settings)
    assert got.states.tobytes() == want.states.tobytes()


@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_state_of_the_wrong_length_raises_the_error_of_a_called_runner(runner, monkeypatch):
    # written out, the runner unpacks the stage state into its slots as its
    # function does, and so fails as a lambda that calls it
    rhs = _stepped_rhs(runner, _scenario(), monkeypatch)
    initial = _scenario().initial[:5]
    errors = []
    for stepped in (rhs, lambda tau, state: rhs(tau, state)):
        with pytest.raises(ValueError) as info:
            integrate(stepped, initial, _settings(runner, _scenario()))
        errors.append(info.value)
    assert "rhs" not in _loop(rhs, 5).__code__.co_freevars
    assert [type(e) for e in errors] == [ValueError, ValueError]
    assert errors[0].args == errors[1].args == ("not enough values to unpack (expected 6, got 5)",)


nonzero = st.floats(-5.0, 5.0, allow_subnormal=False).filter(bool)
positive = st.floats(0.2, 5.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.builds(VehicleParams.diagonal, *[positive] * 6)
       | st.sampled_from([PARTLY_COUPLED, COUPLED]),
       st.tuples(*[nonzero] * 8), st.tuples(*[st.sampled_from([None, 0.0, -0.0])] * 8))
def test_model_rhs_equals_dynamics_rhs_on_any_state(p, slots, zeroed):
    # leaving a product 0.0 * v out of a sum can change only the sign of a
    # zero sum: the rates are bit for bit those of `dynamics_rhs` when no
    # slot is zero, and equal as floats when some are exact +-0.0
    def rates(slots):
        rhs = model_rhs(p, "u1 = f\nu2 = c\n", {"f": slots[6], "c": slots[7]})
        return rhs(0.0, slots[:6]), dynamics_rhs(p, slots[:6], slots[6:])

    got, want = rates(slots)
    assert struct.pack("6d", *got) == struct.pack("6d", *want)
    got, want = rates(tuple(v if z is None else z for v, z in zip(slots, zeroed)))
    assert got == want


FIELDS = ["quadratic", "rotated_quadratic", "log_bowl"]


def _runner_text(runner, field, monkeypatch):
    return loop_text(_stepped_rhs(runner, _scenario(field), monkeypatch), monkeypatch)


@pytest.mark.parametrize("field", FIELDS)
def test_the_full_loop_calls_the_dither_cosine_four_times_per_step(field, monkeypatch):
    # once per stage: stages 2 and 3 share their time, but computing its
    # cosine once for both saved at most 2% of the full loop's time
    text = _runner_text("full", field, monkeypatch)
    assert len(re.findall(r"\bcos\w*\(\w+ \* inv_eps\w*\)", text)) == 4


def _invariant(node, bound):
    """Whether `node` is a name of `bound`, a constant, or +, -, * or unary -
    of such."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)) and _invariant(
            node.left, bound) and _invariant(node.right, bound)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _invariant(node.operand, bound)
    return isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id in bound


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_a_runners_step_computes_no_operation_of_bound_values(runner, field, monkeypatch):
    # the vessel's -m11 and m22 - m11 and the fields' 2.0 * a and -s are
    # computed once per call of the loop, before its steps; bound are the
    # loop's values and the locals set before the steps and not in them
    [bind] = ast.parse(_runner_text(runner, field, monkeypatch)).body
    rk4_loop = bind.body[0]
    loop = next(node for node in ast.walk(rk4_loop) if isinstance(node, ast.For))
    stored = {node.id for node in ast.walk(loop)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound = {arg.arg for arg in bind.args.args} | {
        target.id for stmt in rk4_loop.body if isinstance(stmt, ast.Assign)
        for target in stmt.targets if isinstance(target, ast.Name)} - stored
    assert [ast.unparse(node) for node in ast.walk(loop)
            if isinstance(node, (ast.BinOp, ast.UnaryOp)) and _invariant(node, bound)] == []


@pytest.mark.parametrize("field", FIELDS)
def test_an_averaged_stage_calls_cos_and_sin_once_and_stores_no_time(field, monkeypatch):
    # the model's cos(th) and sin(th) and the self product's cosine and
    # sine of the heading are math.cos and math.sin of one float; nothing
    # reads the stage time
    text = _runner_text("averaged", field, monkeypatch)
    for fn in ("cos", "sin"):
        assert len(re.findall(rf"\b{fn}(_\d+)*\(", text)) == 4
    assert "tau" not in text


def test_a_log_bowl_averaged_stage_squares_each_offset_once(monkeypatch):
    # the value's two ** terms are those of the gradient's denominator
    assert _runner_text("averaged", "log_bowl", monkeypatch).count(" ** ") == 4 * 2


def test_a_rotated_averaged_stage_computes_the_offset_and_its_axes_once(monkeypatch):
    # the value and the gradient compute dx, dy, p and q of one position
    text = _runner_text("averaged", "rotated_quadratic", monkeypatch)
    for star in ("x_star", "y_star"):
        assert len(re.findall(rf"- {star}(_\d+)*\b", text)) == 4
    # p = c * dx + s * dy and q = -s * dx + c * dy
    assert len(re.findall(r"= c\w* \* dx\w* \+ s\w* \* dy", text)) == 4
    assert len(re.findall(r"\* dx\w* \+ c\w* \* dy", text)) == 4


@pytest.mark.parametrize("runner", ["full", "averaged"])
def test_an_impure_callable_is_called_at_every_stage(runner, monkeypatch):
    # a counting wrapper of math.cos, given to the model as cos, is no
    # function of math: the loop calls it once per stage, and steps the
    # bytes of the runner without it
    scenario = replace(_scenario(), horizon=0.2)
    calls = []

    def counting(x):
        calls.append(x)
        return math.cos(x)

    run = RUNNERS[runner][0]
    want = run(scenario)
    with monkeypatch.context() as patch:
        patch.setattr(sc, "model_rhs", lambda p, inputs, values, after="": model_rhs(
            p, inputs, {**values, "cos": counting}, after))
        got = run(scenario)
    assert len(calls) == 4 * (len(got.t) - 1)
    assert got.states.tobytes() == want.states.tobytes()


def test_an_operand_reassigned_between_two_equal_expressions_is_read_anew(monkeypatch):
    # w + tau is computed twice per stage: w changes in between
    inputs = "w = vx * om\nu1 = w + tau\nw = w * 0.5\nu2 = w + tau\n"
    rhs = model_rhs(reference_boat(), inputs, {})
    assert len(re.findall(r"\bw \+ t(au)?\b", loop_text(rhs, monkeypatch))) == 4 * 2
    initial = np.array([0.5, -0.3, 0.2, 0.1, 0.0, 0.3])
    settings = IntegratorSettings(step=0.01, tf=1.0)
    assert stepped(rhs, initial, settings) == stepped(lambda tau, state: rhs(tau, state),
                                                      initial, settings)


huge = st.sampled_from([1e152, -1e152, 1e200, 1e308, -1e308])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["full", "averaged"]),
       st.tuples(*[st.floats(-3.0, 3.0)] * 6),
       st.none() | st.tuples(st.integers(0, 5), huge),
       st.floats(0.0, 5.0), st.floats(0.1, 5.0), st.floats(0.05, 1.0),
       st.builds(VehicleParams.diagonal, *[positive] * 6))
def test_a_written_out_runner_steps_what_its_wrapped_self_steps(field, runner, initial, far,
                                                                 k, c, epsilon, vessel):
    # the same bytes, or the same blow-up: its time, its state and the type
    # of its cause, on any vessel (m22 - m11 of either sign)
    initial = list(initial)
    if far is not None:
        initial[far[0]] = far[1]
    scenario = replace(_scenario(field), vehicle=vessel,
                       gains=EsGains(k=k, c=c, epsilon=epsilon))
    rhs = {"full": sc._full_rhs, "averaged": sc._averaged_rhs}[runner](scenario)
    step = RUNNERS[runner][2](scenario)
    settings = IntegratorSettings(step=step, tf=40 * step)
    assert stepped(rhs, initial, settings) == stepped(lambda tau, state: rhs(tau, state),
                                                      initial, settings)


def test_constants_names_every_name_the_model_reads():
    # module-level code keeps every name it loads or stores in co_names
    names = set(compile(MODEL, "<model>", "exec").co_names)
    read = {"th", "vx", "vy", "om", "u1", "u2", *constants(reference_boat())}
    assert names == read | {"cth", "sth", *RATES}
