import ast
import dis
import math
import re

import numpy as np
import pytest

from surgeseek import integrator
from surgeseek.integrator import (BlowUpError, IntegratorSettings, Trajectory, _loop,
                                  define_laws, hermite, integrate)


def loop_text(rhs, monkeypatch, m=6):
    """The text of the RK4 loop generated to step `rhs` on states of length m."""
    texts = []

    def compiling(tree, *args):
        texts.append(ast.unparse(tree))
        return compile(tree, *args)

    integrator._rk4_loop.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(integrator, "compile", compiling, raising=False)
        _loop(rhs, m)
    return texts[-1]


def stepped(rhs, initial, settings):
    """The states `integrate` steps, as bytes, or the time, the state's bytes
    and the cause's type of its blow-up."""
    try:
        return integrate(rhs, initial, settings).states.tobytes()
    except BlowUpError as exc:
        return exc.time, exc.state.tobytes(), type(exc.__cause__)


def comprehension_integrate(rhs, initial, settings):
    """The plain RK4 loop, one comprehension per stage: the oracle of the
    loop `integrate` generates for each state length."""
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
        k2 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k1)]))
        k3 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k2)]))
        k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
        y = tuple([a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        t = h * (i + 1)
        if not all(map(math.isfinite, y)):
            raise BlowUpError(t, states[i].copy())
        states[i + 1] = y
    return Trajectory(t=times, states=states)


def coupled_rhs(m, wrap):
    """A nonlinear, time-varying RHS on m states; `wrap` builds its output."""
    def rhs(t, y):
        return wrap([math.sin(t + j) - 0.5 * y[j] + 0.1 * y[j - 1] * y[(j + 1) % m]
                     for j in range(m)])
    return rhs


def test_zero_field_constant():
    traj = integrate(lambda t, y: np.zeros_like(y), np.array([1.0, -2.0]),
                     IntegratorSettings(step=0.1, tf=1.0))
    assert np.all(traj.states == traj.states[0])
    assert len(traj.t) == 11


def test_exponential():
    traj = integrate(lambda t, y: y, np.array([1.0]),
                     IntegratorSettings(step=1e-3, tf=1.0))
    assert traj.states[-1, 0] == pytest.approx(math.e, abs=1e-8)


def test_fourth_order_convergence():
    def err(h):
        traj = integrate(lambda t, y: y, np.array([1.0]),
                         IntegratorSettings(step=h, tf=1.0))
        return abs(traj.states[-1, 0] - math.e)

    ratio = err(0.1) / err(0.05)
    assert 14.0 <= ratio <= 18.0


def test_harmonic_energy_drift():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    traj = integrate(rhs, np.array([1.0, 0.0]),
                     IntegratorSettings(step=1e-3, tf=100.0))
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-6


def test_determinism():
    def rhs(t, y):
        return np.array([math.sin(t) - 0.1 * y[0]])

    settings = IntegratorSettings(step=1e-3, tf=2.0)
    a = integrate(rhs, np.array([0.3]), settings)
    b = integrate(rhs, np.array([0.3]), settings)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.t.tobytes() == b.t.tobytes()


def test_blow_up_reports_time():
    def rhs(t, y):
        return np.asarray(y) ** 2

    with np.errstate(over="ignore"), pytest.raises(BlowUpError) as info:
        integrate(rhs, np.array([1.0]), IntegratorSettings(step=0.01, tf=2.0))
    assert 0.9 < info.value.time <= 2.0
    assert "t=" in str(info.value)


def test_blow_up_carries_last_finite_state():
    # y' = 1 up to t = 0.5, then inf: the step from t = 0.5 to 0.6 is the
    # first to leave a non-finite state
    def rhs(t, y):
        return (1.0,) if t < 0.52 else (math.inf,)

    with pytest.raises(BlowUpError) as info:
        integrate(rhs, np.array([0.0]), IntegratorSettings(step=0.1, tf=1.0))
    assert info.value.time == pytest.approx(0.6)
    assert str(info.value) == "non-finite state encountered at t=0.6"
    assert isinstance(info.value.state, np.ndarray)
    assert info.value.state == pytest.approx([0.5], abs=1e-12)


def test_an_overflowing_rhs_is_a_blow_up_naming_its_time():
    # a float ** 2 raises where numpy would give inf: the first step's
    # second stage squares 1e100 + 0.05 * 1e200
    with pytest.raises(BlowUpError) as info:
        integrate(lambda t, y: (y[0] ** 2,), np.array([1e100]),
                  IntegratorSettings(step=0.1, tf=1.0))
    assert info.value.time == 0.1
    assert str(info.value) == "non-finite state encountered at t=0.1"
    assert info.value.state.tolist() == [1e100]
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_an_overflow_at_any_stage_is_a_blow_up(stage):
    # every stage state is finite; the RHS overflows on its own at the given
    # stage of step 2
    settings = IntegratorSettings(step=0.1, tf=1.0)
    calls, raised = [], []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 4 * 2 + stage:
            try:
                1e200 ** 2
            except OverflowError as exc:
                raised.append(exc)
                raise
        return (1.0, math.cos(y[0]))

    initial = np.zeros(2)
    with pytest.raises(BlowUpError) as info:
        integrate(rhs, initial, settings)
    assert info.value.time == 0.1 * 3
    clean = integrate(lambda t, y: (1.0, math.cos(y[0])), initial, settings)
    assert info.value.state.tobytes() == clean.states[2].tobytes()
    assert info.value.__cause__ is raised[0]


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_a_stage_state_that_math_cos_rejects_is_a_blow_up(stage):
    # math.cos raises a ValueError on an infinite angle y[0]. A non-finite
    # start is rejected before the loop, so stage 1 never sees one; a later
    # stage of step j gets one from the RHS call before it, which returns an
    # infinite rate
    settings = IntegratorSettings(step=0.1, tf=1.0)
    calls = []

    def rhs(t, y):
        calls.append(t)
        rate = math.inf if len(calls) == 4 * 2 + stage - 1 else 1.0
        return (rate, math.cos(y[0]))

    if stage == 1:
        with pytest.raises(ValueError, match=r"^initial state component 0 must be "
                                             r"finite, got inf$"):
            integrate(rhs, np.array([math.inf, 0.0]), settings)
        assert calls == []
        return
    initial = np.zeros(2)
    with pytest.raises(BlowUpError) as info:
        integrate(rhs, initial, settings)
    assert len(calls) == 4 * 2 + stage
    assert info.value.time == 0.1 * 3
    assert isinstance(info.value.__cause__, ValueError)
    clean = integrate(lambda t, y: (1.0, math.cos(y[0])), initial, settings)
    assert info.value.state.tobytes() == clean.states[2].tobytes()


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_a_value_error_on_a_finite_stage_state_stays_a_value_error(stage):
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 4 + stage:
            raise ValueError("math domain error")
        return (1.0,)

    with pytest.raises(ValueError, match="^math domain error$") as info:
        integrate(rhs, np.array([0.0]), IntegratorSettings(step=0.1, tf=1.0))
    assert info.value.__cause__ is None


@pytest.mark.parametrize("wrap", [tuple, list, np.array])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 6, 7])
def test_generated_loop_matches_comprehension_loop(m, wrap):
    rhs = coupled_rhs(m, wrap)
    initial = np.linspace(-1.0, 1.0, m)
    settings = IntegratorSettings(step=0.01, tf=3.0)
    got = integrate(rhs, initial, settings)
    want = comprehension_integrate(rhs, initial, settings)
    assert got.states.shape == (301, m)
    assert got.states.tobytes() == want.states.tobytes()
    assert got.t.tobytes() == want.t.tobytes()


def test_four_rhs_calls_per_step():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[0], y[1])

    settings = IntegratorSettings(step=0.1, tf=2.0)
    integrate(rhs, np.array([1.0, 2.0]), settings)
    assert len(calls) == 4 * settings.n_steps


def test_finite_state_with_overflowing_sum_is_not_a_blow_up():
    traj = integrate(lambda t, y: (0.0, 0.0), np.array([1e308, 1e308]),
                     IntegratorSettings(step=0.1, tf=1.0))
    assert np.all(traj.states == 1e308)


@pytest.mark.parametrize("m, component", [(1, 0), (6, 0), (6, 5), (7, 3)])
def test_nan_in_one_component_reports_its_step(m, component):
    # only the last stage of step j (from h * (j - 1) to h * j) is evaluated
    # after t = h * (j - 0.25), so the NaN enters the state at that step
    h, j = 0.1, 7

    def clean(t, y):
        return tuple(1.0 + 0.1 * v for v in y)

    def rhs(t, y):
        k = clean(t, y)
        if t > h * (j - 0.25):
            k = k[:component] + (math.nan,) + k[component + 1:]
        return k

    settings = IntegratorSettings(step=h, tf=2.0)
    initial = np.linspace(0.0, 1.0, m)
    with pytest.raises(BlowUpError) as info:
        integrate(rhs, initial, settings)
    assert info.value.time == h * j
    want = integrate(clean, initial, settings).states[j - 1]
    assert info.value.state.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 3])
def test_rhs_output_length_must_match_state(width):
    with pytest.raises(ValueError, match=rf"rhs returned {width} values .* length 2"):
        integrate(lambda t, y: (0.0,) * width, np.array([1.0, 2.0]),
                  IntegratorSettings(step=0.1, tf=1.0))


@pytest.mark.parametrize("slots, result", [
    pytest.param(slots, result, id=result) for slots, result in [
        ("y0, y1", "(y0,)"), ("y0, y1", "(y0, y1, y0)"), ("y0, y1", "(-y1, 2.0 * y0)"),
        # one slot, and a result that is no tuple of names
        ("y0,", "(-y0, 2.0 * y0)")]])
def test_a_law_returns_what_its_call_returns(slots, result):
    # written out, a law whose result is not a tuple of m names keeps the
    # length check of the first stage
    [law] = define_laws(f"def f(t, y):\n    {slots} = y\n    return {result}\n", ())()
    initial = np.arange(1.0, slots.count("y") + 1.0)
    outcomes = []
    for rhs in (law, lambda t, y: law(t, y)):
        try:
            outcomes.append(integrate(rhs, initial,
                                      IntegratorSettings(step=0.1, tf=1.0)).states.tobytes())
        except ValueError as exc:
            outcomes.append(exc.args)
    assert outcomes[0] == outcomes[1]


def test_rhs_receives_a_tuple_of_floats():
    seen = []

    def rhs(t, y):
        seen.append(y)
        return [-v for v in y]

    integrate(rhs, np.array([1.0, 2.0]), IntegratorSettings(step=0.5, tf=1.0))
    assert all(type(y) is tuple and all(type(v) is float for v in y) for y in seen)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(step=0.0, tf=1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(step=2.0, tf=1.0)
    with pytest.raises(ValueError, match="step.*tf"):
        IntegratorSettings(step=0.3, tf=1.0)


@pytest.mark.parametrize("step, tf, message", [
    (0.1, math.inf, "tf must be finite, got inf"),
    (math.inf, math.inf, "step must be finite, got inf"),
    (-math.inf, 1.0, "step must be finite, got -inf"),
    (0.1, math.nan, "tf must be finite, got nan"),
])
def test_settings_name_a_non_finite_step_or_horizon(step, tf, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IntegratorSettings(step=step, tf=tf)


def test_trajectory_length_checks():
    with pytest.raises(ValueError):
        Trajectory(t=np.arange(3.0), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(t=np.arange(3.0), states=np.zeros((3, 1)),
                   rho=np.zeros(2))


def test_hermite_of_stacked_columns_gives_each_columns_bits():
    # stacked columns share the intervals and the basis; each row keeps the
    # bits of its own interpolation, and every sample is met exactly
    rng = np.random.default_rng(30)
    ts = np.linspace(0.0, 2.0, 41)
    values, rates = rng.normal(size=(3, 41)), rng.normal(size=(3, 41))
    t = np.concatenate([rng.uniform(-0.1, 2.1, 200), ts])
    stacked = hermite(ts, values, rates, t)
    assert stacked.shape == (3, len(t))
    for row, v, r in zip(stacked, values, rates):
        assert row.tobytes() == hermite(ts, v, r, t).tobytes()
        assert np.array_equal(row[-len(ts):], v)


def test_a_laws_loop_calls_an_impure_callable_at_each_of_its_calls(monkeypatch):
    # g, which is no function of math, is called at each of its calls
    calls = []

    def impure(x):
        calls.append(x)
        return math.sin(x)

    [law] = define_laws("def f(t, y):\n    y0, y1 = y\n    a = cos(y0) * g(y1)\n"
                        "    b = cos(y0) * g(y1)\n    return (a - b * y1, b + t)\n",
                        ("cos", "g"))(math.cos, impure)
    text = loop_text(law, monkeypatch, 2)
    assert len(re.findall(r"\bg\w*\(", text)) == 8
    settings = IntegratorSettings(step=0.1, tf=1.0)
    got = stepped(law, (0.3, -0.2), settings)
    assert len(calls) == 8 * 10
    assert got == stepped(lambda t, y: law(t, y), (0.3, -0.2), settings)


def test_laws_that_read_one_closure_cell_share_a_loop_whatever_their_values():
    # f and the law g it calls close over one cell p; the loop steps the
    # bytes of the wrapped law and serves the same text bound to other values
    source = ("def g(x):\n    return x * p\n\n"
              "def f(t, y):\n    y0, y1 = y\n    a = y0 * p\n    b = g(y0)\n"
              "    c = y0 * q\n    return (a + b - c, a - y1)\n")
    p = 1.5
    [_, f] = define_laws(source, ("p", "q"))(p, p)
    settings = IntegratorSettings(step=0.1, tf=1.0)
    assert stepped(f, (0.3, -0.2), settings) == stepped(lambda t, y: f(t, y), (0.3, -0.2),
                                                        settings)
    [_, other] = define_laws(source, ("p", "q"))(1.5, 2.5)
    assert _loop(other, 2).__code__ is _loop(f, 2).__code__


@pytest.mark.parametrize("p", [None, 10 ** 400, 2, np.float64(1.5), 1.5],
                         ids=["none", "huge_int", "int", "numpy_float", "float"])
@pytest.mark.parametrize("steps", [0, 2])
def test_a_law_bound_to_a_non_float_steps_what_its_wrapped_self_steps(p, steps):
    # a law's loop computes p - 1.0 once per call, before its first step,
    # which is exact on floats only: a law bound to another value is called,
    # so it steps nothing, or raises or blows up, where its wrapped self does
    [law] = define_laws("def f(t, y):\n    y0, = y\n    return (y0 * (p - 1.0),)\n",
                        ("p",))(p)

    def outcome(rhs):
        states = np.ones((steps + 1, 1))
        try:
            integrator.step_rows(rhs, states, 0.1, 0, steps)
        except BlowUpError as exc:
            return exc.time, type(exc.__cause__)
        except TypeError as exc:
            return exc.args
        return states.tobytes()

    assert outcome(law) == outcome(lambda t, y: law(t, y))


def test_a_laws_loop_reads_each_value_once_per_call():
    # from a local bound before the steps, not from its closure cell at
    # each use, with the bytes of its wrapped self
    [law] = define_laws("def f(t, y):\n    y0, y1 = y\n    a = k * y0 + g(y1)\n"
                        "    b = k * y1 - g(y0)\n    return (a, b)\n", ("k", "g"))(-0.5, math.atan)
    loop = _loop(law, 2)
    cells = [ins.argval for ins in dis.get_instructions(loop) if ins.opname == "LOAD_DEREF"]
    assert len(cells) == len(set(cells)) == 2
    settings = IntegratorSettings(step=0.1, tf=1.0)
    assert stepped(law, (0.3, -0.2), settings) == stepped(lambda t, y: law(t, y), (0.3, -0.2),
                                                          settings)
