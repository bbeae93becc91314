"""Property tests over random inputs for the invariants the analysis relies on.

Skew-symmetric Coriolis forces, symmetric products (and the seeking law's
closed form agreeing with the generic one), the steady-state solve (the
pure spin c/d33 for diagonal damping, a root or a RuntimeError for coupled
damping), a non-positive storage residual below the torque bound, RK4's
fourth order, a run stepped in two ranges of rows giving the bits of
one `integrate`, and the trajectory CSV writer giving the bytes of
`'%.15g'`. Examples are derandomized so that a run of the suite is
reproducible.
"""
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from surgeseek import scenario as sc
from surgeseek.averaging import (ConfigVectorField, es_input_field, es_self_product,
                                 symmetric_product)
from surgeseek.costs import get_field
from surgeseek.dither import EsGains
from surgeseek.integrator import (BlowUpError, IntegratorSettings, Trajectory, allocate,
                                  integrate, step_rows)
from surgeseek.passivity import (c_hat_bound, monotonicity_check, passivity_residual,
                                 steady_state_for_torque)
from surgeseek.vehicle import VehicleParams, reference_boat

from oracles import coriolis, template_csv

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

positive = st.floats(0.2, 5.0)
vessels = st.builds(VehicleParams.diagonal, positive, positive, positive,
                    positive, positive, positive)


def vectors(n, bound=5.0):
    return arrays(np.float64, n, elements=st.floats(-bound, bound))


@PROPERTY
@given(vessels, vectors(3))
def test_coriolis_is_skew_symmetric(p, v):
    c = coriolis(p, v)
    assert np.array_equal(c, -c.T)


def _affine_field(offset, matrix):
    """X(q) = offset + matrix (x, y, sin theta), with no analytic Jacobian."""
    return ConfigVectorField(
        lambda q: offset + matrix @ np.array([q[0], q[1], math.sin(q[2])]))


@PROPERTY
@given(vessels, vectors(3), vectors(3), vectors(9), vectors(9), vectors(3))
def test_symmetric_product_is_symmetric(p, a, b, ma, mb, q):
    x_field = _affine_field(a, ma.reshape(3, 3))
    y_field = _affine_field(b, mb.reshape(3, 3))
    assert np.array_equal(symmetric_product(x_field, y_field, p, q),
                          symmetric_product(y_field, x_field, p, q))


@PROPERTY
@given(vessels, st.floats(0.1, 3.0),
       st.sampled_from(["quadratic", "rotated_quadratic", "log_bowl"]),
       vectors(2), st.floats(0.0, 2.0), vectors(3))
def test_closed_form_self_product_matches_generic(p, k, name, star, floor, q):
    cost = get_field(name, x_star=star[0], y_star=star[1], floor=floor)
    got = symmetric_product(*[es_input_field(p, k, cost)] * 2, p, q)
    want = es_self_product(p, k, cost)(q)
    gx, gy = cost.gradient(q[0], q[1])
    scale = 2.0 * (k / p.m11) ** 2 * cost.value(q[0], q[1]) * (abs(gx) + abs(gy))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@PROPERTY
@given(vessels, st.floats(1e-6, 1e4))
def test_diagonal_steady_state_is_the_pure_spin(p, c):
    # Newton's start D^-1 Gu* is already the root: no step moves it
    v_star = steady_state_for_torque(p, c).v_star
    assert v_star.tobytes() == np.array([0.0, 0.0, c / p.d[2, 2]]).tobytes()


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_coupled_steady_state_is_a_root_or_a_runtime_error(seed):
    # a vessel drawn as in the coupled monotonicity test of test_passivity
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 3.0, 3)
    low = rng.normal(0.0, 0.6, (3, 3))
    p = VehicleParams(*m.tolist(), low @ low.T + np.diag(rng.uniform(0.2, 3.0, 3)))
    c = rng.uniform(0.2, 8.0)
    try:
        v_star = steady_state_for_torque(p, c).v_star
    except RuntimeError:
        return
    res = coriolis(p, v_star) @ v_star + p.d @ v_star - np.array([0.0, 0.0, c])
    assert np.linalg.norm(res) <= 1e-10


@PROPERTY
@given(vessels, st.floats(0.01, 0.99), arrays(np.float64, (8, 6), elements=st.floats(-3.0, 3.0)),
       arrays(np.float64, (8, 2), elements=st.floats(-5.0, 5.0)))
def test_storage_residual_non_positive_below_bound(p, fraction, states, inputs):
    assume(abs(p.m22 - p.m11) >= 0.05)
    c = fraction * c_hat_bound(p)
    traj = Trajectory(t=np.arange(8.0), states=states, inputs=inputs + np.array([0.0, c]))
    assert passivity_residual(traj, p, c) <= 1e-9


@PROPERTY
@given(vessels)
def test_bound_is_the_eigenvalue_threshold(p):
    assume(abs(p.m22 - p.m11) >= 0.05)
    c_hat = c_hat_bound(p)
    assert monotonicity_check(p, 0.99 * c_hat)
    assert not monotonicity_check(p, 1.01 * c_hat)


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.0, math.pi), vectors(2, bound=2.0))
def test_rk4_step_halving_ratio_is_sixteen(modulus, angle, y0):
    # y' = A y with eigenvalues modulus * exp(+-i angle), exact flow known
    assume(np.linalg.norm(y0) >= 0.5)
    a, b = modulus * math.cos(angle), modulus * math.sin(angle)
    matrix = np.array([[a, -b], [b, a]])
    exact = math.exp(a) * np.array([[math.cos(b), -math.sin(b)],
                                    [math.sin(b), math.cos(b)]]) @ y0

    def error(step):
        traj = integrate(lambda _t, y: matrix @ y, y0, IntegratorSettings(step=step, tf=1.0))
        return np.linalg.norm(traj.states[-1] - exact)

    assert 14.0 <= error(0.02) / error(0.01) <= 18.0


# the full runner's closed loop over a 1 s horizon: 80 RK4 steps
FULL = sc.Scenario(vehicle=reference_boat(), cost=get_field("quadratic"),
                   gains=EsGains(1.0, 1.0, 0.1), initial=[0.5, -0.3, 0.2, 0.1, 0.0, 0.4],
                   horizon=1.0, samples_per_period=50)
FULL_SETTINGS = IntegratorSettings(step=sc._full_step(FULL), tf=FULL.horizon)
STEPS = FULL_SETTINGS.n_steps


def _in_two_ranges(rhs, i):
    """The run of `rhs` on FULL's grid, stepped as steps [0, i), then [i, STEPS)."""
    traj = allocate(FULL.initial, FULL_SETTINGS)
    step_rows(rhs, traj.states, FULL_SETTINGS.step, 0, i)
    step_rows(rhs, traj.states, FULL_SETTINGS.step, i, STEPS)
    return traj


@PROPERTY
@given(st.integers(1, STEPS - 1))
def test_stepping_in_two_ranges_gives_the_bits_of_one_integrate(i):
    rhs = sc._full_rhs(FULL)
    one = integrate(rhs, FULL.initial, FULL_SETTINGS)
    two = _in_two_ranges(rhs, i)
    assert two.t.tobytes() == one.t.tobytes()
    assert two.states.tobytes() == one.states.tobytes()


@PROPERTY
@given(st.integers(1, STEPS - 1).flatmap(lambda i: st.tuples(st.just(i),
                                                              st.integers(i, STEPS - 1))))
def test_a_blow_up_after_the_split_is_the_blow_up_of_one_integrate(split):
    i, j = split
    h = FULL_SETTINGS.step
    full_rhs = sc._full_rhs(FULL)

    def rhs(t, y):
        # NaN from the second stage of step j on; step j - 1 ends at t ~ h * j
        return (math.nan,) * 6 if t > h * (j + 0.25) else full_rhs(t, y)

    with pytest.raises(BlowUpError) as one:
        integrate(rhs, FULL.initial, FULL_SETTINGS)
    with pytest.raises(BlowUpError) as two:
        _in_two_ranges(rhs, i)
    assert two.value.time == one.value.time == h * (j + 1)
    assert two.value.state.tobytes() == one.value.state.tobytes()


def _written(columns):
    """The bytes `_write_rows` writes for `columns` under the header "h"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        sc._write_rows(path, "h", columns)
        with open(path, "rb") as f:
            return f.read()


def _columns(values, width, rows=None, ints=None):
    """`values` in rows of `width` numbers, repeated into `rows` rows, as a
    column and a block of the rest; `ints`, if given, repeated into the
    first column. `rows` None gives as many rows as hold each value once,
    and "edge" one row more than a block of `_write_rows`."""
    values = np.asarray(values, dtype=np.float64)
    if rows is None:
        rows = -(-len(values) // width)
    elif rows == "edge":
        rows = sc._BLOCK_NUMBERS // width + 1
    block = np.resize(values, (rows, width))
    first = block[:, 0] if ints is None else np.resize(np.asarray(ints, dtype=np.int64), rows)
    return [first] + ([block[:, 1:]] if width > 1 else [])


def _bits(low, high):
    """The float64 bit patterns of the non-negative floats in [low, high]."""
    return np.array([low, high]).view(np.int64).tolist()


SIGN = 1 << 63
IN_RANGE = _bits(1e-8, 1e15)
# any float64 (nan, inf, subnormals among them), and, mostly, the finite
# ones of magnitude in [1e-8, 1e15) that the writer formats on arrays
FLOAT_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.tuples(st.integers(*IN_RANGE), st.sampled_from([0, SIGN])).map(lambda b: b[0] | b[1]))


def _seeded_bits(seed, count=300):
    """`count` float64 bit patterns from `seed`: a third of any float64, the
    rest of magnitude in [1e-8, 1e15), either sign. Hypothesis's own draws
    crowd the ends of a range; these spread over it, so that some fall where
    only the product's low part decides the rounding."""
    rng = np.random.default_rng(seed)
    any_bits = rng.integers(0, 2 ** 64, count // 3, dtype=np.uint64)
    in_range = rng.integers(*IN_RANGE, count - count // 3, dtype=np.uint64)
    return np.concatenate([any_bits, in_range | rng.choice(np.uint64([0, SIGN]), len(in_range))])


@PROPERTY
@given(st.lists(FLOAT_BITS, max_size=40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 3, 10]), st.sampled_from([None, 0, 1, "edge"]),
       st.none() | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=8))
def test_the_csv_writer_writes_the_bytes_of_the_template(bits, seed, width, rows, ints):
    values = np.concatenate([np.array(bits, dtype=np.uint64), _seeded_bits(seed)])
    columns = _columns(values.view(np.float64), width, rows, ints)
    assert _written(columns) == template_csv("h", columns)


def _near(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# the values where the writer changes route or form, or rounds a tie: a
# decade that log10 alone misjudges (99999999999.9999 is 1e11 to it), the
# exact ties (2j + 1) / 8 + 1e12 and 1e14 + j + 0.5 at the 15th digit
# (and (2j + 1) / 8 + 1e13, a quarter unit either side of one), and
# numbers whose hi is a tie that lo breaks up (2.503...e-07 and on), down
# (61897.7... and on), or only by its last term (2.678...e-05 and on)
EDGES = ([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          math.nan, math.inf, -math.inf,
          99999999999.9999, 999999999999999.9, 9.999999999999999e-05]
         + [y for k in range(-9, 16) for x in (float(f"1e{k}"), -float(f"1e{k}"))
            for y in _near(x) + [x * (1 + 1e-13)]]
         + [(2 * j + 1) / 8 + 1e13 for j in range(8)] + [(2 * j + 1) / 8 + 1e12 for j in range(8)]
         + [1e14 + j + 0.5 for j in range(-4, 4)] + [-(1e14 + j + 0.5) for j in range(-4, 4)]
         + [2.503008924174765e-07, 60077.339127225256, 465.5435156360645,
            61897.74639338055, 1224361.023655535, 0.5725885143944335,
            2.678435230270105e-05, 0.4998282172943545, 15.19677889788865])


@pytest.mark.parametrize("rows", [0, 1, None, "edge"])
@pytest.mark.parametrize("width", [1, 2, 3, 10])
def test_the_csv_writer_writes_the_template_s_bytes_of_the_edge_values(width, rows):
    columns = _columns(EDGES, width, rows)
    assert _written(columns) == template_csv("h", columns)
    ints = _columns(EDGES, width, rows, ints=[0, -1, 10 ** 15, 2 ** 63 - 1, -2 ** 63])
    assert _written(ints[:1]) == template_csv("h", ints[:1])
    assert _written(ints) == template_csv("h", ints)


@pytest.mark.parametrize("error", [-1e-12, 1e-12])
def test_the_csv_writer_does_not_trust_log10_next_to_a_power_of_ten(monkeypatch, error):
    # a log10 that errs by 1e-12 either way misjudges the decade of the
    # numbers within about 2.3e-12 of a power of ten; the product shows it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    columns = _columns(EDGES, 3)
    assert _written(columns) == template_csv("h", columns)
