"""
3-DOF planar underactuated vehicle model.

State convention used throughout the package is a flat array of length 6:

    [x_world (m),
     y_world (m),
     heading (rad, unwrapped real line, never reduced mod 2*pi),
     surge velocity v_x (m/s, body frame),
     sway velocity v_y (m/s, body frame),
     yaw rate omega (rad/s)]

Input is [surge force u1 (N), yaw torque u2 (N*m)]. There is no sway
actuator: the generalized force is G u = (u1, 0, u2), which encodes the
underactuation.

Dynamics:

    q_dot = J(theta) v
    M v_dot + C(v) v + D v = G u

with diagonal inertia M, a skew-symmetric Coriolis matrix C(v) with the
standard surface-vessel structure, and a constant positive-definite
damping matrix D (linear hydrodynamic damping).

`MODEL` is the package's single statement of this model, as source text.
`dynamics_rhs` is compiled from it: the averaged (symmetric product)
system, the drift fields and the passivity audit evaluate it. The full and
averaged runners step `model_rhs` functions, also compiled from it, which
compute their inputs and the rates in one frame and leave out the damping
products of the vessel's zero entries. Each is a law, stated as source text
by `integrator.define_laws`, like the seeking laws its inputs call (the
surge law, the surge self product, the cost field's value and gradient).
The RK4 loop writes it out at each of its stages, and those laws in it
(see `integrator`).
"""
import ast
import functools
import math
import numbers
import textwrap
from dataclasses import dataclass, field
from math import cos, sin

import numpy as np

from .integrator import define_laws


@dataclass(frozen=True)
class VehicleParams:
    """Inertia and damping of the planar vehicle.

    m11, m22, m33 are the diagonal inertia entries (surge, sway, yaw)
    and must be real numbers, finite and strictly positive; they are kept
    as Python floats. `d` is the 3x3 damping matrix, which must be finite and
    symmetric positive definite; `diagonal()` is the common constructor.
    `d_rows` holds the rows of `d` as tuples of floats, for `dynamics_rhs`.
    """

    m11: float
    m22: float
    m33: float
    d: np.ndarray
    d_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m11", "m22", "m33"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"inertia entry {name} must be a real number, got {value!r}")
            # a numpy scalar would step `dynamics_rhs` at numpy-scalar speed
            value = float(value)
            if not 0 < value < math.inf:
                raise ValueError(f"inertia entry {name} must be finite and strictly "
                                 f"positive, got {value}")
            object.__setattr__(self, name, value)
        d = np.asarray(self.d, dtype=float)
        if d.shape != (3, 3):
            raise ValueError("damping matrix must be 3x3")
        for (i, j), value in np.ndenumerate(d):
            if not math.isfinite(value):
                raise ValueError(f"damping entry d{i + 1}{j + 1} must be finite, got {value}")
        # symmetric up to rounding of the largest entry; a relative tolerance
        # per entry would let d12 = 1e6 stand beside d21 = 1e6 + 9
        tol = 8.0 * np.finfo(float).eps * np.abs(d).max()
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if abs(d[i, j] - d[j, i]) > tol:
                raise ValueError(f"damping matrix must be symmetric, got d{i + 1}{j + 1} = "
                                 f"{d[i, j]} and d{j + 1}{i + 1} = {d[j, i]}")
        if np.any(np.linalg.eigvalsh(d) <= 0):
            raise ValueError("damping matrix must be positive definite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_rows", tuple(map(tuple, d.tolist())))

    @classmethod
    def diagonal(cls, m11, m22, m33, d11, d22, d33):
        """The vessel with damping diag(d11, d22, d33); for a diagonal matrix,
        positive definite means each entry strictly positive."""
        entries = {"d11": float(d11), "d22": float(d22), "d33": float(d33)}
        for name, value in entries.items():
            if value <= 0:
                raise ValueError(f"damping entry {name} must be strictly positive, "
                                 f"got {value}")
        return cls(m11, m22, m33, np.diag(list(entries.values())))

    def is_diagonal_damping(self):
        return bool(np.all(self.d == np.diag(np.diag(self.d))))


def reference_boat():
    """Benchmark boat with linear hydrodynamic damping."""
    return VehicleParams.diagonal(m11=1.412, m22=1.982, m33=0.354,
                                  d11=3.436, d22=12.99, d33=0.864)


# The vessel model, stated once: the rates `RATES` of the slots `SLOTS`
# under the surge force u1 and the yaw torque u2. C(v)v and D v are written
# out and M^{-1} is applied by dividing by the diagonal inertia entries; the
# other names it reads are those of `constants`. `dynamics_rhs` is compiled
# from this text, and so are the runners' `model_rhs` functions, which leave
# out the damping products of zero entries.
SLOTS = ("x", "y", "th", "vx", "vy", "om")
RATES = ("dx", "dy", "dth", "dvx", "dvy", "dom")
MODEL = """\
cth = cos(th)
sth = sin(th)
dx = cth * vx - sth * vy
dy = sth * vx + cth * vy
dth = om
dvx = (u1 + m22 * vy * om - (d11 * vx + d12 * vy + d13 * om)) / m11
dvy = (-m11 * vx * om - (d21 * vx + d22 * vy + d23 * om)) / m22
dom = (u2 - (m22 - m11) * vx * vy - (d31 * vx + d32 * vy + d33 * om)) / m33
"""


def constants(params):
    """Every name `MODEL` reads besides the slots and the inputs, by name:
    `math.cos` and `math.sin`, the inertia entries m11, m22, m33 and the
    damping entries d11 ... d33 (the rows of `params.d_rows`)."""
    names = {"cos": cos, "sin": sin,
             "m11": params.m11, "m22": params.m22, "m33": params.m33}
    for i, row in enumerate(params.d_rows, 1):
        names.update((f"d{i}{j}", value) for j, value in enumerate(row, 1))
    return names


# `dynamics_rhs` as source: the constants are read from `params`, and cos
# and sin are globals, `math`'s
_RHS_TEMPLATE = """\
def dynamics_rhs(params, state, u):
    if state.__class__ is not tuple and isinstance(state, ndarray):
        state = state.tolist()
    if u.__class__ is not tuple and isinstance(u, ndarray):
        u = u.tolist()
    {slots} = state
    u1, u2 = u
    m11, m22, m33 = params.m11, params.m22, params.m33
    (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = params.d_rows
{model}    return ({rates})
"""


_RHS_NAMESPACE = {"__name__": __name__, "ndarray": np.ndarray, "cos": cos, "sin": sin}
exec(compile(_RHS_TEMPLATE.format(slots=", ".join(SLOTS), rates=", ".join(RATES),
                                  model=textwrap.indent(MODEL, "    ")),
             "<vehicle.MODEL>", "exec"), _RHS_NAMESPACE)
dynamics_rhs = _RHS_NAMESPACE["dynamics_rhs"]
dynamics_rhs.__doc__ = """Time derivative of the 6-state under input u = (u1, u2), as a 6-tuple.

    It is compiled from `MODEL` and works on floats: C(v)v and D v are
    written out (the rows of D come from `params.d_rows`) and M^{-1} is applied by
    dividing by the diagonal inertia entries; D may be any valid damping
    matrix. A numpy row given for `state` or `u` is taken as Python floats
    by one `.tolist()`, so the result is a 6-tuple of floats whatever the
    caller indexed. A row adds 0.15-0.25 us to a call that takes 0.6 us on
    tuples; on numpy scalars the call would take 1.8 us (2-vCPU x86-64 VM,
    Python 3.11) and carry that type into an RK4 loop's later stages. Given
    a tuple of state slots whose velocities are equal-length columns and
    whose heading is a float (`math.cos` takes no column), and a tuple of
    two input columns, the same arithmetic evaluates every sample in one
    call and returns six columns, bit-equal to the per-sample floats at
    that heading. The velocity derivatives do not read the heading.
    """


# the damping entries `MODEL` multiplies a velocity slot by, each in one
# product `dij * slot` of a sum
_DAMPING = tuple(f"d{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))


class _DropProducts(ast.NodeTransformer):
    """Leaves out of each sum the products `name * ...` of the names `zero`,
    keeping the order of the other terms."""

    def __init__(self, zero):
        self.zero = zero

    def _dropped(self, node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and isinstance(node.left, ast.Name) and node.left.id in self.zero)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Add):
            if self._dropped(node.right):
                return node.left
            if self._dropped(node.left):
                return node.right
        return node


@functools.cache
def _model_without(zero):
    """`MODEL` without the damping products of the entries `zero`.

    For a finite velocity, a product 0.0 * v is a signed zero, and adding it
    changes a sum only if the other terms sum to a zero of the other sign.
    So each rate equals `MODEL`'s as a float and can differ only in the sign
    of a zero.
    """
    return ast.unparse(_DropProducts(zero).visit(ast.parse(MODEL))) + "\n"


# A `model_rhs` function as source: a law (see `integrator.define_laws`)
# over the values, which unpacks the slots, runs `body` and returns the rates
_MODEL_RHS = f"""\
def rhs(tau, state):
    {", ".join(SLOTS)} = state
{{body}}    return ({", ".join(RATES)})
"""


def model_rhs(params, inputs, values, after=""):
    """The right-hand side rhs(tau, state) of the model of `params`, one
    generated function.

    The statements `inputs` compute u1 and u2 from the stage time `tau`, the
    slots `SLOTS` of `state` and the names of `values`; `MODEL` then computes
    the rates `RATES` and the statements `after` may amend them. It returns
    the rates as a 6-tuple. The damping products of the entries of
    `params.d` that are exactly 0.0 are left out of `MODEL` (six of nine for
    a diagonal vessel), so each rate equals, as a float, the one
    `dynamics_rhs` gives at those inputs; it can differ only in the sign of
    a zero.

    The function is a law over the values (see `integrator.define_laws`),
    so `inputs` and `after` are assignments. Its text only states their
    calls: an RK4 loop writes it out, and the laws it calls, while a wrapper
    of it (a lambda, say) is called, with the same floats. A law is written
    out where its call is an assignment's whole value; any other call is
    called. The text is compiled once per input statements, pattern of zero
    damping entries and value names, so the runs of a sweep, which share one
    vessel, share one compile, whatever the cost field.
    """
    names = constants(params)
    zero = frozenset(name for name in _DAMPING if names[name] == 0.0)
    values = {**names, **values}
    body = f"{inputs}\n{_model_without(zero)}{after}\n"
    [rhs] = define_laws(_MODEL_RHS.format(body=textwrap.indent(body, " " * 4)),
                        tuple(values))(*values.values())
    return rhs
