"""Random expressions from the parser's grammar against two oracles.

Every function, integer powers of both signs, real powers, abs, unary
minus, parameters and subtrees shared between components are drawn.  The
generated jet code must agree bit for bit with the recursive walk over
`taylor.Series` (`tests/recursive_jet.py`) at orders 0 to 3, for scalar,
1-D and broadcast (n, 1) x (1, m) inputs with signed zeros: the same
blocks, the same per-component abs flags, and the same error naming the
same subexpression.  Away from domain edges it must also agree with the
derivatives `sympy` takes of the same tree.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from recursive_jet import recursive_eval_jet

from frontlab import eval_jet, parse
from frontlab.expr import BinOp, Neg, Num, Param, PowOp, Var
from frontlab.taylor import FUNCTION_NAMES

LEAVES = st.sampled_from(["u", "v", "u", "v", "a", "b", "0", "0.5", "2", "1.25"])
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "(0-1)", "(0-2)", "0.5", "1.5", "(0-0.5)"])
# signed zeros, and values whose products and sums round
VALUES = st.sampled_from([0.0, -0.0, 0.3, -0.7, 1.0, -1.1, 1.7, 2.3])


def _extend(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})")
    return st.one_of(
        binary,
        binary,
        st.tuples(st.sampled_from(sorted(FUNCTION_NAMES)), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        binary,
        st.tuples(children, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda s: f"(-{s})"),
    )


@st.composite
def expressions(draw, max_leaves=8):
    """A parsed vector expression whose components may share a subtree."""
    shared = draw(st.recursive(LEAVES, _extend, max_leaves=4))
    leaves = st.one_of(LEAVES, st.just(f"({shared})"))
    comps = draw(st.lists(st.recursive(leaves, _extend, max_leaves=max_leaves),
                          min_size=2, max_size=3))
    return parse("(" + ", ".join(comps) + ")", {"a": draw(VALUES), "b": draw(VALUES)})


def _outcome(evaluate, e, uv, order):
    """Jet blocks (shape and bytes) and abs flags, or the error raised."""
    try:
        j = evaluate(e, *uv, order)
    except Exception as err:  # both evaluators must fail alike, whatever the error
        return type(err), str(err), getattr(err, "source", None)
    blocks = [j.value] + [b for d in (j.d1, j.d2, j.d3) if d is not None for b in d]
    return [(np.shape(b), np.asarray(b).tobytes()) for b in blocks], j.abs_hits, j.order


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(e=expressions(), data=st.data())
def test_jets_bit_identical_to_recursive_walk(e, data):
    points = st.lists(VALUES | st.floats(-2.0, 2.0), min_size=6, max_size=6)
    p = data.draw(points)
    inputs = [
        (p[0], p[1]),
        (np.array(p[:5]), np.array(p[1:6])),
        (np.array(p[:3]).reshape(3, 1), np.array(p[2:6]).reshape(1, 4)),
    ]
    with np.errstate(all="ignore"):
        for uv in inputs:
            for order in range(4):
                got = _outcome(eval_jet, e, uv, order)
                assert got == _outcome(recursive_eval_jet, e, uv, order), (uv, order)


# --- the symbolic oracle ----------------------------------------------------

U, V = sympy.symbols("u v", real=True)
_SYMPY = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "sinh": sympy.sinh,
          "cosh": sympy.cosh, "tanh": sympy.tanh, "sech": sympy.sech, "exp": sympy.exp,
          "log": sympy.log, "sqrt": sympy.sqrt, "atan": sympy.atan, "abs": sympy.Abs}
_EDGE = 0.05  # how close an argument may come to where its function is not smooth


class _NearEdge(Exception):
    pass


def _check(value, ok=True):
    if not ok or not abs(value) < 1e6:
        raise _NearEdge
    return value


def _value(node, u, v, params):
    """The float value of `node`, raising _NearEdge near a domain edge or a
    cancelling sum, where a relative comparison says nothing."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Param):
        return params[node.name]
    if isinstance(node, Var):
        return u if node.name == "u" else v
    if isinstance(node, Neg):
        return -_value(node.arg, u, v, params)
    if isinstance(node, BinOp):
        a, b = _value(node.lhs, u, v, params), _value(node.rhs, u, v, params)
        if node.op in "+-":
            r = a + b if node.op == "+" else a - b
            return _check(r, abs(r) >= 1e-3 * (abs(a) + abs(b)))
        if node.op == "*":
            return _check(a * b)
        return _check(a / b if abs(b) > _EDGE else 0.0, abs(b) > _EDGE)
    if isinstance(node, PowOp):
        x, k = _value(node.base, u, v, params), node.exponent
        if k.is_integer():
            return _check(x ** k if k >= 0 or abs(x) > _EDGE else 0.0, k >= 0 or abs(x) > _EDGE)
        return _check(x ** k if x > _EDGE else 0.0, x > _EDGE)
    x = _value(node.arg, u, v, params)
    fn = node.fn
    # the tanh table computes 1 - tanh^2, a sum like the others that may cancel
    ok = {"log": x > _EDGE, "sqrt": x > _EDGE, "tan": abs(math.cos(x)) > _EDGE,
          "abs": abs(x) > _EDGE, "exp": x < 20, "sinh": abs(x) < 20,
          "cosh": abs(x) < 20, "tanh": 1.0 - math.tanh(x) ** 2 >= 1e-3}.get(fn, True)
    _check(x, ok)
    f = {"sech": lambda y: 1.0 / math.cosh(y), "abs": abs}.get(fn) or getattr(math, fn)
    return _check(f(x))


def _sympy(node, params):
    if isinstance(node, Num):
        return sympy.Rational(node.value)
    if isinstance(node, Param):
        return sympy.Rational(params[node.name])
    if isinstance(node, Var):
        return U if node.name == "u" else V
    if isinstance(node, Neg):
        return -_sympy(node.arg, params)
    if isinstance(node, BinOp):
        a, b = _sympy(node.lhs, params), _sympy(node.rhs, params)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, PowOp):
        k = node.exponent
        return _sympy(node.base, params) ** (sympy.Integer(int(k)) if k.is_integer()
                                             else sympy.Rational(k))
    return _SYMPY[node.fn](_sympy(node.arg, params))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(e=expressions(max_leaves=4), u=st.floats(-1.5, 1.5), v=st.floats(-1.5, 1.5))
def test_jets_agree_with_sympy(e, u, v):
    params = e.param_dict()
    try:
        for c in e.root.components:
            _value(c, u, v, params)
    except _NearEdge:
        assume(False)
    j = eval_jet(e, u, v, 3)
    at = {U: sympy.Rational(u), V: sympy.Rational(v)}
    blocks = [j.value] + list(j.d1 + j.d2 + j.d3)
    for k, c in enumerate(e.root.components):
        f = _sympy(c, params)
        want = [float(sympy.diff(f, U, deg - b, V, b).evalf(30, subs=at))
                for deg in range(4) for b in range(deg + 1)]
        got = [float(x[k]) for x in blocks]
        # relative to the component's own scale: a partial that vanishes
        # at the point is as exact as the others
        scale = max(abs(w) for w in want)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale), k


def test_tanh_table_near_saturation():
    j = eval_jet(parse("(tanh(u), u)"), 8.0, 0.0, 3)
    x = sympy.Rational(8)
    want = [float(sympy.diff(sympy.tanh(U), U, k).subs(U, x).evalf(30)) for k in (1, 2, 3)]
    got = [float(j.f_u[0]), float(j.f_uu[0]), float(j.f_uuu[0])]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
