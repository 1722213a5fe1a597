"""The compiled jet tape against the recursive evaluator it replaced.

Both apply the same `taylor` operations to the same operands, so every
jet must agree bit for bit, and every error must name the same
subexpression.
"""

import numpy as np
import pytest
from recursive_jet import recursive_eval_jet

from frontlab import (
    ExprDomainError,
    eval_jet,
    gallery,
    gallery_names,
    parallel_surface,
    parse,
)
from frontlab.expr import Expr, Num, Var, Vector
from frontlab.zigzag import (
    loop_gallery,
    loop_gallery_names,
    plane_gallery,
    plane_gallery_names,
)


def _gallery_exprs():
    out = []
    for name in gallery_names():
        front = gallery(name)
        out += [(f"{name}.map", front.map), (f"{name}.normal", front.normal)]
    for name in plane_gallery_names():
        pf = plane_gallery(name)
        for attr in ("normal", "gamma", "gamma_prime"):
            if isinstance(getattr(pf, attr), Expr):
                out.append((f"{name}.{attr}", getattr(pf, attr)))
    for name in loop_gallery_names():
        out.append((f"{name}.path", loop_gallery(name)[1].path))
    return out


GALLERY_EXPRS = _gallery_exprs()

_RNG = np.random.default_rng(20050309)
_U = _RNG.uniform(-1.5, 1.5, (6, 5))
_V = _RNG.uniform(-1.5, 1.5, (6, 5))
_W = _RNG.uniform(-1.0, 1.0, 5)
INPUTS = {
    "scalar": ((0.31, 0.57), None),
    "array": ((_U, _V), None),
    "w": ((_U, _V), _W),
}


def _outcome(evaluate, e, uv, order, w):
    """Jet bytes and abs flag, or the error's type, message and source."""
    try:
        j = evaluate(e, *uv, order, w=w)
    except (ExprDomainError, ValueError) as err:
        return type(err), str(err), getattr(err, "source", None)
    blocks = [j.value] + [b for d in (j.d1, j.d2, j.d3) if d is not None for b in d]
    return [np.asarray(b).tobytes() for b in blocks], j.abs_at_zero, j.order, j.nvars


def _assert_same(e, uv, order, w=None):
    got = _outcome(eval_jet, e, uv, order, w)
    assert got == _outcome(recursive_eval_jet, e, uv, order, w)
    return got


@pytest.mark.parametrize("name,e", GALLERY_EXPRS, ids=[n for n, _ in GALLERY_EXPRS])
def test_gallery_jets_bit_identical(name, e):
    for order in range(4):
        for kind, (uv, w) in INPUTS.items():
            got = _assert_same(e, uv, order, w)
            assert isinstance(got[0], list), (kind, order, got)


def test_parallel_surface_jets_bit_identical():
    off = parallel_surface(gallery("ellipsoid"), 2.0)
    for order in range(4):
        _assert_same(off.map, (_U, _V), order)


@pytest.mark.parametrize(
    "source,u,v,order",
    [
        ("(log(u-1) + sqrt(v-2), 1/(u-1), log(u-1))", 0.5, 0.0, 1),
        ("(u, 1/(v*v), log(v*v))", 1.0, 0.0, 2),
        ("(exp(u), log(v*v) + 1/(v*v), 1/(v*v))", 1.0, 0.0, 0),
        ("(sqrt(u*u), sqrt(u*u) + u, v)", 0.0, 1.0, 1),
        ("(sqrt(u*u), v, (u*u)^0.5)", 0.0, 1.0, 0),
        ("(u, (u-1)^1.5, (u-1)^(0-2))", 1.0, 2.0, 1),
    ],
)
def test_domain_error_names_first_failing_subexpression(source, u, v, order):
    e = parse(source)
    got = _assert_same(e, (u, v), order)
    assert got[0] is ExprDomainError and got[2] is not None


def test_domain_error_source_is_first_in_walk_order():
    e = parse("(1 + 1/(v-2), log(u-1), 1/(v-2))")
    with pytest.raises(ExprDomainError) as info:
        eval_jet(e, 0.5, 2.0, 1)
    assert info.value.source == "1.0/(v-2.0)"
    assert "division by zero" in str(info.value)


def test_missing_variable_raises_value_error():
    e = parse("(u*w, v, sin(w))")
    with pytest.raises(ValueError, match="uses 'w'"):
        eval_jet(e, 0.2, 0.3, 1)
    _assert_same(e, (0.2, 0.3), 1)
    _assert_same(e, (0.2, 0.3), 2, w=0.4)


def test_signed_zero_constants_are_not_merged():
    root = Vector([Num(0.0, 0), Num(-0.0, 0), Var("u", 0)], 0)
    e = Expr(root, (), "(0.0, -0.0, u)")
    assert [op for op, *_ in e.tape.code].count("const") == 2
    j = eval_jet(e, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1)
    assert not np.signbit(j.value[..., 0]).any()
    assert np.signbit(j.value[..., 1]).all()
    _assert_same(e, (np.array([1.0, 2.0]), np.array([0.0, 0.0])), 1)


def test_repeated_subexpressions_compile_once():
    e = parse("(sin(u*v)*cos(u*v), sin(u*v) + cos(u*v), cosh(u) - sinh(u))")
    ops = [op for op, *_ in e.tape.code]
    assert ops.count("*") == 2  # u*v and the product of sin and cos
    assert ops.count("sin") == ops.count("cos") == 1
    assert ops.count("pair") == 2  # (sin, cos)(u*v) and (sinh, cosh)(u)
    _assert_same(e, (_U, _V), 3)


def test_abs_flag_survives_sharing():
    e = parse("(abs(u), abs(u) + v, abs(v))")
    assert _assert_same(e, (0.0, 1.0), 1)[1] is True
    assert _assert_same(e, (np.array([0.5, 0.0]), np.array([1.0, 2.0])), 2)[1] is True
    assert _assert_same(e, (0.5, 1.0), 1)[1] is False


def test_ellipsoid_parallel_map_is_compact():
    front = gallery("ellipsoid_parallel")
    assert len(front.map.tape.code) < 60


def test_expr_hash_agrees_with_eq():
    a, b = parse("(u, v, 0)"), parse("( u ,v, 0 )")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert parse("(u, v, 1)") not in {a}


def test_expr_eq_keys_constants_by_bit_pattern():
    def expr(c):
        return Expr(Vector([Num(c, 0), Var("u", 0)], 0), (), "")

    assert expr(0.0) != expr(-0.0)
    assert len({expr(0.0), expr(-0.0)}) == 2
    nan = expr(float("nan"))
    assert nan == expr(float("nan"))
    assert hash(nan) == hash(expr(float("nan")))
    assert expr(float("nan")) in {nan}
