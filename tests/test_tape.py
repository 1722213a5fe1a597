"""The compiled jet tape against the recursive evaluator it replaced.

Both apply the same `taylor` operations to the same operands, so every
jet must agree bit for bit, and every error must name the same
subexpression.  A scalar jet must also equal the matching entry of an
array jet bit for bit, a jet truncated to a lower order the jet evaluated
at that order, and each field of a front's joint jets that field's own
jet.
"""

import ast
import linecache
from pathlib import Path

import numpy as np
import pytest
from recursive_jet import interleaved, recursive_eval_jet

from frontlab import (
    Domain,
    ExprDomainError,
    Front,
    ParseError,
    eval_jet,
    gallery,
    gallery_names,
    parallel_surface,
    parse,
)
from frontlab import expr as expr_module
from frontlab import taylor
from frontlab.expr import Expr, Num, Var, Vector
from frontlab.zigzag import (
    loop_gallery,
    loop_gallery_names,
    mirror_plane_front,
    plane_gallery,
    plane_gallery_names,
)


def _gallery_exprs():
    """(name, expression, (u0, u1, v0, v1) box of its chart) triples."""
    out = []
    for name in gallery_names():
        front = gallery(name)
        d = front.domain
        box = (d.u0, d.u1, d.v0, d.v1)
        out += [(f"{name}.map", front.map, box), (f"{name}.normal", front.normal, box)]
    for name in plane_gallery_names():
        pf = plane_gallery(name)
        for attr in ("normal", "gamma", "gamma_prime"):
            if isinstance(getattr(pf, attr), Expr):
                out.append((f"{name}.{attr}", getattr(pf, attr), (0.0, pf.period, 0.0, 0.0)))
    for name in loop_gallery_names():
        loop = loop_gallery(name)[1]
        out.append((f"{name}.path", loop.path, (0.0, loop.period, 0.0, 0.0)))
    return out


GALLERY_EXPRS = _gallery_exprs()
GALLERY_IDS = [n for n, _, _ in GALLERY_EXPRS]
# real exponents go through taylor's power table, which no gallery entry uses
REAL_POWERS = ("real_powers", parse("(u^1.5, (u+v)^(0-2.5), v^0.3 - u)"), (0.1, 2.0, 0.1, 2.0))

_RNG = np.random.default_rng(20050309)
_U = _RNG.uniform(-1.5, 1.5, (6, 5))
_V = _RNG.uniform(-1.5, 1.5, (6, 5))
INPUTS = {
    "scalar": (0.31, 0.57),
    "array": (_U, _V),
}


def _blocks(j, uv):
    shape = np.broadcast_shapes(np.shape(uv[0]), np.shape(uv[1]))
    blocks = [j.value] + [b for d in (j.d1, j.d2, j.d3) if d is not None for b in d]
    return [interleaved(b, shape).tobytes() for b in blocks], j.abs_at_zero, j.order


def _error(err):
    return type(err), str(err), getattr(err, "source", None)


def _outcome(evaluate, e, uv, order):
    """Jet bytes and abs flag, or the error's type, message and source."""
    try:
        j = evaluate(e, *uv, order)
    except (ExprDomainError, ValueError) as err:
        return _error(err)
    return _blocks(j, uv)


def _assert_same(e, uv, order):
    got = _outcome(eval_jet, e, uv, order)
    assert got == _outcome(recursive_eval_jet, e, uv, order)
    return got


@pytest.mark.parametrize("name,e,box", GALLERY_EXPRS, ids=GALLERY_IDS)
def test_gallery_jets_bit_identical(name, e, box):
    for order in range(4):
        for kind, uv in INPUTS.items():
            got = _assert_same(e, uv, order)
            assert isinstance(got[0], list), (kind, order, got)


@pytest.mark.parametrize("name,e,box", GALLERY_EXPRS + [REAL_POWERS],
                         ids=GALLERY_IDS + [REAL_POWERS[0]])
def test_scalar_jets_equal_array_jets(name, e, box):
    # 200 points of the expression's chart, at order 3
    rng = np.random.default_rng(sum(map(ord, name)))
    u = rng.uniform(box[0], box[1], 200)
    v = rng.uniform(box[2], box[3], 200)
    blocks = _outcome(eval_jet, e, (u, v), 3)[0]
    width = [len(b) // 200 for b in blocks]
    for i in range(200):
        one = _outcome(eval_jet, e, (float(u[i]), float(v[i])), 3)[0]
        got = [b[i * k:(i + 1) * k] for b, k in zip(blocks, width)]
        assert one == got, (name, float(u[i]), float(v[i]))


def _front_inputs(front):
    d = front.domain
    rng = np.random.default_rng(sum(map(ord, front.label)))
    chart = (rng.uniform(d.u0, d.u1, (4, 3)), rng.uniform(d.v0, d.v1, (4, 3)))
    return dict(INPUTS, chart=chart)


@pytest.mark.parametrize("name", gallery_names())
def test_front_jets_equal_each_field_on_its_own(name):
    front = gallery(name)
    for kind, uv in _front_inputs(front).items():
        for om in range(4):
            for on in range(4):
                want = [_outcome(eval_jet, front.map, uv, om),
                        _outcome(eval_jet, front.normal, uv, on)]
                try:
                    got = [_blocks(j, uv) for j in front.jets(*uv, om, on)]
                except (ExprDomainError, ValueError) as err:
                    # the joint program fails where the first failing field does
                    got = [_error(err)]
                    want = [w for w in want if not isinstance(w[0], list)][:1]
                assert got == want, (kind, om, on)


@pytest.mark.parametrize("name", gallery_names())
def test_map_jet_is_the_map_part_of_jets(name):
    # the map part of a joint call at normal order 0 has the bits of the
    # map's own jet, and no second program is built per front
    front = gallery(name)
    inputs = _front_inputs(front)
    want = {(kind, order): _outcome(eval_jet, front.map, uv, order)
            for kind, uv in inputs.items() for order in range(4)}
    front.jets(*inputs["array"], 3, 3)
    programs = set(expr_module._PROGRAMS)
    for (kind, order), jet in want.items():
        uv = inputs[kind]
        got = _outcome(lambda e, u, v, k: front.jets(u, v, k, 0)[0], None, uv, order)
        assert got == jet, (kind, order)
        for on in range(4):
            assert _blocks(front.jets(*uv, order, on)[0], uv) == jet, (kind, order, on)
    assert set(expr_module._PROGRAMS) == programs


@pytest.mark.parametrize("name", plane_gallery_names())
def test_plane_joint_equals_each_field_on_its_own(name):
    # the orders _plane_jets asks of the curve field: gamma' at 0 and 1, or
    # gamma at 1 and 2; the normal at 1; t enters reversed on the mirror
    for pf in (plane_gallery(name), mirror_plane_front(plane_gallery(name))):
        deeper = pf.gamma_prime is None
        curve = pf.gamma if deeper else pf.gamma_prime
        for t in (0.31, np.linspace(0.0, pf.period, 37)):
            ts = pf.orientation * np.asarray(t, dtype=float)
            uv = (ts, np.zeros_like(ts))
            for k in (deeper, deeper + 1):
                got = [_blocks(j, uv) for j in eval_jet(pf.joint, *uv, ((2, k), (2, 1)))]
                want = [_outcome(eval_jet, curve, uv, k),
                        _outcome(eval_jet, pf.normal, uv, 1)]
                assert got == want, (pf.label, np.shape(t), k)
        assert pf.joint is pf.joint


_ZERO_INPUTS = {
    "origin": (0.0, 0.0),
    "zeros": (np.array([0.0, -0.0, 0.5]), np.array([-0.0, 0.0, 0.0])),
}


@pytest.mark.parametrize("name,e,box", GALLERY_EXPRS, ids=GALLERY_IDS)
def test_truncated_jets_equal_lower_order_jets(name, e, box):
    # signed zeros included: the low-degree coefficients do not depend on
    # the order they were evaluated at
    for kind, uv in dict(INPUTS, **_ZERO_INPUTS).items():
        for n in range(1, 4):
            try:
                high = eval_jet(e, *uv, n)
            except (ExprDomainError, ValueError):
                continue
            blocks, hit, _ = _blocks(high, uv)
            for m in range(n):
                got = (blocks[:(m + 1) * (m + 2) // 2], hit, m)
                assert got == _outcome(eval_jet, e, uv, m), (kind, n, m)


def test_abs_flag_is_per_field():
    def front(map_src, normal_src):
        return Front(parse(map_src), parse(normal_src), Domain(-1.0, 1.0, -1.0, 1.0))

    normal_only = front("(u, v, u*v)", "(0, abs(u), 1)")
    shared = front("(abs(u), v, 0)", "(0, abs(u), 1)")
    for uv in [(0.0, 0.5), (np.array([0.5, 0.0]), np.array([0.1, 0.2]))]:
        jf, jn = normal_only.jets(*uv, 2, 1)
        assert (jf.abs_at_zero, jn.abs_at_zero) == (False, True)
        jf, jn = shared.jets(*uv, 0, 3)
        assert (jf.abs_at_zero, jn.abs_at_zero) == (True, True)
    jf, jn = shared.jets(0.5, 0.5, 1, 1)
    assert (jf.abs_at_zero, jn.abs_at_zero) == (False, False)


def test_fields_may_bind_one_parameter_differently():
    f = Front(
        parse("(a*u, v, a*sin(u))", {"a": 2.0}),
        parse("(0, a*sin(u), a)", {"a": -0.0}),
        Domain(-1.0, 1.0, -1.0, 1.0),
    )
    assert f.joint.param_dict() == {"a": 2.0}
    for uv in [(0.3, 0.4), (_U, _V)]:
        got = [_blocks(j, uv) for j in f.jets(*uv, 3, 2)]
        assert got == [_outcome(eval_jet, f.map, uv, 3), _outcome(eval_jet, f.normal, uv, 2)]


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


def test_parse_rejects_w():
    # jets are in the two chart variables only; w is an ordinary name
    with pytest.raises(ParseError, match="unknown identifier 'w'"):
        parse("(u*w, v, sin(w))")
    e = parse("(u*w, v, sin(w))", {"w": 0.4})
    _assert_same(e, (0.2, 0.3), 2)


def test_signed_zero_constants_are_not_merged():
    root = Vector([Num(0.0, 0), Num(-0.0, 0), Var("u", 0)], 0)
    e = Expr(root, (), "(0.0, -0.0, u)")
    assert [op for op, *_ in e.tape.code].count("const") == 2
    j = eval_jet(e, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1)
    assert not np.signbit(j.value[0])
    assert np.signbit(j.value[1])
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
    # the map contains the whole normal, so joining them adds nothing
    assert len(front.joint.tape.code) == len(front.map.tape.code) <= 49


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


def test_lower_order_field_may_take_sqrt_at_zero():
    # what only the map reads is computed to the map's order, so sqrt at
    # exactly 0 fails only where the map's own jet needs its derivative
    f = Front(parse("(u, v, sqrt(u*u))"), parse("(0, sin(u), cos(u))"),
              Domain(-1.0, 1.0, -1.0, 1.0))
    jf, jn = f.jets(0.0, 0.5, 0, 1)
    assert _blocks(jf, (0.0, 0.5)) == _outcome(eval_jet, f.map, (0.0, 0.5), 0)
    assert _blocks(jn, (0.0, 0.5)) == _outcome(eval_jet, f.normal, (0.0, 0.5), 1)
    with pytest.raises(ExprDomainError, match="not differentiable") as info:
        f.jets(0.0, 0.5, 1, 1)
    assert info.value.source == "sqrt(u*u)"


def test_each_shape_compiles_once(monkeypatch):
    monkeypatch.setattr(expr_module, "_PROGRAMS", {})
    made = []

    class Counting(expr_module._Writer):
        def __init__(self, tape):
            made.append(tape)
            super().__init__(tape)

    monkeypatch.setattr(expr_module, "_Writer", Counting)

    def warm(front):
        for om in range(4):
            for on in range(4):
                front.jets(0.3, 1.2, om, on)
                front.jets(_U, _V, om, on)

    front = gallery("ellipsoid_parallel")  # checks its base through its own jets
    assert [tape.shape for tape in made] == [front.joint.tape.shape]
    warm(front)
    warm(gallery("ellipsoid_parallel"))
    warm(gallery("ellipsoid_parallel", {"d": 1.6}))  # another constant, one shape
    assert len(made) == 1
    source = "(sin(u)*v, exp(u-v), u)"
    assert parse(source).program is parse(source).program
    assert len(made) == 2


def test_generated_source_is_in_linecache():
    run, _ = parse("(sqrt(u*u + 1), u*v, v)").program
    name = run.__code__.co_filename
    assert name.startswith("<jet ") and "sqrt(u*u + 1)" in name
    assert linecache.getline(name, 1).startswith("def jet(")
    assert linecache.getline(name, run.__code__.co_firstlineno + 1).strip()


def _taylor_reads(tree):
    """The names a syntax tree reads as `taylor.<name>`."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "taylor"}


def test_taylor_defines_only_what_jet_programs_use():
    """`taylor` defines the names the jet programs call, the names `expr`
    reads while writing them and the helpers those reach, and nothing
    else: one program that uses every function, a quotient, a negative
    integer power and a real power calls every table."""
    calls = " * ".join(f"{name}(u + 2)" for name in sorted(taylor.FUNCTION_NAMES))
    run, _ = parse(f"({calls} / (v + 3) + (u + 2)^(-2), (u + 2)^1.5, v)").program
    program = ast.parse("".join(linecache.getlines(run.__code__.co_filename)))
    used = _taylor_reads(program) | _taylor_reads(ast.parse(Path(expr_module.__file__).read_text()))
    defined = {}
    for node in ast.parse(Path(taylor.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets)
    assert used <= set(defined)
    todo = list(used)
    while todo:  # the helpers
        for n in ast.walk(defined[todo.pop()]):
            if isinstance(n, ast.Name) and n.id in defined and n.id not in used:
                used.add(n.id)
                todo.append(n.id)
    assert set(defined) == used
