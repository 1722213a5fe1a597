"""Tests for expression parsing, printing, and jet evaluation."""

import math
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from finite_difference import finite_difference_jet

from frontlab import (
    ExprDomainError,
    Jet2,
    ParseError,
    eval_jet,
    gallery,
    parse,
    to_source,
)
from frontlab.expr import BinOp, Num, Var, Vector
from frontlab.front import stack

# expressions in the shape of the built-in surface gallery
REPRESENTATIVE = [
    ("(a*u^2+v^2, b*v^2+v^3, u)", {"a": 1.0, "b": 1.0}),
    ("(a*u^2+v^2, b*v^2+v^3, u)", {"a": -2.0, "b": 0.5}),
    ("(u, v, 0)", {}),
    ("(3*u^2, -2*u^3, v)", {}),
    ("(sin(u)*cos(v), sin(u)*sin(v), cos(u))", {}),
    ("(u - tanh(u), sech(u)*cos(v), sech(u)*sin(v))", {}),
    ("(exp(u)*cos(v), exp(u)*sin(v), atan(u))", {}),
    ("(sqrt(1+u^2+v^2), u*v/(2+cos(u)), u)", {}),
]


class TestParse:
    def test_cuspidal_parabola_parses_to_three_vector(self):
        e = parse("(a*u^2+v^2, b*v^2+v^3, u)", {"a": 1, "b": 1})
        assert e.ncomponents == 3

    def test_plane_parses(self):
        assert parse("(u, v, 0)").ncomponents == 3

    def test_double_comma_errors_at_offset_3(self):
        with pytest.raises(ParseError) as info:
            parse("(u,, v)")
        assert info.value.position == 3
        assert info.value.expected  # non-empty expected set

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            parse("(q, v, 0)")

    def test_parameter_must_be_declared(self):
        parse("(a*u, v, 0)", {"a": 2.0})  # fine
        with pytest.raises(ParseError):
            parse("(a*u, v, 0)")

    def test_bare_function_name_errors(self):
        with pytest.raises(ParseError) as info:
            parse("(sin, v, 0)")
        assert "'('" in info.value.expected

    def test_calling_a_parameter_errors(self):
        with pytest.raises(ParseError, match="is not a function"):
            parse("(q(u), v, 0)", {"q": 1.0})

    def test_vector_arity_cap(self):
        with pytest.raises(ParseError, match="arity"):
            parse("(u, v, 0, 1, 2)")

    def test_vector_only_at_root(self):
        with pytest.raises(ParseError):
            parse("((u, v, 0)) + u")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("(u, v, 0) u")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as info:
            parse("(u, v, 0$)")
        assert info.value.position == 8

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError, match="constant"):
            parse("(u^v, v, 0)")

    def test_constant_arithmetic_exponent_folds(self):
        e = parse("(u^(a+1), v, 0)", {"a": 1.0})
        j = eval_jet(e, 3.0, 0.0, 1)
        assert j.value[0] == pytest.approx(9.0)
        assert j.f_u[0] == pytest.approx(6.0)

    @pytest.mark.parametrize("exponent", [
        "log(0-1)", "sqrt(0-4)", "(0^(0-1))", "exp(1000)", "(10^400)", "((0-8)^0.5)",
    ])
    def test_unfoldable_exponent_is_a_parse_error(self, exponent):
        with pytest.raises(ParseError, match="does not fold") as info:
            parse(f"(u^{exponent}, v, 0)")
        assert info.value.position == 2

    def test_constant_exponents_fold_as_math(self):
        folded = [c.exponent for c in parse("(u^sech(1), u^(2/0), u^(2^0.5))").root.components]
        assert folded[0] == 1.0 / np.cosh(1.0)
        assert math.isnan(folded[1]) and folded[2] == 2.0 ** 0.5

    def test_negative_integer_exponent(self):
        e = parse("(u^(0-2), v, 0)")
        j = eval_jet(e, 2.0, 0.0, 1)
        assert j.value[0] == pytest.approx(0.25)
        assert j.f_u[0] == pytest.approx(-0.25)

    def test_parameter_name_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            parse("(u, v, 0)", {"u": 1.0})
        with pytest.raises(ValueError, match="collides"):
            parse("(u, v, 0)", {"sin": 1.0})


class TestPrintRoundTrip:
    """parse -> print -> parse reproduces the tree exactly."""

    SOURCES = [
        "(a*u^2+v^2, b*v^2+v^3, u)",
        "(u, v, 0)",
        "(sin(u)*cos(v), -u/(1+v^2), sqrt(1+u^2))",
        "(-u^2, u*-v, (u+v)*(u-v))",
        "(u/(v/(1+u)), u-(v-1), 2-u-v)",
        "(abs(u)^3, sech(u+v), log(2+sin(v)))",
        "(u^(0-1.5), v, 1e-2*u)",
        "(1e400*u, v, -1e400)",
        "(u^1e400, v, 1e400-1e400)",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_round_trip_structural_identity(self, source):
        params = {"a": 1.25, "b": -0.5}
        e = parse(source, params)
        again = parse(to_source(e), params)
        assert again == e, f"{source!r} -> {to_source(e)!r} reparses differently"

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_constants_print_parseably(self, a):
        # such a constant comes from a literal like 1e400 or an inlined parameter
        text = to_source(Vector([Var("u", 0), Var("v", 0), BinOp("*", Num(a, 0), Var("u", 0), 0)], 0))
        assert "inf" not in text and "nan" not in text
        with np.errstate(invalid="ignore"):  # inf * 0 in the v-slope
            c = eval_jet(parse(text), 1.0, 0.25, 1).value[2]
        assert math.isnan(c) if math.isnan(a) else np.float64(c).tobytes() == np.float64(a).tobytes()

    def test_round_trip_is_idempotent(self):
        e = parse("(u - -v, -(u+v), u*v/(u+2))")
        printed = to_source(e)
        assert to_source(parse(printed)) == printed


class TestEvalJet:
    def test_cuspidal_parabola_origin_jet(self):
        e = parse("(a*u^2+v^2, b*v^2+v^3, u)", {"a": 1, "b": 1})
        j = eval_jet(e, 0.0, 0.0, 2)
        np.testing.assert_array_equal(j.value, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.f_u, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(j.f_v, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.f_vv, [2.0, 2.0, 0.0])

    def test_plane_first_order(self):
        j = eval_jet(parse("(u, v, 0)"), 3.0, 4.0, 1)
        np.testing.assert_array_equal(j.value, [3.0, 4.0, 0.0])
        np.testing.assert_array_equal(j.f_u, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.f_v, [0.0, 1.0, 0.0])

    def test_sin_second_order(self):
        j = eval_jet(parse("(sin(u), 0, 0)"), 0.0, 0.0, 2)
        np.testing.assert_array_equal(j.f_u, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.f_uu, [0.0, 0.0, 0.0])

    def test_order_zero_has_no_derivative_blocks(self):
        j = eval_jet(parse("(u, v, 0)"), 1.0, 2.0, 0)
        with pytest.raises(ValueError, match="order"):
            _ = j.f_u

    def test_scalar_root_rejected(self):
        e = parse("u + v")
        with pytest.raises(ValueError, match="vector"):
            eval_jet(e, 0.0, 0.0, 1)

    def test_order_above_three_rejected(self):
        with pytest.raises(ValueError, match="order must be 0..3, got 4"):
            eval_jet(parse("(u, v, 0)"), 0.5, 0.5, 4)

    def test_fields_must_cover_every_component(self):
        with pytest.raises(ValueError, match="fields cover 2 of 3 components"):
            eval_jet(parse("(u, v, 0)"), 0.5, 0.5, ((2, 1),))

    def test_scalar_sqrt_of_negative_rejected(self):
        # a point's jets run on floats, which raise where arrays give NaN
        with pytest.raises(ExprDomainError, match="sqrt of negative value -1.0"):
            eval_jet(parse("(sqrt(u), v, 0)"), -1.0, 0.5, 0)

    def test_mixed_partial_symmetry_against_oracle(self):
        e = parse("(sin(u*v)+u^3*v, exp(u-v), u*v^2)")
        j = eval_jet(e, 0.4, -0.3, 2)

        def cb(uu, vv):
            return eval_jet(e, uu, vv, 0).value

        h = 1e-4
        duv = (
            np.array(cb(0.4 + h, -0.3 + h)) - cb(0.4 + h, -0.3 - h)
            - cb(0.4 - h, -0.3 + h) + cb(0.4 - h, -0.3 - h)
        ) / (4 * h * h)
        np.testing.assert_allclose(j.f_uv, duv, atol=5e-7)

    def test_grid_evaluation_shapes_and_nan(self):
        e = parse("(log(u), sqrt(v), u/v)")
        uu = np.array([[1.0, -1.0], [2.0, 3.0]])
        vv = np.array([[4.0, 1.0], [0.0, 9.0]])
        j = eval_jet(e, uu, vv, 1)
        assert [c.shape for c in j.value] == [(2, 2)] * 3
        assert np.isnan(j.value[0][0, 1])  # log(-1)
        assert np.isnan(j.value[2][1, 0])  # 2/0
        assert j.value[1][1, 1] == pytest.approx(3.0)

    def test_domain_error_reports_offending_node(self):
        e = parse("(log(u-1), v, 0)")
        with pytest.raises(ExprDomainError) as info:
            eval_jet(e, 0.5, 0.0, 1)
        assert "log" in str(info.value)
        e2 = parse("(1/u, v, 0)")
        with pytest.raises(ExprDomainError) as info2:
            eval_jet(e2, 0.0, 0.0, 1)
        assert "division" in str(info2.value)

    def test_abs_diagnostic_flag(self):
        e = parse("(abs(u), v, 0)")
        j = eval_jet(e, 0.0, 1.0, 1)
        assert j.abs_at_zero and j.f_u[0] == 1.0
        assert not eval_jet(e, 0.5, 1.0, 1).abs_at_zero

    def test_concurrent_evaluation_is_deterministic(self):
        e = parse("(sin(u)*cos(v), u*v, exp(u-v))")
        points = [(0.1 * k, -0.05 * k) for k in range(32)]

        def run(pt):
            return eval_jet(e, pt[0], pt[1], 2).f_uv

        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, points))
        serial = [run(pt) for pt in points]
        for a, b in zip(parallel, serial):
            np.testing.assert_array_equal(a, b)


class TestAlong:
    """`Jet2.along` against the directional sums it replaced, written on
    the (..., 3) arrays jets used to interleave their components in."""

    @staticmethod
    def _jets():
        rng = np.random.default_rng(20050309)
        u, v = rng.uniform(-1.0, 1.0, (2, 50))
        d = rng.normal(size=(2, 50))
        for name, field in (("kuen", "map"), ("ellipsoid_parallel", "normal"),
                            ("standard_swallowtail", "map")):
            e = getattr(gallery(name), field)
            yield eval_jet(e, u, v, 3), d
            for i in range(0, 50, 10):
                yield eval_jet(e, float(u[i]), float(v[i]), 3), d[:, i]

    @staticmethod
    def _interleaved_along(j, d, k):
        """along as it was written on interleaved blocks."""
        d0, d1 = (np.asarray(x)[..., None] for x in d)
        f = {name: stack(getattr(j, name)) for name in
             ("f_u", "f_v", "f_uu", "f_uv", "f_vv", "f_uuu", "f_uuv", "f_uvv", "f_vvv")}
        if k == 1:
            return d0 * f["f_u"] + d1 * f["f_v"]
        if k == 2:
            return (d0 * d0) * f["f_uu"] + (2.0 * d0 * d1) * f["f_uv"] + (d1 * d1) * f["f_vv"]
        return ((d0 * d0 * d0) * f["f_uuu"] + (3.0 * d0 * d0 * d1) * f["f_uuv"]
                + (3.0 * d0 * d1 * d1) * f["f_uvv"] + (d1 * d1 * d1) * f["f_vvv"])

    def _assert_interleaved_bits(self, j, d):
        shape = np.broadcast_shapes(*(np.shape(c) for b in j.d1 + j.d2 + j.d3 for c in b),
                                    np.shape(d[0]), np.shape(d[1]))
        for k in (1, 2, 3):
            got = np.stack([np.broadcast_to(c, shape) for c in j.along(d, k)], axis=-1)
            want = np.broadcast_to(self._interleaved_along(j, d, k), shape + (3,))
            assert got.tobytes() == want.tobytes(), k

    def test_first_and_second_order_bit_identical(self):
        for j, d in self._jets():
            self._assert_interleaved_bits(j, d)

    def test_special_values_in_every_shape(self):
        # random blocks with +-0, +-inf, NaN and 1e308: single points, flat
        # batches, and columns, rows and constants of a grid
        rng = np.random.default_rng(11)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e-308])

        def draw(shape):
            x = rng.standard_normal(shape)
            hit = rng.random(shape) < 0.3
            x[hit] = rng.choice(special, size=int(hit.sum()))
            return x

        def jet(comp):
            blocks = [tuple(comp(i) for i in range(3)) for _ in range(10)]
            return Jet2(value=blocks[0], d1=tuple(blocks[1:3]), d2=tuple(blocks[3:6]),
                        d3=tuple(blocks[6:10]), order=3)

        shapes = [(64, 1), (1, 64), ()]
        cases = [
            (jet(lambda i: float(draw(()))), tuple(float(x) for x in draw(2))),
            (jet(lambda i: draw(4000)), draw((2, 4000))),
            (jet(lambda i: draw(shapes[i])), (draw((64, 1)), draw((1, 64)))),
            (jet(lambda i: draw(shapes[i])), (draw(()), draw((64, 64)))),
        ]
        with np.errstate(all="ignore"):
            for j, d in cases:
                self._assert_interleaved_bits(j, d)

    def test_third_order_matches_explicit_sum(self):
        for j, d in self._jets():
            a, b = (x[..., None] for x in d)
            fuuu, fuuv, fuvv, fvvv = (stack(x) for x in j.d3)
            terms = [a**3 * fuuu, 3.0 * a**2 * b * fuuv, 3.0 * a * b**2 * fuvv, b**3 * fvvv]
            scale = sum(np.abs(t) for t in terms)
            np.testing.assert_array_less(
                np.abs(stack(j.along(d, 3)) - sum(terms)), 1e-14 * scale + 1e-300)

    def test_order_out_of_range(self):
        j = eval_jet(parse("(u, v, u*v)"), 0.1, 0.2, 3)
        with pytest.raises(ValueError):
            j.along((1.0, 0.0), 4)


class TestFiniteDifferenceJet:
    def test_cuspidal_parabola_cross_check(self):
        e = parse("(a*u^2+v^2, b*v^2+v^3, u)", {"a": 1, "b": 1})

        def cb(u, v):
            return (u * u + v * v, v * v + v**3, u)

        jfd = finite_difference_jet(cb, 0.3, 0.2, 2)
        je = eval_jet(e, 0.3, 0.2, 2)
        blocks = [(je.value, jfd.value)]
        blocks += list(zip(je.d1, jfd.d1)) + list(zip(je.d2, jfd.d2))
        dev = max(float(np.max(np.abs(a - b))) for a, b in blocks)
        assert dev < 1e-6, f"max abs deviation {dev}"

    def test_constant_map_all_zero(self):
        j = finite_difference_jet(lambda u, v: (1.0, 2.0, 3.0), 0.7, -0.4, 3)
        for block in (j.d1, j.d2, j.d3):
            for part in block:
                np.testing.assert_array_equal(part, [0.0, 0.0, 0.0])

    def test_linear_map(self):
        j = finite_difference_jet(lambda u, v: (u, v, u + v), 0.25, 0.125, 2)
        np.testing.assert_allclose(j.f_u, [1.0, 0.0, 1.0], atol=1e-11)
        np.testing.assert_allclose(j.f_v, [0.0, 1.0, 1.0], atol=1e-11)
        for part in j.d2:
            assert np.max(np.abs(part)) < 1e-9

    def test_explicit_step_third_order(self):
        # default step is too small for stable third differences; a coarser
        # one recovers them to ~1e-5
        def cb(u, v):
            return (np.sin(u) * np.cos(v), u**3 * v, np.exp(v))

        e = parse("(sin(u)*cos(v), u^3*v, exp(v))")
        jfd = finite_difference_jet(cb, 0.2, 0.1, 3, h=1e-2)
        je = eval_jet(e, 0.2, 0.1, 3)
        for a, b in zip(je.d3, jfd.d3):
            np.testing.assert_allclose(a, b, atol=5e-4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_jet(lambda u, v: (u, v, 0.0), 0.0, 0.0, 1, h=0.0)


class TestGalleryShapedCrossCheck:
    """eval_jet vs finite_difference_jet over representative expressions.

    The default step is tuned for first derivatives; second differences need
    a coarser one (eps^(1/4)) to stay under the same error budget, so the two
    blocks are cross-checked with separate steps.
    """

    H2 = float(np.finfo(float).eps) ** 0.25

    @pytest.mark.parametrize("source,params", REPRESENTATIVE,
                             ids=[s for s, _ in REPRESENTATIVE])
    def test_first_and_second_partials_agree(self, source, params):
        e = parse(source, params)
        # crc32, not hash(): the builtin string hash is salted per process
        # and would move the probe points between runs
        rng = np.random.default_rng(zlib.crc32(source.encode()))

        def cb(uu, vv):
            return eval_jet(e, uu, vv, 0).value

        for _ in range(100):
            u = float(rng.uniform(-0.9, 0.9))
            v = float(rng.uniform(-0.9, 0.9))
            je = eval_jet(e, u, v, 2)
            jd1 = finite_difference_jet(cb, u, v, 1)
            jd2 = finite_difference_jet(cb, u, v, 2, h=self.H2)
            # second differences carry a larger roundoff floor (~eps/h^2)
            for floor, pairs in ((1e-8, zip(je.d1, jd1.d1)),
                                 (1e-7, zip(je.d2, jd2.d2))):
                for a, b in pairs:
                    err = np.abs(a - b)
                    bound = floor + 1e-6 * np.maximum(np.abs(a), np.abs(b))
                    assert np.all(err <= bound), (
                        f"{source} at ({u:.3f},{v:.3f})")
