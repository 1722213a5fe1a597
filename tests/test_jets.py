"""Tests for the truncated Taylor (jet) arithmetic: `taylor`'s derivative
tables and monomial tables, through the reference `Series` arithmetic of
the oracle `recursive_jet`, and the one-point path of the jet programs,
which runs on Python floats."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from recursive_jet import _ZERO, Series, apply_abs, apply_function, const, sqrt, var

from frontlab import gallery, gallery_names, taylor
from frontlab.errors import ExprDomainError


### finite-difference oracle -------------------------------------------------
# Independent derivative oracle: nested central first differences with one
# Richardson step.  Good to ~1e-9 for the orders and step sizes used here.


def _du(g, h):
    return lambda u, v: (g(u + h, v) - g(u - h, v)) / (2 * h)


def _dv(g, h):
    return lambda u, v: (g(u, v + h) - g(u, v - h)) / (2 * h)


def fd_partial(fun, u, v, i, j, h=5e-3):
    def at(step):
        g = fun
        for _ in range(i):
            g = _du(g, step)
        for _ in range(j):
            g = _dv(g, step)
        return g(u, v)

    coarse, fine = at(h), at(h / 2)
    return (4.0 * fine - coarse) / 3.0


def _series_at(fun_series, u, v, order=3):
    space = taylor.jet_space(order)
    return fun_series(var(space, 0, u), var(space, 1, v))


SMOOTH_CASES = [
    ("product/quotient", lambda su, sv: su * sv / (1.0 + su * su)),
    ("sin*exp", lambda su, sv: apply_function("sin", su) * apply_function("exp", sv)),
    ("tan", lambda su, sv: apply_function("tan", su * 0.4 + sv * 0.1)),
    ("tanh*cosh", lambda su, sv: apply_function("tanh", su) * apply_function("cosh", sv)),
    ("sech", lambda su, sv: apply_function("sech", su + sv * sv)),
    ("atan", lambda su, sv: apply_function("atan", su * sv)),
    ("log", lambda su, sv: apply_function("log", 2.0 + su + sv * sv)),
    ("sqrt", lambda su, sv: sqrt(1.0 + su * su + sv * sv)),
    ("sinh+cos", lambda su, sv: apply_function("sinh", sv) + apply_function("cos", su)),
    ("powr", lambda su, sv: (1.5 + su).powr(0.75) * sv),
    ("powi", lambda su, sv: (su + 2.0 * sv) ** 3),
    ("powi_neg", lambda su, sv: (2.0 + su * su) ** (-2)),
]


class TestSeriesDerivatives:
    """Every coefficient of a Series is the exact partial derivative."""

    @pytest.mark.parametrize("label,fun", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
    def test_partials_match_fd_oracle(self, label, fun):
        rng = np.random.default_rng(421)
        def scalar(u, v):
            return _series_at(fun, u, v, order=0).value

        for _ in range(12):
            u, v = rng.uniform(-0.8, 0.8, size=2)
            s = _series_at(fun, u, v)
            for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]:
                got = s.partial(alpha)
                want = fd_partial(scalar, u, v, *alpha)
                tol = 1e-6 * max(1.0, abs(want))
                assert abs(got - want) < tol, (
                    f"{label}: d{alpha} at ({u:.3f},{v:.3f}): jet {got} vs oracle {want}"
                )

    def test_third_derivative_tables_frozen_values(self):
        # hand-derived third derivatives at t = 0.4
        t = 0.4
        space = taylor.jet_space(3)
        x = var(space, 0, t)
        checks = {
            "tan": 2.0 + 8.0 * np.tan(t) ** 2 + 6.0 * np.tan(t) ** 4,
            "tanh": -2.0 + 8.0 * np.tanh(t) ** 2 - 6.0 * np.tanh(t) ** 4,
            "atan": (6.0 * t * t - 2.0) / (1.0 + t * t) ** 3,
            "sech": (1 / np.cosh(t)) * np.tanh(t) * (5.0 - 6.0 * np.tanh(t) ** 2),
        }
        for name, want in checks.items():
            got = apply_function(name, x).partial((3, 0))
            assert got == pytest.approx(want, rel=1e-12), f"{name}''' at {t}"

    def test_array_coefficients_broadcast(self):
        space = taylor.jet_space(2)
        uu = np.linspace(-1.0, 1.0, 7)
        vv = np.full(7, 0.25)
        s = apply_function("exp", var(space, 0, uu)) * var(space, 1, vv)
        assert s.value.shape == (7,)
        np.testing.assert_allclose(s.partial((1, 0)), np.exp(uu) * vv, rtol=1e-13)
        np.testing.assert_allclose(s.partial((0, 1)), np.exp(uu), rtol=1e-13)
        np.testing.assert_allclose(s.partial((2, 0)), np.exp(uu) * vv, rtol=1e-13)


class TestDomainHandling:
    """Scalar domain violations raise; array violations become NaN."""

    def test_log_nonpositive_scalar_raises(self):
        space = taylor.jet_space(2)
        with pytest.raises(ExprDomainError):
            apply_function("log", var(space, 0, -1.0))
        with pytest.raises(ExprDomainError):
            apply_function("log", var(space, 0, 0.0))

    def test_log_nonpositive_array_is_nan(self):
        space = taylor.jet_space(1)
        s = apply_function("log", var(space, 0, np.array([1.0, -1.0, np.e])))
        assert np.isnan(s.value[1]) and np.isnan(s.partial((1, 0))[1])
        assert s.value[2] == pytest.approx(1.0)

    def test_sqrt_at_zero(self):
        space0 = taylor.jet_space(0)
        assert sqrt(var(space0, 0, 0.0)).value == 0.0
        space1 = taylor.jet_space(1)
        with pytest.raises(ExprDomainError):
            sqrt(var(space1, 0, 0.0))
        arr = sqrt(var(space1, 0, np.array([0.0, 4.0])))
        assert arr.value[0] == 0.0 and np.isnan(arr.partial((1, 0))[0])
        assert arr.partial((1, 0))[1] == pytest.approx(0.25)

    def test_division_by_zero_scalar_raises(self):
        space = taylor.jet_space(1)
        with pytest.raises(ExprDomainError):
            var(space, 0, 0.0).reciprocal()

    def test_powr_negative_base(self):
        space = taylor.jet_space(1)
        with pytest.raises(ExprDomainError):
            var(space, 0, -2.0).powr(0.5)
        s = var(space, 0, np.array([-2.0, 2.0])).powr(0.5)
        assert np.isnan(s.value[0]) and s.value[1] == pytest.approx(np.sqrt(2.0))

    def test_abs_at_zero_flag_and_right_derivative(self):
        space = taylor.jet_space(2)
        s, hit = apply_abs(var(space, 0, 0.0))
        assert hit and s.value == 0.0 and s.partial((1, 0)) == 1.0
        s2, hit2 = apply_abs(var(space, 0, -0.7))
        assert not hit2 and s2.partial((1, 0)) == -1.0

    @pytest.mark.parametrize("table", [taylor._d_sech, taylor._d_tanh])
    def test_far_arguments_do_not_warn(self, table):
        # cosh overflows past |c| = 710.48: sech is exactly +0 there, and
        # numpy's overflow warning stays inside the table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (800.0, -800.0, np.array([800.0, -800.0])):
                d = [np.asarray(x) for x in table(c, 3)]
                assert all((x == 0.0).all() for x in d[1:])
                sech = d[0] if table is taylor._d_sech else d[1]
                assert not np.signbit(sech).any()
                assert table is taylor._d_sech or (d[0] == np.sign(c)).all()

    def test_sech_keeps_its_bits_where_cosh_is_finite(self):
        c = np.concatenate([np.linspace(-710.0, 710.0, 20001),
                            [taylor._COSH_MAX, -taylor._COSH_MAX, 0.0, -0.0, np.nan]])
        want = 1.0 / np.cosh(c)
        assert np.isfinite(np.cosh(taylor._COSH_MAX))
        assert taylor._d_sech(c, 0)[0].tobytes() == want.tobytes()
        assert taylor._d_tanh(c, 1)[1].tobytes() == (want * want).tobytes()
        for x in c[::97].tolist() + c[-5:].tolist():
            got = taylor._d_sech(x, 0)[0]
            assert type(got) is float
            assert np.float64(got).tobytes() == (1.0 / np.cosh(x)).tobytes(), x


# a point given as each kind of scalar the jets take
SCALAR_KINDS = {
    "float": float,
    "float64": np.float64,
    "0-d array": np.array,
}


class TestScalarTables:
    """Each derivative table takes its scalar branch for every kind of
    scalar: float, numpy float64, int and 0-d array."""

    KINDS = {**SCALAR_KINDS, "int": int}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("table,args,message", [
        (taylor._d_log, (-1, 2), "log of non-positive value -1.0"),
        (taylor._d_log, (0, 2), "log of non-positive value 0.0"),
        (taylor._d_sqrt, (-1, 2), "sqrt of negative value -1.0"),
        (taylor._d_sqrt, (0, 1), "sqrt is not differentiable at 0"),
        (taylor._d_reciprocal, (0, 2), "division by zero"),
        (taylor._d_pow, (-2, 0.5, 1), "-2.0 ^ 0.5 needs a positive base"),
    ])
    def test_domain_violations_raise(self, kind, table, args, message):
        with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
            table(self.KINDS[kind](args[0]), *args[1:])

    @pytest.mark.parametrize("kind", KINDS)
    def test_abs_sign_is_a_float(self, kind):
        for c, sign in ((-2, -1.0), (0, 1.0), (3, 1.0)):
            (mag, got), hit = taylor._d_abs(self.KINDS[kind](c), 1)
            assert type(got) is float and got == sign and mag == abs(c)
            assert hit is (c == 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_far_sech_is_zero_without_warning(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = taylor._sech(self.KINDS[kind](800))
        assert type(got) is float and got == 0.0 and not np.signbit(got)

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_sqrt_at_infinity_matches_the_array_branch(self, kind):
        want = taylor._d_sqrt(np.array([math.inf]), 3)
        got = taylor._d_sqrt(SCALAR_KINDS[kind](math.inf), 3)
        assert [np.float64(x).tobytes() for x in got] == [x[0].tobytes() for x in want]
        assert [np.float64(x).tobytes() for x in got] == [
            np.float64(x).tobytes() for x in (math.inf, 0.0, -0.0, 0.0)]
        for n in range(3):
            assert taylor._d_sqrt(SCALAR_KINDS[kind](math.inf), n) == got[:n + 1]

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_sqrt_of_nan_and_negative_infinity_raise(self, kind):
        with pytest.raises(ExprDomainError, match="^sqrt of NaN$"):
            taylor._d_sqrt(SCALAR_KINDS[kind](math.nan), 0)
        with pytest.raises(ExprDomainError, match="^sqrt of negative value -inf$"):
            taylor._d_sqrt(SCALAR_KINDS[kind](-math.inf), 0)


# fractions of each gallery front's domain, away from its edges
_FRACTIONS = ((0.3, 0.37), (0.61, 0.52), (0.83, 0.71))


def _points(front):
    d = front.domain
    return [(d.u0 + a * (d.u1 - d.u0), d.v0 + b * (d.v1 - d.v0)) for a, b in _FRACTIONS]


def _components(jets):
    """Each component of each partial of each jet, in turn."""
    return [c for jet in jets for block in jet.blocks for partial in block for c in partial]


class TestScalarJets:
    """A point's jets run on Python floats whatever kind of scalar gives the
    point, the derivative tables' numpy results included, and keep the
    bits of the matching row of an array call."""

    @pytest.mark.parametrize("name", gallery_names())
    def test_every_kind_of_point_keeps_the_array_bits(self, name):
        front = gallery(name)
        points = _points(front)
        us, vs = np.array(points).T
        for orders in itertools.product(range(taylor.MAX_ORDER + 1), repeat=2):
            rows = _components(front.jets(us, vs, *orders))
            for i, (u, v) in enumerate(points):
                want = [np.broadcast_to(c, us.shape)[i].tobytes() for c in rows]
                for kind, make in SCALAR_KINDS.items():
                    got = _components(front.jets(make(u), make(v), *orders))
                    assert [np.float64(c).tobytes() for c in got] == want, (name, orders, kind)
                    assert all(type(c) is float for c in got), (name, orders, kind)


class TestJetSpace:
    def test_monomial_order_two_vars(self):
        space = taylor.jet_space(3)
        assert space.monomials == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
        )

    def test_spaces_are_cached(self):
        assert taylor.jet_space(3) is taylor.jet_space(3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            taylor.JetSpace(-1)
        with pytest.raises(ValueError):
            taylor.JetSpace(5)


class TestSentinelArithmetic:
    """`*`, `+` and `-` against plain loops that treat a never-written
    coefficient as absent, signed zeros included."""

    def _random_coeffs(self, space, rng):
        pool = [_ZERO, 0.0, -0.0, 1.5, -0.25,
                np.array([0.0, -0.0, 2.0, -3.5]), np.array([-0.0, 1.0, 0.0, -0.0])]
        return [pool[i] for i in rng.integers(0, len(pool), space.ncoef)]

    def _same(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is _ZERO:
                assert g is _ZERO
            else:
                assert g is not _ZERO
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def _product(self, space, a, b):
        out = [_ZERO] * space.ncoef
        for i, mi in enumerate(space.monomials):
            for j, mj in enumerate(space.monomials):
                k = space.index.get((mi[0] + mj[0], mi[1] + mj[1]))
                if k is None or a[i] is _ZERO or b[j] is _ZERO:
                    continue
                term = a[i] * b[j]
                out[k] = term if out[k] is _ZERO else out[k] + term
        return out

    def _sum(self, a, b, sign):
        out = []
        for x, y in zip(a, b):
            if y is _ZERO:
                out.append(x)
            elif x is _ZERO:
                out.append(y if sign > 0 else -y)
            else:
                out.append(x + y if sign > 0 else x - y)
        return out

    @pytest.mark.parametrize("nvars,order", [(2, 1), (2, 3)])
    def test_against_loops(self, nvars, order):
        space = taylor.jet_space(order)
        rng = np.random.default_rng(10 * nvars + order)
        for _ in range(200):
            a = self._random_coeffs(space, rng)
            b = self._random_coeffs(space, rng)
            x, y = Series(space, a), Series(space, b)
            self._same((x * y).c, self._product(space, a, b))
            self._same((x + y).c, self._sum(a, b, +1))
            self._same((x - y).c, self._sum(a, b, -1))

    def test_negative_zero_survives(self):
        space = taylor.jet_space(2)
        prod = const(space, -0.0) * var(space, 0, 1.0)
        assert np.signbit(prod.value) and np.signbit(prod.partial((1, 0)))
        for order in range(4):
            sine = apply_function("sin", var(taylor.jet_space(order), 0, -0.0))
            assert np.signbit(sine.value), order
