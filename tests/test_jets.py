"""Tests for the truncated Taylor (jet) arithmetic engine."""

import numpy as np
import pytest

from frontlab import taylor
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
    space = taylor.jet_space(2, order)
    return fun_series(space.var(0, u), space.var(1, v))


SMOOTH_CASES = [
    ("product/quotient", lambda su, sv: su * sv / (1.0 + su * su)),
    ("sin*exp", lambda su, sv: taylor.apply_function("sin", su) * taylor.apply_function("exp", sv)),
    ("tan", lambda su, sv: taylor.apply_function("tan", su * 0.4 + sv * 0.1)),
    ("tanh*cosh", lambda su, sv: taylor.apply_function("tanh", su) * taylor.apply_function("cosh", sv)),
    ("sech", lambda su, sv: taylor.apply_function("sech", su + sv * sv)),
    ("atan", lambda su, sv: taylor.apply_function("atan", su * sv)),
    ("log", lambda su, sv: taylor.apply_function("log", 2.0 + su + sv * sv)),
    ("sqrt", lambda su, sv: taylor.sqrt(1.0 + su * su + sv * sv)),
    ("sinh+cos", lambda su, sv: taylor.apply_function("sinh", sv) + taylor.apply_function("cos", su)),
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
        space = taylor.jet_space(1, 3)
        x = space.var(0, t)
        checks = {
            "tan": 2.0 + 8.0 * np.tan(t) ** 2 + 6.0 * np.tan(t) ** 4,
            "tanh": -2.0 + 8.0 * np.tanh(t) ** 2 - 6.0 * np.tanh(t) ** 4,
            "atan": (6.0 * t * t - 2.0) / (1.0 + t * t) ** 3,
            "sech": (1 / np.cosh(t)) * np.tanh(t) * (5.0 - 6.0 * np.tanh(t) ** 2),
        }
        for name, want in checks.items():
            got = taylor.apply_function(name, x).partial((3,))
            assert got == pytest.approx(want, rel=1e-12), f"{name}''' at {t}"

    def test_deriv_shifts_coefficients(self):
        space = taylor.jet_space(2, 3)
        u, v = space.var(0, 0.3), space.var(1, -0.2)
        s = taylor.apply_function("sin", u * v) + u ** 3
        ds = s.deriv(0)
        for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            lifted = (alpha[0] + 1, alpha[1])
            assert ds.partial(alpha) == pytest.approx(s.partial(lifted), rel=1e-13)

    def test_array_coefficients_broadcast(self):
        space = taylor.jet_space(2, 2)
        uu = np.linspace(-1.0, 1.0, 7)
        vv = np.full(7, 0.25)
        s = taylor.apply_function("exp", space.var(0, uu)) * space.var(1, vv)
        assert s.value.shape == (7,)
        np.testing.assert_allclose(s.partial((1, 0)), np.exp(uu) * vv, rtol=1e-13)
        np.testing.assert_allclose(s.partial((0, 1)), np.exp(uu), rtol=1e-13)
        np.testing.assert_allclose(s.partial((2, 0)), np.exp(uu) * vv, rtol=1e-13)


class TestDomainHandling:
    """Scalar domain violations raise; array violations become NaN."""

    def test_log_nonpositive_scalar_raises(self):
        space = taylor.jet_space(1, 2)
        with pytest.raises(ExprDomainError):
            taylor.apply_function("log", space.var(0, -1.0))
        with pytest.raises(ExprDomainError):
            taylor.apply_function("log", space.var(0, 0.0))

    def test_log_nonpositive_array_is_nan(self):
        space = taylor.jet_space(1, 1)
        s = taylor.apply_function("log", space.var(0, np.array([1.0, -1.0, np.e])))
        assert np.isnan(s.value[1]) and np.isnan(s.partial((1,))[1])
        assert s.value[2] == pytest.approx(1.0)

    def test_sqrt_at_zero(self):
        space0 = taylor.jet_space(1, 0)
        assert taylor.sqrt(space0.var(0, 0.0)).value == 0.0
        space1 = taylor.jet_space(1, 1)
        with pytest.raises(ExprDomainError):
            taylor.sqrt(space1.var(0, 0.0))
        arr = taylor.sqrt(space1.var(0, np.array([0.0, 4.0])))
        assert arr.value[0] == 0.0 and np.isnan(arr.partial((1,))[0])
        assert arr.partial((1,))[1] == pytest.approx(0.25)

    def test_division_by_zero_scalar_raises(self):
        space = taylor.jet_space(1, 1)
        with pytest.raises(ExprDomainError):
            space.var(0, 0.0).reciprocal()

    def test_powr_negative_base(self):
        space = taylor.jet_space(1, 1)
        with pytest.raises(ExprDomainError):
            space.var(0, -2.0).powr(0.5)
        s = space.var(0, np.array([-2.0, 2.0])).powr(0.5)
        assert np.isnan(s.value[0]) and s.value[1] == pytest.approx(np.sqrt(2.0))

    def test_abs_at_zero_flag_and_right_derivative(self):
        space = taylor.jet_space(1, 2)
        s, hit = taylor.apply_abs(space.var(0, 0.0))
        assert hit and s.value == 0.0 and s.partial((1,)) == 1.0
        s2, hit2 = taylor.apply_abs(space.var(0, -0.7))
        assert not hit2 and s2.partial((1,)) == -1.0


class TestJetSpace:
    def test_monomial_order_two_vars(self):
        space = taylor.jet_space(2, 3)
        assert space.monomials == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
        )

    def test_three_vars_count(self):
        assert taylor.jet_space(3, 3).ncoef == 20
        assert taylor.jet_space(3, 2).ncoef == 10

    def test_spaces_are_cached(self):
        assert taylor.jet_space(2, 3) is taylor.jet_space(2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            taylor.JetSpace(4, 2)
        with pytest.raises(ValueError):
            taylor.JetSpace(2, 5)


class TestSentinelArithmetic:
    """`*`, `+` and `-` against plain loops that treat a never-written
    coefficient as absent, signed zeros included."""

    _ZERO = taylor._ZERO

    def _random_coeffs(self, space, rng):
        pool = [self._ZERO, 0.0, -0.0, 1.5, -0.25,
                np.array([0.0, -0.0, 2.0, -3.5]), np.array([-0.0, 1.0, 0.0, -0.0])]
        return [pool[i] for i in rng.integers(0, len(pool), space.ncoef)]

    def _same(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is self._ZERO:
                assert g is self._ZERO
            else:
                assert g is not self._ZERO
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def _product(self, space, a, b):
        out = [self._ZERO] * space.ncoef
        for i, mi in enumerate(space.monomials):
            for j, mj in enumerate(space.monomials):
                k = space.index.get(tuple(x + y for x, y in zip(mi, mj)))
                if k is None or a[i] is self._ZERO or b[j] is self._ZERO:
                    continue
                term = a[i] * b[j]
                out[k] = term if out[k] is self._ZERO else out[k] + term
        return out

    def _sum(self, a, b, sign):
        out = []
        for x, y in zip(a, b):
            if y is self._ZERO:
                out.append(x)
            elif x is self._ZERO:
                out.append(y if sign > 0 else -y)
            else:
                out.append(x + y if sign > 0 else x - y)
        return out

    @pytest.mark.parametrize("nvars,order", [(1, 3), (2, 1), (2, 3), (3, 2)])
    def test_against_loops(self, nvars, order):
        space = taylor.jet_space(nvars, order)
        rng = np.random.default_rng(10 * nvars + order)
        for _ in range(200):
            a = self._random_coeffs(space, rng)
            b = self._random_coeffs(space, rng)
            x, y = taylor.Series(space, a), taylor.Series(space, b)
            self._same((x * y).c, self._product(space, a, b))
            self._same((x + y).c, self._sum(a, b, +1))
            self._same((x - y).c, self._sum(a, b, -1))

    def test_negative_zero_survives(self):
        space = taylor.jet_space(2, 2)
        prod = space.const(-0.0) * space.var(0, 1.0)
        assert np.signbit(prod.value) and np.signbit(prod.partial((1, 0)))
        for order in range(4):
            sine = taylor.apply_function("sin", taylor.jet_space(2, order).var(0, -0.0))
            assert np.signbit(sine.value), order
