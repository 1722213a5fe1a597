"""Truncated Taylor arithmetic in (u, v): forward-mode jets up to order 3.

A `Series` holds the Taylor coefficients (derivative / multi-factorial
convention) of one scalar quantity at a point, in the two chart variables.
Coefficients may be python floats or numpy arrays, so a single sweep can
evaluate jets on a whole grid.  `JetSpace` instances are cached and carry the
monomial bookkeeping shared by every series of the same order.

`Series` is the reference arithmetic: `frontlab.expr` writes, once per
expression shape, straight-line code that performs exactly the operations a
`Series` evaluation would, in the same order, and calls the derivative
tables below at run time, so its jets equal those of `Series` bit for bit.

A coefficient nothing was ever written to is the `_ZERO` sentinel: products
skip it, sums pass the other operand through unchanged, and the first
product into a coefficient is assigned rather than added to 0.0.  A
coefficient of degree k is therefore computed by the same operations on the
same operands at every order >= k, so the low-degree part of a jet is the
same bits whatever order it was evaluated at, signed zeros included.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ExprDomainError

_ZERO = 0.0  # shared sentinel; `is _ZERO` marks coefficients never written to


@lru_cache(maxsize=None)
def jet_space(order):
    return JetSpace(order)


class JetSpace:
    """Monomial tables for truncated Taylor series in (u, v).

    Monomials u^a v^b are listed by degree, and within a degree by
    decreasing a: 1, u, v, uu, uv, vv, uuu, uuv, uvv, vvv.
    """

    def __init__(self, order):
        if not 0 <= order <= 3:
            raise ValueError(f"unsupported jet order {order}")
        self.order = order
        self.monomials = tuple(
            (total - b, b) for total in range(order + 1) for b in range(total + 1)
        )
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoef = len(self.monomials)
        self.factorial = tuple(
            math.factorial(a) * math.factorial(b) for a, b in self.monomials
        )
        triples = []
        for i, (ai, bi) in enumerate(self.monomials):
            for j, (aj, bj) in enumerate(self.monomials):
                k = self.index.get((ai + aj, bi + bj))
                if k is not None:
                    triples.append((i, j, k))
        self.triples = tuple(triples)

    def const(self, value):
        c = [_ZERO] * self.ncoef
        c[0] = value
        return Series(self, c)

    def var(self, i, value):
        c = [_ZERO] * self.ncoef
        c[0] = value
        if self.order >= 1:
            c[1 + i] = 1.0  # the monomial u or v
        return Series(self, c)


class Series:
    """Taylor coefficients of one scalar quantity at a point."""

    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = coeffs

    @property
    def value(self):
        return self.c[0]

    def partial(self, alpha):
        """Exact partial derivative for the multi-index `alpha`."""
        k = self.space.index[tuple(alpha)]
        coeff = self.c[k]
        fact = self.space.factorial[k]
        return coeff * fact if fact != 1 else coeff

    def scale(self, factor):
        out = [ci if ci is _ZERO else ci * factor for ci in self.c]
        return Series(self.space, out)

    def __add__(self, other):
        sp = self.space
        if isinstance(other, Series):
            return Series(sp, [
                b if a is _ZERO else a if b is _ZERO else a + b
                for a, b in zip(self.c, other.c)
            ])
        out = list(self.c)
        out[0] = out[0] + other
        return Series(sp, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return Series(self.space, [
                a if b is _ZERO else -b if a is _ZERO else a - b
                for a, b in zip(self.c, other.c)
            ])
        out = list(self.c)
        out[0] = out[0] - other
        return Series(self.space, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Series(self.space, [ci if ci is _ZERO else -ci for ci in self.c])

    def __mul__(self, other):
        sp = self.space
        if not isinstance(other, Series):
            return self.scale(other)
        out = [_ZERO] * sp.ncoef
        a, b = self.c, other.c
        for i, j, k in sp.triples:
            ai = a[i]
            bj = b[j]
            if ai is _ZERO or bj is _ZERO:
                continue
            term = ai * bj
            acc = out[k]
            out[k] = term if acc is _ZERO else acc + term
        return Series(sp, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.reciprocal()
        return self.scale(1.0 / other)

    def __rtruediv__(self, other):
        return other * self.reciprocal()

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("Series ** exponent must be an integer; use powr")
        return self.powi(int(k))

    def powi(self, k):
        if k < 0:
            return self.powi(-k).reciprocal()
        out = self.space.const(1.0)
        for _ in range(k):
            out = out * self
        return out

    def powr(self, r):
        return _compose(self, _d_pow(self.c[0], r, self.space.order))

    def reciprocal(self):
        return _compose(self, _d_reciprocal(self.c[0], self.space.order))


def _compose(series, d):
    """Chain rule: apply a scalar function given its derivatives `d` at the
    series' value.  `d[k]` is the k-th derivative (not Taylor-normalized)."""
    sp = series.space
    out = sp.const(d[0])
    if len(d) == 1:
        return out
    p = list(series.c)
    p[0] = _ZERO
    ps = Series(sp, p)
    pk = ps
    fact = 1.0
    for k in range(1, len(d)):
        if k > 1:
            pk = pk * ps
            fact *= k
        if d[k] is _ZERO:
            continue
        out = out + pk.scale(d[k] / fact)
    return out


# --- derivative tables --------------------------------------------------
# Each returns [g(c), g'(c), ..., g^(n)(c)], computing no entry past n;
# domain violations raise for scalar arguments and turn into NaN entries
# for array arguments.  Scalar and array arguments go through the same
# numpy functions and repeated products (Python's `**` and numpy's integer
# `**` round differently on scalars and on arrays), so a scalar jet equals
# the matching entry of an array jet bit for bit.  The tables of sin/cos and
# sinh/cosh take the pair (g(c), g'(c)) instead of c, so one evaluation of
# the pair serves both functions of one argument.


def _d_sin(s, co, n):
    if n == 0:
        return [s]
    d = [s, co]
    if n >= 2:
        d.append(-s)
    if n >= 3:
        d.append(-co)
    return d


def _d_cos(s, co, n):
    if n == 0:
        return [co]
    d = [co, -s]
    if n >= 2:
        d.append(-co)
    if n >= 3:
        d.append(s)
    return d


def _d_tan(c, n):
    t = np.tan(c)
    if n == 0:
        return [t]
    q = 1.0 + t * t
    d = [t, q]
    if n >= 2:
        d.append(2.0 * t * q)
    if n >= 3:
        d.append(q * (2.0 + 6.0 * t * t))
    return d


def _d_sinh(s, co, n):
    return [s, co, s, co][: n + 1]


def _d_cosh(s, co, n):
    return [co, s, co, s][: n + 1]


_COSH_MAX = 710.4758600739439  # the largest double whose cosh is finite


def _sech(c):
    """1 / cosh(c), exactly 0 where cosh(c) overflows, and without numpy's
    overflow warning there."""
    if np.ndim(c) == 0:
        return np.float64(0.0) if abs(c) > _COSH_MAX else 1.0 / np.cosh(c)
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(c)


def _d_tanh(c, n):
    t = np.tanh(c)
    if n == 0:
        return [t]
    s = _sech(c)
    q = s * s  # 1 - t*t would cancel as |t| nears 1
    d = [t, q]
    if n >= 2:
        d.append(-2.0 * t * q)
    if n >= 3:
        d.append(q * (6.0 * t * t - 2.0))
    return d


def _d_sech(c, n):
    s = _sech(c)
    if n == 0:
        return [s]
    t = np.tanh(c)
    d = [s, -s * t]
    if n >= 2:
        d.append(s * (2.0 * t * t - 1.0))
    if n >= 3:
        d.append(s * t * (5.0 - 6.0 * t * t))
    return d


def _d_exp(c, n):
    e = np.exp(c)
    return [e] * (n + 1)


def _d_atan(c, n):
    if n == 0:
        return [np.arctan(c)]
    q = 1.0 / (1.0 + c * c)
    d = [np.arctan(c), q]
    if n >= 2:
        d.append(-2.0 * c * q * q)
    if n >= 3:
        d.append((6.0 * c * c - 2.0) * q * q * q)
    return d


def _d_log(c, n):
    if np.ndim(c) == 0:
        if not c > 0:
            raise ExprDomainError(f"log of non-positive value {float(c)!r}")
        safe, value = c, float(np.log(c))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = np.where(c > 0, c, np.nan)
            value = np.log(safe)
    if n == 0:
        return [value]
    inv = 1.0 / safe
    d = [value, inv]
    if n >= 2:
        d.append(-inv * inv)
    if n >= 3:
        d.append(2.0 * (inv * inv * inv))
    return d


def _d_sqrt(c, n):
    if np.ndim(c) == 0:
        if c < 0 or not np.isfinite(c):
            raise ExprDomainError(f"sqrt of negative value {float(c)!r}")
        if c == 0 and n >= 1:
            raise ExprDomainError("sqrt is not differentiable at 0")
        value = r = math.sqrt(c)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.sqrt(np.where(c >= 0, c, np.nan))
            r = np.sqrt(np.where(c > 0, c, np.nan)) if n else None
    if n == 0:
        return [value]
    d = [value, 0.5 / r]
    if n >= 2:
        d.append(-0.25 / (r * r * r))
    if n >= 3:
        d.append(0.375 / (r * r * r * r * r))
    return d


def _d_reciprocal(c, n):
    if np.ndim(c) == 0:
        if c == 0:
            raise ExprDomainError("division by zero")
        inv = 1.0 / c
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(c != 0, 1.0 / np.where(c != 0, c, 1.0), np.nan)
    d = [inv]
    if n >= 1:
        d.append(-inv * inv)
    if n >= 2:
        d.append(2.0 * (inv * inv * inv))
    if n >= 3:
        d.append(-6.0 * (inv * inv * inv * inv))
    return d


def _d_abs(c, n):
    """The table of abs (right derivative at 0; the second and third
    derivatives are the `_ZERO` sentinel) and whether c is exactly 0."""
    if np.ndim(c) == 0:
        hit = c == 0
        sign = 1.0 if c >= 0 else -1.0
        mag = abs(c)
    else:
        hit = bool(np.any(c == 0))
        sign = np.where(c >= 0, 1.0, -1.0)
        mag = np.abs(c)
    return [mag, sign, _ZERO, _ZERO][: n + 1], bool(hit)


def _d_pow(c, r, n):
    if np.ndim(c) == 0:
        if not c > 0:
            raise ExprDomainError(f"{float(c)!r} ^ {r} needs a positive base")
        base = c
    else:
        with np.errstate(invalid="ignore"):
            base = np.where(c > 0, c, np.nan)
    out = [np.power(base, r)]
    coef = 1.0
    for k in range(1, n + 1):
        coef *= r - (k - 1)
        out.append(coef * np.power(base, r - k))
    return out


_PAIRED = {
    "sin": ("sincos", _d_sin),
    "cos": ("sincos", _d_cos),
    "sinh": ("sinhcosh", _d_sinh),
    "cosh": ("sinhcosh", _d_cosh),
}

_TABLES = {
    "tan": _d_tan,
    "tanh": _d_tanh,
    "sech": _d_sech,
    "exp": _d_exp,
    "log": _d_log,
    "sqrt": _d_sqrt,
    "atan": _d_atan,
}

FUNCTION_NAMES = frozenset(_TABLES) | frozenset(_PAIRED) | {"abs"}


def pair_kind(name):
    """'sincos' or 'sinhcosh' for a function that shares its pair, else None."""
    entry = _PAIRED.get(name)
    return entry[0] if entry else None


def pair_values(kind, c):
    """(sin c, cos c) or (sinh c, cosh c) for `pair_kind` `kind`."""
    if kind == "sincos":
        return np.sin(c), np.cos(c)
    return np.sinh(c), np.cosh(c)


def apply_function(name, series, pair=None):
    """Apply a named unary function through the chain rule.

    For sin, cos, sinh and cosh, `pair` may carry the precomputed
    `pair_values` of the series' value.
    """
    c = series.c[0]
    n = series.space.order
    if name in _PAIRED:
        kind, table = _PAIRED[name]
        d = table(*(pair_values(kind, c) if pair is None else pair), n)
    else:
        d = _TABLES[name](c, n)
    return _compose(series, d)


def apply_abs(series):
    """abs with the right-derivative convention at 0.

    Returns (result, hit_zero); callers surface `hit_zero` as a diagnostic.
    """
    d, hit = _d_abs(series.c[0], series.space.order)
    return _compose(series, d), hit


def sqrt(series):
    return apply_function("sqrt", series)
