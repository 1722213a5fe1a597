"""Derivative tables and monomial bookkeeping of the jet programs.

`frontlab.expr` writes, once per expression shape, a straight-line Python
function that evaluates truncated Taylor series in (u, v) up to order
`MAX_ORDER` (derivative / multi-factorial convention): it reads the
monomial tables of `jet_space(MAX_ORDER)`, `FUNCTION_NAMES` and the
pairing of sin/cos and sinh/cosh while writing, and calls the derivative
tables and `pair_values` at run time.  Nothing else lives here; the
recursive reference arithmetic that the programs are checked against bit
for bit is the test oracle `tests/recursive_jet.py`.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ExprDomainError

MAX_ORDER = 3  # the highest jet order; the jet layer derives its tables from it


@lru_cache(maxsize=None)
def jet_space(order):
    return JetSpace(order)


class JetSpace:
    """Monomial tables for truncated Taylor series in (u, v).

    Monomials u^a v^b are listed by degree, and within a degree by
    decreasing a: 1, u, v, uu, uv, vv, uuu, uuv, uvv, vvv.
    """

    def __init__(self, order):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"unsupported jet order {order}")
        self.order = order
        self.monomials = tuple(
            (total - b, b) for total in range(order + 1) for b in range(total + 1)
        )
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoef = len(self.monomials)
        self.factorial = tuple(math.factorial(a) * math.factorial(b) for a, b in self.monomials)
        triples = []
        for i, (ai, bi) in enumerate(self.monomials):
            for j, (aj, bj) in enumerate(self.monomials):
                k = self.index.get((ai + aj, bi + bj))
                if k is not None:
                    triples.append((i, j, k))
        self.triples = tuple(triples)


# --- derivative tables --------------------------------------------------
# Each returns [g(c), g'(c), ..., g^(n)(c)], computing no entry past n;
# domain violations raise for scalar arguments and turn into NaN entries
# for array arguments.  An argument is a scalar when it is a float (numpy's
# float64 is one) or has no dimensions (an int, a 0-d array): the float
# test comes first because `np.ndim` costs about a microsecond on a Python
# float, as much as the rest of a small table.  Scalar and array arguments
# go through the same numpy functions and repeated products (Python's `**`
# and numpy's integer `**` round differently on scalars and on arrays), so
# a scalar jet equals the matching entry of an array jet bit for bit.  At a
# float, what a numpy function returns is turned into a Python float
# (`_ufunc`), which is exact, so a point's program runs on Python floats
# throughout.  The tables of sin/cos and sinh/cosh take the pair
# (g(c), g'(c)) instead of c, so one evaluation of the pair serves both
# functions of one argument.


def _ufunc(f, c, *args):
    """numpy's `f` at c, as a Python float where c is a float (the
    conversion is exact), so the arithmetic after it stays on Python
    floats: numpy's scalar arithmetic costs about twice as much."""
    return float(f(c, *args)) if isinstance(c, float) else f(c, *args)


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
    t = _ufunc(np.tan, c)
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
    if isinstance(c, float) or np.ndim(c) == 0:
        return 0.0 if abs(c) > _COSH_MAX else 1.0 / float(np.cosh(c))
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(c)


def _d_tanh(c, n):
    t = _ufunc(np.tanh, c)
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
    t = _ufunc(np.tanh, c)
    d = [s, -s * t]
    if n >= 2:
        d.append(s * (2.0 * t * t - 1.0))
    if n >= 3:
        d.append(s * t * (5.0 - 6.0 * t * t))
    return d


def _d_exp(c, n):
    e = _ufunc(np.exp, c)
    return [e] * (n + 1)


def _d_atan(c, n):
    a = _ufunc(np.arctan, c)
    if n == 0:
        return [a]
    q = 1.0 / (1.0 + c * c)
    d = [a, q]
    if n >= 2:
        d.append(-2.0 * c * q * q)
    if n >= 3:
        d.append((6.0 * c * c - 2.0) * q * q * q)
    return d


def _d_log(c, n):
    if isinstance(c, float) or np.ndim(c) == 0:
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
    if isinstance(c, float) or np.ndim(c) == 0:
        if math.isnan(c):
            raise ExprDomainError("sqrt of NaN")
        if c < 0:
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
    if isinstance(c, float) or np.ndim(c) == 0:
        if c == 0:
            raise ExprDomainError("division by zero")
        inv = 1.0 / c
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(c != 0, 1.0 / c, np.nan)
    d = [inv]
    if n >= 1:
        d.append(-inv * inv)
    if n >= 2:
        d.append(2.0 * (inv * inv * inv))
    if n >= 3:
        d.append(-6.0 * (inv * inv * inv * inv))
    return d


def _d_abs(c, n):
    """abs and its right derivative at 0, the entries of the table that
    are not 0 (n of them past the value, at most 1), and whether c is
    exactly 0."""
    if isinstance(c, float) or np.ndim(c) == 0:
        hit = c == 0
        sign = 1.0 if c >= 0 else -1.0
        mag = abs(c)
    else:
        hit = bool(np.any(c == 0))
        sign = np.where(c >= 0, 1.0, -1.0)
        mag = np.abs(c)
    return [mag, sign][: n + 1], bool(hit)


def _d_pow(c, r, n):
    if isinstance(c, float) or np.ndim(c) == 0:
        if not c > 0:
            raise ExprDomainError(f"{float(c)!r} ^ {r} needs a positive base")
        base = c
    else:
        with np.errstate(invalid="ignore"):
            base = np.where(c > 0, c, np.nan)
    out = [_ufunc(np.power, base, r)]
    coef = 1.0
    for k in range(1, n + 1):
        coef *= r - (k - 1)
        out.append(coef * _ufunc(np.power, base, r - k))
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
    f, g = (np.sin, np.cos) if kind == "sincos" else (np.sinh, np.cosh)
    if isinstance(c, float):  # as `_ufunc` does, written out on this hot path
        return float(f(c)), float(g(c))
    return f(c), g(c)
