"""Test oracle: the recursive tree-walking jet evaluator over `Series`.

`frontlab.eval_jet` runs code generated once per expression from its
hash-consed instruction list.  This module keeps the reference arithmetic
that code reproduces, `Series`, and the plain recursive walk over it,
which re-evaluates every repeated subtree, so tests can require the two
to agree bit for bit: the generated code applies the operations of
`Series` to the same operands, and both call `taylor`'s derivative tables.

A `Series` holds the Taylor coefficients (derivative / multi-factorial
convention) of one scalar quantity at a point, in the two chart variables,
over a `taylor.jet_space`.  Coefficients may be python floats or numpy
arrays, so a single sweep can evaluate jets on a whole grid.

A coefficient nothing was ever written to is the `_ZERO` sentinel: products
skip it, sums pass the other operand through unchanged, and the first
product into a coefficient is assigned rather than added to 0.0.  A
coefficient of degree k is therefore computed by the same operations on the
same operands at every order >= k, so the low-degree part of a jet is the
same bits whatever order it was evaluated at, signed zeros included.
"""

import numpy as np

from frontlab import taylor
from frontlab.errors import ExprDomainError
from frontlab.expr import (
    BinOp,
    Call,
    Expr,
    Jet2,
    Neg,
    Num,
    Param,
    PowOp,
    Var,
    Vector,
    to_source,
)

_ZERO = 0.0  # shared sentinel; `is _ZERO` marks coefficients never written to


def const(space, value):
    c = [_ZERO] * space.ncoef
    c[0] = value
    return Series(space, c)


def var(space, i, value):
    c = [_ZERO] * space.ncoef
    c[0] = value
    if space.order >= 1:
        c[1 + i] = 1.0  # the monomial u or v
    return Series(space, c)


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
        out = const(self.space, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def powr(self, r):
        return _compose(self, taylor._d_pow(self.c[0], r, self.space.order))

    def reciprocal(self):
        return _compose(self, taylor._d_reciprocal(self.c[0], self.space.order))


def _compose(series, d):
    """Chain rule: apply a scalar function given its derivatives `d` at the
    series' value.  `d[k]` is the k-th derivative (not Taylor-normalized)."""
    sp = series.space
    out = const(sp, d[0])
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


def apply_function(name, series, pair=None):
    """Apply a named unary function through the chain rule.

    For sin, cos, sinh and cosh, `pair` may carry the precomputed
    `pair_values` of the series' value.
    """
    c = series.c[0]
    n = series.space.order
    if name in taylor._PAIRED:
        kind, table = taylor._PAIRED[name]
        d = table(*(taylor.pair_values(kind, c) if pair is None else pair), n)
    else:
        d = taylor._TABLES[name](c, n)
    return _compose(series, d)


def apply_abs(series):
    """abs with the right-derivative convention at 0; its second and third
    derivatives are the `_ZERO` sentinel.

    Returns (result, hit_zero); callers surface `hit_zero` as a diagnostic.
    """
    d, hit = taylor._d_abs(series.c[0], series.space.order)
    return _compose(series, (d + [_ZERO, _ZERO])[: series.space.order + 1]), hit


def sqrt(series):
    return apply_function("sqrt", series)


def _stack(values, shape):
    if shape == ():
        return np.array([float(x) for x in values])
    cols = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in values]
    return np.stack(cols, axis=-1)


def interleaved(block, shape):
    """A jet block in this oracle's layout: `eval_jet`'s tuple of
    components stacked along a last axis at the jet's shape (a block of
    the oracle's own comes back as it is)."""
    if isinstance(block, np.ndarray):
        return block
    return np.stack([np.broadcast_to(c, shape) for c in block], axis=-1)


def _pack_jet(components, space, shape, abs_hits):
    blocks = tuple(
        tuple(_stack([s.partial(a) for s in components], shape)
              for a in space.monomials if sum(a) == deg)
        for deg in range(space.order + 1)
    )
    return Jet2(blocks, tuple(abs_hits))


def _eval_node(node, space, vars_, params, flags):
    if isinstance(node, Num):
        return const(space, node.value)
    if isinstance(node, Param):
        return const(space, params[node.name])
    if isinstance(node, Var):
        return vars_[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, space, vars_, params, flags)
    if isinstance(node, BinOp):
        a = _eval_node(node.lhs, space, vars_, params, flags)
        b = _eval_node(node.rhs, space, vars_, params, flags)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        try:
            return a / b
        except ExprDomainError as err:
            raise ExprDomainError(err.args[0], source=to_source(node)) from None
    if isinstance(node, PowOp):
        base = _eval_node(node.base, space, vars_, params, flags)
        e = node.exponent
        try:
            if float(e).is_integer():
                return base.powi(int(e))
            return base.powr(e)
        except ExprDomainError as err:
            raise ExprDomainError(err.args[0], source=to_source(node)) from None
    if isinstance(node, Call):
        arg = _eval_node(node.arg, space, vars_, params, flags)
        try:
            if node.fn == "abs":
                out, hit = apply_abs(arg)
                if hit:
                    flags["abs_at_zero"] = True
                return out
            return apply_function(node.fn, arg)
        except ExprDomainError as err:
            raise ExprDomainError(err.args[0], source=to_source(node)) from None
    raise TypeError(f"cannot evaluate {node!r}")


def recursive_eval_jet(e, u, v, order):
    """Same contract as `frontlab.eval_jet`, by walking the syntax tree."""
    if order not in range(taylor.MAX_ORDER + 1):
        raise ValueError(f"order must be 0..{taylor.MAX_ORDER}, got {order!r}")
    root = e.root if isinstance(e, Expr) else e
    if not isinstance(root, Vector):
        raise ValueError("eval_jet needs a vector-valued expression")
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    space = taylor.jet_space(order)
    vars_ = [var(space, 0, u), var(space, 1, v)]
    params = e.param_dict() if isinstance(e, Expr) else {}
    comps, hits = [], []
    for c in root.components:
        flags = {"abs_at_zero": False}
        comps.append(_eval_node(c, space, vars_, params, flags))
        hits.append(flags["abs_at_zero"])
    return _pack_jet(comps, space, shape, hits)
