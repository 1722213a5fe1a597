"""Test oracle: the recursive tree-walking jet evaluator.

`frontlab.eval_jet` runs a compiled, hash-consed instruction list.  This
module keeps the plain recursive walk it replaced, which re-evaluates
every repeated subtree, so tests can require the two to agree bit for bit:
both apply the same `taylor` operations to the same operands.
"""

import numpy as np

from frontlab import taylor
from frontlab.errors import ExprDomainError
from frontlab.expr import (
    BinOp,
    Call,
    Expr,
    Neg,
    Num,
    Param,
    PowOp,
    Var,
    Vector,
    _pack_jet,
    to_source,
)


def _eval_node(node, space, vars_, params, flags):
    if isinstance(node, Num):
        return space.const(node.value)
    if isinstance(node, Param):
        return space.const(params[node.name])
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
                out, hit = taylor.apply_abs(arg)
                if hit:
                    flags["abs_at_zero"] = True
                return out
            return taylor.apply_function(node.fn, arg)
        except ExprDomainError as err:
            raise ExprDomainError(err.args[0], source=to_source(node)) from None
    raise TypeError(f"cannot evaluate {node!r}")


def recursive_eval_jet(e, u, v, order):
    """Same contract as `frontlab.eval_jet`, by walking the syntax tree."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r}")
    root = e.root if isinstance(e, Expr) else e
    if not isinstance(root, Vector):
        raise ValueError("eval_jet needs a vector-valued expression")
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    space = taylor.jet_space(2, order)
    vars_ = [space.var(0, u), space.var(1, v)]
    params = e.param_dict() if isinstance(e, Expr) else {}
    flags = {"abs_at_zero": False}
    comps = [_eval_node(c, space, vars_, params, flags) for c in root.components]
    return _pack_jet(comps, space, shape, flags["abs_at_zero"])
