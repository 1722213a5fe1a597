"""Coordinate-expression parsing and exact jet evaluation.

Grammar::

    expr   := vector | sum
    vector := "(" sum ("," sum)+ ")"
    sum    := prod (("+"|"-") prod)*
    prod   := unary (("*"|"/") unary)*
    unary  := ["-"] power
    power  := atom ["^" atom]
    atom   := number | ident | ident "(" sum ")" | "(" sum ")"

Identifiers are the chart variables u and v, declared parameter names, and the
unary functions sin cos tan sinh cosh tanh sech exp log sqrt atan abs.
Vectors (arity 2 to 4) appear only at the root.  Exponents must be
constant: number literals, parameters, or arithmetic on those.

Jets are evaluated by compiling each expression once.  On first use an
`Expr` hash-conses its syntax tree into a DAG (structurally equal
subtrees, and constants with equal bit patterns, become one node) and
lowers it to a topologically ordered instruction list, kept on the
`Expr` as `tape`.  Every `eval_jet` call runs that list over `taylor`
series: each distinct subexpression is evaluated once, sin/cos and
sinh/cosh of one argument share one evaluation of the pair, and each
intermediate is released after its last use.  The operations and their
operands are those of a recursive walk of the tree, so the jets agree
with one bit for bit (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., ch. 13).
"""

import math
import re
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import taylor
from .errors import ExprDomainError, FrontlabError

VARIABLES = ("u", "v")


class ParseError(FrontlabError):
    """Syntax or identifier error, with 0-based source offset."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        text = f"{message} at offset {position}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(text)


# --- tokens -------------------------------------------------------------

NUMBER = "number"
IDENT = "ident"
OP = "op"
END = "end"

_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(Token(NUMBER, m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(Token(IDENT, m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(END, "", n))
    return tokens


# --- syntax tree --------------------------------------------------------


class Node:
    __slots__ = ("pos",)

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value, pos):
        self.value = float(value)
        self.pos = pos

    def _key(self):
        # by bit pattern, as the tape keys constants: 0.0 and -0.0 give
        # jets of different signs, and a NaN constant must equal itself
        return (_bits(self.value),)

    def __repr__(self):
        return f"Num({self.value!r})"


class Param(Node):
    __slots__ = ("name",)

    def __init__(self, name, pos):
        self.name = name
        self.pos = pos

    def _key(self):
        return (self.name,)


class Var(Node):
    __slots__ = ("name", "index")

    def __init__(self, name, pos):
        self.name = name
        self.index = VARIABLES.index(name)
        self.pos = pos

    def _key(self):
        return (self.name,)


class Call(Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg, pos):
        self.fn = fn
        self.arg = arg
        self.pos = pos

    def _key(self):
        return (self.fn, self.arg)


class Neg(Node):
    __slots__ = ("arg",)

    def __init__(self, arg, pos):
        self.arg = arg
        self.pos = pos

    def _key(self):
        return (self.arg,)


class BinOp(Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs, pos):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos

    def _key(self):
        return (self.op, self.lhs, self.rhs)


class PowOp(Node):
    """base ^ constant; the exponent is folded to a float at parse time."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent, pos):
        self.base = base
        self.exponent = float(exponent)
        self.pos = pos

    def _key(self):
        return (self.base, self.exponent)


class Vector(Node):
    __slots__ = ("components",)

    def __init__(self, components, pos):
        self.components = tuple(components)
        self.pos = pos

    def _key(self):
        return (self.components,)


@dataclass(frozen=True)
class Expr:
    """Parsed expression plus its bound parameter values."""

    root: Node
    params: tuple  # sorted (name, value) pairs
    source: str

    @property
    def ncomponents(self):
        return len(self.root.components) if isinstance(self.root, Vector) else 0

    def param_dict(self):
        return dict(self.params)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.root == other.root and self.params == other.params

    def __hash__(self):  # like __eq__, blind to the source spelling
        return hash((self.root, self.params))

    @cached_property
    def tape(self):
        """The jet program of a vector expression, compiled on first use."""
        return _Tape(self.root, self.param_dict())


# --- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.i = 0
        self.params = params

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def match_op(self, *ops):
        tok = self.peek()
        if tok.kind == OP and tok.text in ops:
            self.i += 1
            return tok
        return None

    def expect_op(self, op):
        tok = self.match_op(op)
        if tok is None:
            bad = self.peek()
            raise ParseError(
                f"unexpected {bad.text!r}" if bad.kind != END else "unexpected end of input",
                bad.pos,
                expected=(f"'{op}'",),
            )
        return tok

    def parse_root(self):
        first = self.peek()
        if first.kind == OP and first.text == "(":
            mark = self.i
            self.advance()
            head = self.parse_sum()
            if self.peek().kind == OP and self.peek().text == ",":
                comps = [head]
                while self.match_op(","):
                    comps.append(self.parse_sum())
                self.expect_op(")")
                self._expect_end()
                if len(comps) > 4:
                    raise ParseError(
                        f"vector arity {len(comps)} not supported (2 to 4)", first.pos
                    )
                return Vector(comps, first.pos)
            self.i = mark  # plain parenthesized sum: reparse as scalar
        node = self.parse_sum()
        self._expect_end()
        return node

    def _expect_end(self):
        tok = self.peek()
        if tok.kind != END:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)

    def parse_sum(self):
        node = self.parse_prod()
        while True:
            tok = self.match_op("+", "-")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self.parse_prod(), tok.pos)

    def parse_prod(self):
        node = self.parse_unary()
        while True:
            tok = self.match_op("*", "/")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self.parse_unary(), tok.pos)

    def parse_unary(self):
        tok = self.match_op("-")
        if tok is not None:
            return Neg(self.parse_unary(), tok.pos)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.match_op("^")
        if tok is None:
            return base
        exponent = self.parse_atom()
        return PowOp(base, self._const_value(exponent, tok.pos), tok.pos)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return Num(tok.text, tok.pos)
        if tok.kind == IDENT:
            self.advance()
            name = tok.text
            if name in taylor.FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(name, arg, tok.pos)
            if self.peek().kind == OP and self.peek().text == "(":
                raise ParseError(f"'{name}' is not a function", tok.pos)
            if name in VARIABLES:
                return Var(name, tok.pos)
            if name in self.params:
                return Param(name, tok.pos)
            raise ParseError(f"unknown identifier '{name}'", tok.pos)
        if tok.kind == OP and tok.text == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError(
            "expected a value" if tok.kind != END else "unexpected end of input",
            tok.pos,
            expected=("number", "identifier", "'('"),
        )

    def _const_value(self, node, caret):
        try:
            return self._fold(node)
        except _NotConstant as err:
            raise ParseError(
                f"exponent must be constant; '{err.args[0]}' is a variable", caret
            ) from None

    def _fold(self, node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Param):
            return float(self.params[node.name])
        if isinstance(node, Var):
            raise _NotConstant(node.name)
        if isinstance(node, Neg):
            return -self._fold(node.arg)
        if isinstance(node, BinOp):
            a, b = self._fold(node.lhs), self._fold(node.rhs)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else math.nan}[node.op]
        if isinstance(node, PowOp):
            return self._fold(node.base) ** node.exponent
        if isinstance(node, Call):
            return float(getattr(math, "fabs" if node.fn == "abs" else node.fn)(self._fold(node.arg)))
        raise _NotConstant("vector")


class _NotConstant(Exception):
    pass


def parse(source, params=None):
    """Parse `source` into an Expr; `params` maps parameter names to reals."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    params = dict(params or {})
    for name in params:
        if name in VARIABLES or name in taylor.FUNCTION_NAMES:
            raise ValueError(f"parameter name {name!r} collides with a builtin")
    tree = _Parser(_tokenize(source), params).parse_root()
    return Expr(tree, tuple(sorted((k, float(v)) for k, v in params.items())), source)


# --- printing -----------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_num(x):
    return repr(float(x))


def _fmt(node, prec):
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, (Param, Var)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, _PREC_SUM)})"
    if isinstance(node, PowOp):
        e = node.exponent
        etext = _fmt_num(e) if e >= 0 else f"(0-{_fmt_num(-e)})"
        return f"{_fmt(node.base, _PREC_ATOM)}^{etext}"
    if isinstance(node, Neg):
        text = "-" + _fmt(node.arg, _PREC_POWER)
        return f"({text})" if prec > _PREC_UNARY else text
    if isinstance(node, BinOp):
        if node.op in "+-":
            own, rhs_prec = _PREC_SUM, _PREC_PROD
        else:
            own, rhs_prec = _PREC_PROD, _PREC_UNARY
        text = f"{_fmt(node.lhs, own)}{node.op}{_fmt(node.rhs, rhs_prec)}"
        return f"({text})" if prec > own else text
    if isinstance(node, Vector):
        return "(" + ", ".join(_fmt(c, _PREC_SUM) for c in node.components) + ")"
    raise TypeError(f"cannot print {node!r}")


def to_source(expr):
    """Render an Expr (or bare node) back to parseable text."""
    node = expr.root if isinstance(expr, Expr) else expr
    return _fmt(node, _PREC_SUM)


# --- jets ---------------------------------------------------------------

_BLOCK_ALPHAS = {deg: tuple(taylor._compositions(2, deg)) for deg in (1, 2, 3)}


@dataclass(frozen=True)
class Jet2:
    """Value and partial derivatives of a vector map of (u, v) at one point
    (or grid).

    Arrays have shape broadcast(u, v) + (ncomponents,).  `d1` holds
    f_u, f_v; `d2` and `d3` hold the graded-lex blocks uu, uv, vv and
    uuu, uuv, uvv, vvv.
    """

    value: np.ndarray
    d1: tuple
    d2: tuple
    d3: tuple
    order: int
    abs_at_zero: bool = False

    def _block(self, deg):
        block = (self.d1, self.d2, self.d3)[deg - 1]
        if block is None:
            raise ValueError(f"jet order {deg} was not evaluated (order={self.order})")
        return block

    @property
    def f_u(self):
        return self._block(1)[0]

    @property
    def f_v(self):
        return self._block(1)[1]

    @property
    def f_uu(self):
        return self._block(2)[0]

    @property
    def f_uv(self):
        return self._block(2)[1]

    @property
    def f_vv(self):
        return self._block(2)[2]

    @property
    def f_uuu(self):
        return self._block(3)[0]

    @property
    def f_uuv(self):
        return self._block(3)[1]

    @property
    def f_uvv(self):
        return self._block(3)[2]

    @property
    def f_vvv(self):
        return self._block(3)[3]

    def along(self, d, k=1):
        """Directional derivative (d0 d/du + d1 d/dv)^k f for k = 1, 2, 3.

        d0 and d1 are scalars or arrays of the jet's leading shape.
        """
        d0 = np.asarray(d[0])[..., None]
        d1 = np.asarray(d[1])[..., None]
        if k == 1:
            return d0 * self.f_u + d1 * self.f_v
        if k == 2:
            return (d0 * d0) * self.f_uu + (2.0 * d0 * d1) * self.f_uv + (d1 * d1) * self.f_vv
        if k == 3:
            return (
                (d0 * d0 * d0) * self.f_uuu
                + (3.0 * d0 * d0 * d1) * self.f_uuv
                + (3.0 * d0 * d1 * d1) * self.f_uvv
                + (d1 * d1 * d1) * self.f_vvv
            )
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k!r}")


def _stack(values, shape):
    if shape == ():
        return np.array([float(x) for x in values])
    cols = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in values]
    return np.stack(cols, axis=-1)


def _pack_jet(components, space, shape, abs_flag):
    value = _stack([s.value for s in components], shape)
    blocks = [None, None, None]
    for deg in range(1, space.order + 1):
        blocks[deg - 1] = tuple(
            _stack([s.partial(a) for s in components], shape) for a in _BLOCK_ALPHAS[deg]
        )
    return Jet2(
        value=value,
        d1=blocks[0],
        d2=blocks[1],
        d3=blocks[2],
        order=space.order,
        abs_at_zero=abs_flag,
    )


def _bits(x):
    """Hash-consing key of a float: its bit pattern, so 0.0 and -0.0 (or
    two NaN payloads) never share a slot the way `==` would let them."""
    return struct.pack("<d", x)


class _Tape:
    """A vector expression lowered to a straight-line jet program.

    Each distinct subexpression is one instruction ``(op, args, aux, node,
    dead)``: `args` are the slots (instruction indices) it reads, `aux` its
    constant operand, `node` the syntax node whose source an error names,
    and `dead` the slots whose last reader it is.  The order is the
    post-order of the tree with repeats dropped, so the first instruction
    that fails is the subexpression a recursive walk would fail on first.
    sin/cos and sinh/cosh of one argument read one shared "pair" slot.
    """

    __slots__ = ("code", "outputs")

    def __init__(self, root, params):
        code = []
        slots = {}

        def emit(key, op, args=(), aux=None, node=None):
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(code)
                code.append((op, args, aux, node))
            return slot

        def visit(node):
            if isinstance(node, (Num, Param)):
                value = node.value if isinstance(node, Num) else params[node.name]
                return emit(("const", _bits(value)), "const", aux=value)
            if isinstance(node, Var):
                return emit(("var", node.index), "var", aux=node.index)
            if isinstance(node, Neg):
                a = visit(node.arg)
                return emit(("neg", a), "neg", (a,))
            if isinstance(node, BinOp):
                a, b = visit(node.lhs), visit(node.rhs)
                return emit((node.op, a, b), node.op, (a, b), node=node)
            if isinstance(node, PowOp):
                a = visit(node.base)
                e = node.exponent
                if e.is_integer():
                    return emit(("powi", a, int(e)), "powi", (a,), int(e), node)
                return emit(("powr", a, _bits(e)), "powr", (a,), e, node)
            if isinstance(node, Call):
                a = visit(node.arg)
                kind = taylor.pair_kind(node.fn)
                if kind is None:
                    return emit((node.fn, a), node.fn, (a,), node=node)
                pair = emit((kind, a), "pair", (a,), kind)
                return emit((node.fn, a), node.fn, (a, pair), node=node)
            raise TypeError(f"cannot evaluate {node!r}")

        self.outputs = tuple(visit(c) for c in root.components)
        last = {}
        for i, (_, args, _, _) in enumerate(code):
            for a in args:
                last[a] = i
        dead = [[] for _ in code]
        for slot, i in last.items():
            if slot not in self.outputs:
                dead[i].append(slot)
        self.code = tuple(
            (op, args, aux, node, tuple(d)) for (op, args, aux, node), d in zip(code, dead)
        )

    def run(self, space, vars_):
        """Component series and the abs-at-zero flag at the given variables."""
        regs = [None] * len(self.code)
        abs_hit = False
        try:
            for i, (op, args, aux, node, dead) in enumerate(self.code):
                x = regs[args[0]] if args else None
                if op == "const":
                    r = space.const(aux)
                elif op == "var":
                    r = vars_[aux]
                elif op == "*":
                    r = x * regs[args[1]]
                elif op == "+":
                    r = x + regs[args[1]]
                elif op == "-":
                    r = x - regs[args[1]]
                elif op == "/":
                    r = x / regs[args[1]]
                elif op == "neg":
                    r = -x
                elif op == "powi":
                    r = x.powi(aux)
                elif op == "powr":
                    r = x.powr(aux)
                elif op == "pair":
                    r = taylor.pair_values(aux, x.c[0])
                elif op == "abs":
                    r, hit = taylor.apply_abs(x)
                    abs_hit = abs_hit or hit
                else:
                    r = taylor.apply_function(op, x, regs[args[1]] if len(args) > 1 else None)
                regs[i] = r
                for j in dead:
                    regs[j] = None
        except ExprDomainError as err:
            raise ExprDomainError(err.args[0], source=to_source(node)) from None
        return [regs[k] for k in self.outputs], abs_hit


def eval_jet(e, u, v, order):
    """Evaluate `e` and its exact partials up to `order` at (u, v).

    u and v may be floats or broadcastable numpy arrays; with arrays,
    domain violations surface as NaN entries rather than exceptions.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r}")
    if not isinstance(e.root, Vector):
        raise ValueError("eval_jet needs a vector-valued expression")
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    space = taylor.jet_space(2, order)
    comps, abs_hit = e.tape.run(space, [space.var(0, u), space.var(1, v)])
    return _pack_jet(comps, space, shape, abs_hit)
