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

Jets are evaluated by source transformation (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 6 and 13).  On first use an `Expr`
hash-conses its syntax tree into a DAG (structurally equal subtrees, and
constants with equal bit patterns, become one node) and lowers it to a
topologically ordered instruction list, kept on the `Expr` as `tape`.
The tape is then written out once as a straight-line Python function for
all jet orders up to `taylor.MAX_ORDER`, shared by every expression of the
same shape (constants are its arguments).  The reference arithmetic is
`Series`, kept with a recursive walk of the tree in the test oracle
`tests/recursive_jet.py`: the function performs exactly the operations a
`Series` walk of the tape would, on the same operands and in the same
order, with the coefficients that are structurally zero left out when the
code is written, so the jets agree bit for bit with the oracle's.  Each
distinct subexpression is evaluated once, sin/cos and sinh/cosh of one
argument share one evaluation of the pair, and each intermediate is
released after its last use.  Several vector expressions evaluated at the
same points `join` into one expression, whose program computes what they
share once; `eval_jet` can split its components into fields with orders
of their own, and computes each instruction only to the highest order a
field reading it asks for.  Since `taylor` gives the low-degree
coefficients the same bits at every order, each field's jet equals bit
for bit the jet of its own expression.
"""

import itertools
import linecache
import math
import re
import struct
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache

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

Token = namedtuple("Token", "kind text pos")

# one alternative per token kind, named after it, and any other character
# but whitespace, which the search skips
_TOKEN_RE = re.compile(
    rf"(?P<{NUMBER}>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<{IDENT}>[A-Za-z_][A-Za-z_0-9]*)|(?P<{OP}>[-+*/^(),])|(?P<bad>\S)"
)


def _tokenize(source):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        tok = Token(m.lastgroup, m[0], m.start())
        if tok.kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", tok.pos)
        tokens.append(tok)
    tokens.append(Token(END, "", len(source)))
    return tokens


# --- syntax tree --------------------------------------------------------
#
# Nodes are plain data: equal, and of one hash, when they are of one class
# and their compared fields are (all but the source offset `pos`; a `Num`
# compares its value's bits), and printed as their class and those fields.
# The one `__eq__` and `__hash__` are `Node`'s, so the dataclass decorator
# writes only each class's `__init__`.

_node = dataclass(slots=True, eq=False, repr=False)


class Node:
    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + repr(self._key())


@_node
class Num(Node):
    """A number literal."""
    value: float
    pos: int = field(compare=False)

    def _key(self):
        # by bit pattern, as the tape keys constants: 0.0 and -0.0 give
        # jets of different signs, and a NaN constant must equal itself
        return (_bits(self.value),)

    def __repr__(self):
        return f"Num({self.value!r})"


@_node
class Param(Node):
    """A parameter name, bound to its value by `Expr.params`."""
    name: str
    pos: int = field(compare=False)


@_node
class Var(Node):
    """A chart variable, u or v."""
    name: str
    pos: int = field(compare=False)

    @property
    def index(self):
        return VARIABLES.index(self.name)


@_node
class Call(Node):
    """fn(arg), fn one of `taylor.FUNCTION_NAMES`."""
    fn: str
    arg: Node
    pos: int = field(compare=False)


@_node
class Neg(Node):
    """-arg."""
    arg: Node
    pos: int = field(compare=False)


@_node
class BinOp(Node):
    """lhs op rhs, op one of + - * /."""
    op: str
    lhs: Node
    rhs: Node
    pos: int = field(compare=False)


@_node
class PowOp(Node):
    """base ^ constant; the exponent is folded to a float at parse time."""
    base: Node
    exponent: float
    pos: int = field(compare=False)


@_node
class Vector(Node):
    """The components of a vector expression, which is always the root."""
    components: tuple
    pos: int = field(compare=False)

    def __post_init__(self):
        self.components = tuple(self.components)


@dataclass(frozen=True)
class Expr:
    """Parsed expression plus its bound parameter values."""

    root: Node
    params: tuple  # sorted (name, value) pairs
    source: str = field(compare=False)  # equality is blind to the spelling

    @property
    def ncomponents(self):
        return len(self.root.components) if isinstance(self.root, Vector) else 0

    def param_dict(self):
        return dict(self.params)

    @cached_property
    def tape(self):
        """The instruction list of a vector expression, built on first use."""
        return _Tape(self.root, self.param_dict())

    @cached_property
    def program(self):
        """The jet program of a vector expression, generated on first use
        and shared with every expression of the same shape."""
        return _program(self.tape, self.source)


# --- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.i = 0
        self.params = params

    def match_op(self, *ops):
        tok = self.tokens[self.i]
        if tok.text in ops:  # only an op token has such a text
            self.i += 1
            return tok
        return None

    def expect_op(self, op):
        tok = self.match_op(op)
        if tok is None:
            bad = self.tokens[self.i]
            raise ParseError(
                f"unexpected {bad.text!r}" if bad.kind != END else "unexpected end of input",
                bad.pos,
                expected=(f"'{op}'",),
            )
        return tok

    def parse_root(self):
        first = self.tokens[self.i]
        if first.text == "(":
            mark = self.i
            self.i += 1
            head = self.parse_sum()
            if self.tokens[self.i].text == ",":
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
        tok = self.tokens[self.i]
        if tok.kind != END:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)

    def _chain(self, operand, ops):
        """operand (op operand)*, grouped to the left."""
        node = operand()
        while (tok := self.tokens[self.i]).text in ops:  # match_op, one call less
            self.i += 1
            node = BinOp(tok.text, node, operand(), tok.pos)
        return node

    def parse_sum(self):
        return self._chain(self.parse_prod, ("+", "-"))

    def parse_prod(self):
        return self._chain(self.parse_unary, ("*", "/"))

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
        tok = self.tokens[self.i]
        self.i += 1
        if tok.kind == NUMBER:
            return Num(float(tok.text), tok.pos)
        if tok.kind == IDENT:
            name = tok.text
            if name in taylor.FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(name, arg, tok.pos)
            if self.tokens[self.i].text == "(":
                raise ParseError(f"'{name}' is not a function", tok.pos)
            if name in VARIABLES:
                return Var(name, tok.pos)
            if name in self.params:
                return Param(name, tok.pos)
            raise ParseError(f"unknown identifier '{name}'", tok.pos)
        if tok.text == "(":
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
        except (ArithmeticError, ValueError) as err:  # math's domain and range errors
            raise ParseError(f"exponent does not fold to a real number: {err}",
                             caret) from None

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
            return math.pow(self._fold(node.base), node.exponent)
        if isinstance(node, Call):
            fn = {"abs": math.fabs, "sech": taylor._sech}.get(node.fn) or getattr(math, node.fn)
            return float(fn(self._fold(node.arg)))
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
    # parse knows no inf or nan: 1e400 reads back as inf, and inf - inf is NaN
    x = float(x)
    if math.isnan(x):
        return "1e400-1e400"
    if math.isinf(x):
        return "1e400" if x > 0 else "-1e400"
    return repr(x)


def _fmt(node, prec):
    if isinstance(node, Num):
        # a negative one reads back as a Neg, a NaN as a difference
        text = _fmt_num(node.value)
        if math.isnan(node.value):
            return f"({text})" if prec > _PREC_SUM else text
        return f"({text})" if text[0] == "-" and prec > _PREC_UNARY else text
    if isinstance(node, (Param, Var)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, _PREC_SUM)})"
    if isinstance(node, PowOp):
        e = node.exponent
        etext = f"(0-{_fmt_num(-e)})" if e < 0 else _fmt(Num(e, node.pos), _PREC_ATOM)
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


_SPACE = taylor.jet_space(taylor.MAX_ORDER)
_BLOCK = tuple(slice(d * (d + 1) // 2, (d + 1) * (d + 2) // 2)
               for d in range(_SPACE.order + 1))  # the slice of `_SPACE.monomials` of degree d
# a jet's attribute for the partial of each monomial u^a v^b, in order, and its degree
_PARTIALS = {("f_" + "u" * a + "v" * b if a + b else "value"): a + b for a, b in _SPACE.monomials}


class Jet2:
    """Value and partial derivatives of a vector map of (u, v) at one point
    (or grid), up to `order`, at most `taylor.MAX_ORDER`.

    `blocks[d]` holds the partials of degree d in the monomial order of
    `taylor.jet_space` (`blocks[0]` is `(value,)`), and each partial is
    also an attribute: `value`, `f_u`, `f_v`, `f_uu`, `f_uv`, `f_vv`,
    `f_uuu`, ....  Asking for one above `order` raises ValueError.  Each
    partial is the tuple of its components as the jet program computed
    them.  At a point given as floats (numpy float64 and 0-d float64
    arrays included: `eval_jet` turns them into Python floats) every
    component is a Python float.  On arrays a component is a float (a
    structural zero or constant) or an array broadcastable to
    broadcast(u, v), such as the caller's own u or v, or the column a
    component depending on u alone keeps when u is a column and v a row.
    Components are shared, never copied, so nothing may write into one.
    `abs_hits` flags, per component, an abs whose argument was exactly 0
    (empty: none was).
    """

    def __init__(self, blocks, abs_hits=()):
        self.blocks = blocks
        self.order = len(blocks) - 1
        self.abs_hits = abs_hits
        self.__dict__.update(zip(_PARTIALS, itertools.chain.from_iterable(blocks)))

    def __getattr__(self, name):  # reached only by a name `__init__` did not set
        degree = _PARTIALS.get(name)
        if degree is None:
            raise AttributeError(f"'Jet2' object has no attribute {name!r}")
        raise ValueError(f"jet order {degree} was not evaluated (order={self.order})")

    @property
    def abs_at_zero(self):
        """Whether any component went through abs at exactly 0."""
        return any(self.abs_hits)

    def along(self, d, k=1):
        """Directional derivative (d0 d/du + d1 d/dv)^k f for k = 1, 2, 3,
        component by component.

        d0 and d1 are scalars or arrays broadcastable to the jet's shape.
        """
        d0, d1 = d[0], d[1]
        if k == 1:
            return tuple(d0 * a + d1 * b for a, b in zip(self.f_u, self.f_v))
        if k == 2:
            p, q, r = d0 * d0, 2.0 * d0 * d1, d1 * d1
            return tuple(p * a + q * b + r * c
                         for a, b, c in zip(self.f_uu, self.f_uv, self.f_vv))
        if k == 3:
            p, q, r, s = d0 * d0 * d0, 3.0 * d0 * d0 * d1, 3.0 * d0 * d1 * d1, d1 * d1 * d1
            return tuple(p * a + q * b + r * c + s * e for a, b, c, e in
                         zip(self.f_uuu, self.f_uuv, self.f_uvv, self.f_vvv))
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k!r}")


def _bits(x):
    """Hash-consing key of a float: its bit pattern, so 0.0 and -0.0 (or
    two NaN payloads) never share a slot the way `==` would let them."""
    return struct.pack("<d", x)


class _Tape:
    """A vector expression lowered to a list of instructions.

    Each distinct subexpression is one instruction ``(op, args, aux,
    node)``: `args` are the slots (instruction indices) it reads, `aux` its
    constant operand, and `node` the syntax node whose source an error
    names.  The order is the post-order of the tree with repeats dropped, so
    the first instruction that fails is the subexpression a recursive walk
    would fail on first.  sin/cos and sinh/cosh of one argument read one
    shared "pair" slot.  `abs_deps` lists, per output, the abs instructions
    it depends on, so an abs at zero flags only the components that read it.
    `constants` lists the constants and real exponents in instruction
    order, and `shape` is everything else, which fixes the jet program.
    """

    __slots__ = ("code", "outputs", "abs_deps", "constants", "shape")

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
        self.code = tuple(code)
        deps = []
        for i, (op, args, _, _) in enumerate(code):
            deps.append(frozenset({i} if op == "abs" else ()).union(*(deps[a] for a in args)))
        self.abs_deps = tuple(deps[k] for k in self.outputs)
        valued = [op in ("const", "powr") for op, _, _, _ in code]
        self.constants = tuple(aux for (_, _, aux, _), v in zip(code, valued) if v)
        self.shape = (tuple((op, args, None if v else aux)
                            for (op, args, aux, _), v in zip(code, valued)), self.outputs)


# --- jet programs -------------------------------------------------------
#
# A tape becomes one generated Python function, `jet(u, v, n, R, C)`,
# made once per tape shape: the constants come in `C`.  `n` holds one
# order per output component, and every instruction is computed to the
# highest order any output that depends on it asks for: its coefficients
# of degree d sit under ``if k >= d:``, with k that maximum.  Which
# coefficients are structurally zero is known when the code is written
# (only const, var and abs leave any, and none of them looks at values), so
# no zero test runs; the others are computed by exactly the operations, on
# the same operands, that the reference `Series` applies, and `taylor`'s
# derivative tables are called at run time.  Values used once are inlined where they
# are used; the others get a variable, dropped after its last use.  The
# function stores the partial of output j for monomial m in R[m * (number
# of outputs) + j], leaving 0.0 where a coefficient is structurally zero,
# and returns the abs-at-zero flag of each output.

_DEGREE = tuple(a + b for a, b in _SPACE.monomials)
_PRODUCTS = tuple(  # (i, j) with a_i * b_j adding to coefficient k, in Series order
    tuple((i, j) for i, j, k in _SPACE.triples if k == m) for m in range(_SPACE.ncoef)
)
_MAX_INLINE = 24  # nesting depth of one inlined expression, for the parser
_MAX_PROGRAMS = 256
_PROGRAMS = {}  # tape shape -> (function, instruction index of each raising line)
_NAMES = itertools.count()


class _Term:
    """One value in a program being written: a leaf (a literal, an input
    or a variable a statement assigns) called `name`, or the operation `op`
    on the terms `args`, computed where it is used or, once it is given a
    `name`, in the block it was made in.  A "dot" is the sum of the
    products of its arguments in pairs, added left to right."""

    __slots__ = ("op", "args", "uses", "name", "depth")

    def __init__(self, op, args=(), name=None):
        self.op = op
        self.args = args
        self.uses = 0
        self.name = name
        self.depth = 0  # nesting of the expression it is inlined as


def _leaf(text):
    return _Term("leaf", name=text)


class _Writer:
    """Writes the jet function of one tape (see the comment above)."""

    def __init__(self, tape):
        self.tape = tape
        self.ncomp = len(tape.outputs)
        self.blocks = []  # per instruction, per degree: terms and statements
        self.kvars = {}  # set of outputs -> name of its order
        users = [set() for _ in tape.code]
        for j, slot in enumerate(tape.outputs):
            users[slot].add(j)
        for i in range(len(tape.code) - 1, -1, -1):
            for a in tape.code[i][1]:
                users[a] |= users[i]
        self.users = users

    # -- building terms, in the instruction order -------------------------

    def _op(self, op, args, deg):
        if not args:
            return None
        for a in args:
            a.uses += 1
        t = _Term(op, args)
        self.block[deg].append(t)
        return t

    def _call(self, text, read, raising=False):
        """A statement at degree 0 of the current block; the {} in `text`
        is the term `read`."""
        read.uses += 1
        self.block[0].append(("call", text, read, raising))

    def _mul(self, a, b):
        out = []
        for m, pairs in enumerate(_PRODUCTS):
            # Series adds the products into the coefficient in this order,
            # assigning the first
            args = []
            for p, q in pairs:
                x, y = a[p], b[q]
                if x is not None and y is not None:
                    args += x, y
            out.append(self._op("dot", args, _DEGREE[m]))
        return out

    def _add(self, a, b, op):
        out = []
        for m, (x, y) in enumerate(zip(a, b)):
            if y is None:
                out.append(x)
            elif x is None:
                out.append(y if op == "+" else self._op("neg", (y,), _DEGREE[m]))
            else:
                out.append(self._op(op, (x, y), _DEGREE[m]))
        return out

    def _compose(self, x, call, read, raising=False, top=_SPACE.order, extra=""):
        """Chain rule as the reference `_compose`, with the derivative
        table d that `call` returns (it has no entries past `top`: they are
        structurally 0); `extra` names the call's further results."""
        d = _Term("var", name=f"d{self.i}")
        self._call(f"{d.name}{extra} = {call}", read, raising)
        ps = [None] + x[1:]
        powers = [ps]
        factors = []
        for k in range(1, top + 1):
            if k > 1:
                powers.append(self._mul(powers[-1], ps))
            f = self._op("[]", (d, _leaf(str(k))), k)
            if k > 1:  # d[k] / k!; Series divides d[1] by 1.0, which is exact
                f = self._op("/", (f, _leaf(f"{math.factorial(k)}.0")), k)
            factors.append(f)
        # coefficient m adds pk[m] * d[k] / k! for k = 1, 2, ... in turn
        return [self._op("[]", (d, _leaf("0")), 0)] + [
            self._op("dot", tuple(t for pk, f in zip(powers, factors) if pk[m] is not None
                                  for t in (pk[m], f)), _DEGREE[m])
            for m in range(1, _SPACE.ncoef)
        ]

    def _reciprocal(self, x):
        return self._compose(x, f"taylor._d_reciprocal({{}}, {self._k()})", x[0], True)

    def build(self):
        coefs = []
        nconst = 0
        outputs = {}
        for j, slot in enumerate(self.tape.outputs):
            outputs.setdefault(slot, []).append(j)
        zeros = [None] * (_SPACE.ncoef - 1)
        for i, (op, args, aux, _) in enumerate(self.tape.code):
            self.i = i
            self.block = tuple([] for _ in _BLOCK)
            self.blocks.append(self.block)
            x = coefs[args[0]] if args else None
            if op == "const":
                c = [_leaf(f"c{nconst}")] + zeros
                nconst += 1
            elif op == "var":
                c = [_leaf(VARIABLES[aux])] + zeros
                c[1 + aux] = _leaf("1.0")
            elif op == "neg":
                c = [None if t is None else self._op("neg", (t,), _DEGREE[m])
                     for m, t in enumerate(x)]
            elif op in ("+", "-"):
                c = self._add(x, coefs[args[1]], op)
            elif op == "*":
                c = self._mul(x, coefs[args[1]])
            elif op == "/":
                c = self._mul(x, self._reciprocal(coefs[args[1]]))
            elif op == "powi":
                c = [_leaf("1.0")] + zeros  # Series.powi starts from const(1.0)
                for _ in range(abs(aux)):
                    c = self._mul(c, x)
                if aux < 0:
                    c = self._reciprocal(c)
            elif op == "powr":
                call = f"taylor._d_pow({{}}, c{nconst}, {self._k()})"
                nconst += 1
                c = self._compose(x, call, x[0], True)
            elif op == "pair":
                c = _Term("var", name=f"p{i}")
                self._call(f"{c.name} = taylor.pair_values({aux!r}, {{}})", x[0])
            elif op == "abs":
                c = self._compose(x, f"taylor._d_abs({{}}, {self._k()})", x[0],
                                  top=1, extra=f", h{i}")
            elif taylor.pair_kind(op):
                table = taylor._PAIRED[op][1].__name__
                c = self._compose(x, f"taylor.{table}(*{{}}, {self._k()})", coefs[args[1]])
            else:
                table = taylor._TABLES[op].__name__
                c = self._compose(x, f"taylor.{table}({{}}, {self._k()})", x[0],
                                  op in ("log", "sqrt"))
            coefs.append(c)
            for j in outputs.get(i, ()):
                for deg, span in enumerate(_BLOCK):
                    terms = c[span]
                    if any(terms):
                        for t in terms:
                            if t is not None:
                                t.uses += 1
                        item = ("R", span.start, span.stop, j, terms, _SPACE.factorial[span])
                        self.block[deg].append(item)

    def _k(self):
        """Name of the order the current instruction is computed to."""
        users = self.users[self.i]
        if len(users) == 1:
            return f"n{min(users)}"
        key = frozenset(users)
        if key not in self.kvars:
            self.kvars[key] = f"k{len(self.kvars)}"
        return self.kvars[key]

    # -- writing the source ------------------------------------------------

    def _text(self, t, prec=0):
        """`t` as an operand that binds at least as tightly as `prec`
        (1: sum, 2: product, 3: unary minus, 4: atom)."""
        name = t.name
        if name is not None:
            if t.op != "leaf":
                self.last[name] = self.i
            return name
        op, args = t.op, t.args
        if op == "dot":
            products = []
            for k in range(0, len(args), 2):
                x, y = args[k], args[k + 1]
                products.append(f"{x.name or self._text(x, 2)} * {y.name or self._text(y, 3)}")
                for z in (x, y):
                    if z.name and z.op != "leaf":
                        self.last[z.name] = self.i
            text = " + ".join(products)
            p = 2 if len(args) == 2 else 1
        elif op == "[]":
            return f"{self._text(args[0])}[{args[1].name}]"
        elif op == "neg":
            text, p = "-" + self._text(args[0], 4), 3
        elif op == "/":
            text, p = f"{self._text(args[0], 2)} / {self._text(args[1], 3)}", 2
        else:
            text, p = f"{self._text(args[0], 1)} {op} {self._text(args[1], 2)}", 1
        return text if p >= prec else f"({text})"

    def source(self):
        """The function's source and, per line that may raise
        ExprDomainError, the instruction it evaluates."""
        self.last = {}
        bodies = []
        for i, block in enumerate(self.blocks):
            self.i = i
            named = 0
            levels = []
            for items in block:
                rendered = []
                # arguments come before the terms that read them
                for item in items:
                    if type(item) is _Term:
                        if not item.uses:
                            continue
                        depth = 0
                        for a in item.args:
                            if a.depth > depth:
                                depth = a.depth
                        if item.uses == 1 and depth < _MAX_INLINE:
                            item.depth = depth + 1
                            continue
                        text = self._text(item)
                        item.name = f"t{i}_{named}"
                        named += 1
                        rendered.append((f"{item.name} = {text}", False))
                    elif item[0] == "R":
                        _, lo, hi, j, terms, facts = item
                        values = ", ".join(
                            "0.0" if t is None else self._text(t) if f == 1
                            else f"{self._text(t, 2)} * {f}"
                            for t, f in zip(terms, facts))
                        nc = self.ncomp
                        target = (f"R[{lo * nc + j}]" if hi == lo + 1
                                  else f"R[{lo * nc + j}:{hi * nc}:{nc}]")
                        rendered.append((f"{target} = {values}", False))
                    else:
                        _, text, read, raising = item
                        rendered.append((text.format(self._text(read)), raising))
                levels.append(rendered)
            bodies.append((self._k(), levels, []))
        for name, i in self.last.items():
            bodies[i][2].append(name)

        nc = self.ncomp
        out = ["def jet(u, v, n, R, C):", f"    {''.join(f'n{j}, ' for j in range(nc))}= n"]
        if self.tape.constants:
            out.append(f"    {''.join(f'c{j}, ' for j in range(len(self.tape.constants)))}= C")
        out += [f"    {k} = max({', '.join(f'n{j}' for j in sorted(s))})"
                for s, k in self.kvars.items()]
        lines = {}
        for i, (k, levels, names) in enumerate(bodies):
            if any(levels):
                op, args, aux, _ = self.tape.code[i]
                out.append(f"    # {i}: {op} {list(args) if args else aux!r}")
            indent = "    "
            for degree, rendered in enumerate(levels):
                if not rendered:
                    continue
                if degree:
                    out.append(f"{indent}if {k} >= {degree}:")
                    indent += "    "
                for text, raising in rendered:
                    out.append(indent + text)
                    if raising:
                        lines[len(out)] = i
            if names and i < len(bodies) - 1:
                out.append("    " + " = ".join(sorted(names)) + " = None")
        hits = [" or ".join(f"h{i}" for i in sorted(deps)) or "False"
                for deps in self.tape.abs_deps]
        out.append(f"    return ({', '.join(hits)},)")
        return "\n".join(out) + "\n", lines


def _program(tape, source):
    """The jet function of `tape`'s shape and the instruction of each of
    its lines that may raise ExprDomainError; generated on first use,
    under a file name showing `source`."""
    program = _PROGRAMS.get(tape.shape)
    if program is not None:
        return program
    if len(_PROGRAMS) >= _MAX_PROGRAMS:
        oldest = _PROGRAMS.pop(next(iter(_PROGRAMS)), None)
        if oldest is not None:
            linecache.cache.pop(oldest[0].__code__.co_filename, None)
    writer = _Writer(tape)
    writer.build()
    text, lines = writer.source()
    source = " ".join(source.split())
    filename = f"<jet {next(_NAMES)}: {source if len(source) <= 60 else source[:57] + '...'}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"taylor": taylor}
    exec(compile(text, filename, "exec"), namespace)
    program = _PROGRAMS[tape.shape] = (namespace["jet"], lines)
    return program


@lru_cache(maxsize=None)
def _layout(ncomponents, fields):
    """What `eval_jet` needs of its fields beyond the program: the order of
    each component, the size of the program's R, and per field the slice
    of R that holds each of its partials, the slices of `_BLOCK` that
    group those into blocks, and its span of components.  It depends only
    on the component count and the fields, so it is worked out once per
    pair; there are few pairs, since each order is one of 0..MAX_ORDER."""
    orders = ()
    for count, k in fields:
        if k not in range(_SPACE.order + 1):
            raise ValueError(f"order must be 0..{_SPACE.order}, got {k!r}")
        orders += (int(k),) * count
    nc = len(orders)
    if nc != ncomponents:
        raise ValueError(f"fields cover {nc} of {ncomponents} components")
    groups = []
    lo = 0
    for count, k in fields:
        k = int(k)
        parts = tuple(slice(m * nc + lo, m * nc + lo + count) for m in range(_BLOCK[k].stop))
        groups.append((parts, _BLOCK[:k + 1], slice(lo, lo + count)))
        lo += count
    return orders, _BLOCK[max(orders)].stop * nc, tuple(groups)


def _float(x):
    """`x` as a Python float where it is a numpy float64 or a 0-d float64
    array (the conversion is exact), else `x` itself."""
    if isinstance(x, np.float64) or (
            isinstance(x, np.ndarray) and x.shape == () and x.dtype == np.float64):
        return float(x)
    return x


def eval_jet(e, u, v, order):
    """Evaluate `e` and its exact partials up to `order` at (u, v).

    u and v may be floats or broadcastable numpy arrays; with arrays,
    domain violations surface as NaN entries rather than exceptions.  A
    numpy float64 u or v, or a 0-d float64 array, is first turned into a
    Python float, which is exact: the program then does its arithmetic on
    Python floats, at about half the cost of numpy scalars per operation,
    with the same bits.  `order` may also be a tuple of ``(count, order)``
    fields that split the components, in turn, into jets of their own
    orders; the result is then the tuple of their jets, each computed no
    further than its own order.
    """
    single = not isinstance(order, tuple)
    fields = ((e.ncomponents, order),) if single else order
    if not isinstance(e.root, Vector):
        raise ValueError("eval_jet needs a vector-valued expression")
    try:
        orders, size, groups = _layout(e.ncomponents, fields)
    except TypeError:  # unhashable fields: the uncached layout says what is wrong
        orders, size, groups = _layout.__wrapped__(e.ncomponents, fields)
    if type(u) is not float:
        u = _float(u)
    if type(v) is not float:
        v = _float(v)
    run, lines = e.program
    R = [0.0] * size
    try:
        hits = run(u, v, orders, R, e.tape.constants)
    except ExprDomainError as err:
        # the traceback's second entry is the generated frame, at the line
        # of the table call that raised
        node = e.tape.code[lines[err.__traceback__.tb_next.tb_lineno]][3]
        raise ExprDomainError(err.args[0], source=to_source(node)) from None
    jets = []
    for parts, blocks, span in groups:
        partials = [tuple(R[s]) for s in parts]
        jets.append(Jet2(tuple([tuple(partials[b]) for b in blocks]), hits[span]))
    return jets[0] if single else tuple(jets)


def join(*exprs):
    """One vector expression listing the components of `exprs` in turn.

    Parameters keep their names.  Where an expression binds a name to
    another value than an earlier one did, its uses of that name become
    the constant, so every component keeps the value it was parsed with.
    """
    params = {}
    comps = []
    for e in exprs:
        clash = {k: x for k, x in e.params if k in params and _bits(params[k]) != _bits(x)}
        for k, x in e.params:
            params.setdefault(k, x)
        comps += _inline(e.root, clash).components
    root = Vector(comps, 0)
    return Expr(root, tuple(sorted(params.items())), to_source(root))


def _inline(node, values):
    """`node` with each parameter named in `values` replaced by its value."""
    if not values:
        return node
    if isinstance(node, Param) and node.name in values:
        return Num(values[node.name], node.pos)
    if isinstance(node, Vector):
        return Vector([_inline(c, values) for c in node.components], node.pos)
    return replace(node, **{f.name: _inline(getattr(node, f.name), values) for f in fields(node)
                            if isinstance(getattr(node, f.name), Node)})
