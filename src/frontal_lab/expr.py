"""A small, total expression language for parametrizations and structure data.

Grammar (whitespace-insensitive, byte-offset error reporting):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' exponent)?          # right-associative
    exponent:= ('-')? INT ('^' exponent)?    # integer literals only
    atom    := NUMBER | 'u1' | 'u2' | 't' | '(' expr ')'
             | ('sin'|'cos'|'exp'|'sqrt'|'abs') '(' expr ')'
             | 'pow' '(' expr ',' ('-')? INT ')'

Integrals are deliberately not expressible here; surfaces that need them
are built by catalog constructors on top of integrate_jet.  `abs` is only
admitted where its argument is sign-definite on the declared domain,
checked numerically on a coarse grid at load time, so jets stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .jets import Jet, JetVec3

_FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
_VARIABLES = ("u1", "u2", "t")


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str          # neg, sin, cos, exp, sqrt, abs
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str          # + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


# --- tokenizer ----------------------------------------------------------------

_SINGLE = set("+-*/^(),")


def _tokenize(src):
    tokens = []
    k, n = 0, len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, k))
            k += 1
            continue
        if ch.isdigit() or ch == ".":
            start = k
            while k < n and (src[k].isdigit() or src[k] == "."):
                k += 1
            if k < n and src[k] in "eE":
                j = k + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    k = j
                    while k < n and src[k].isdigit():
                        k += 1
            text = src[start:k]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(start, {"number"},
                                      f"bad numeric literal {text!r} at offset {start}")
            tokens.append(("num", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (src[k].isalnum() or src[k] == "_"):
                k += 1
            tokens.append(("name", src[start:k], start))
            continue
        raise ExprSyntaxError(k, {"token"}, f"unexpected character {ch!r} at offset {k}")
    tokens.append(("end", None, n))
    return tokens


# --- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], {kind})
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(tok[2], {"end of input"})
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(node, self.exponent())
        return node

    def exponent(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok[0] != "num" or float(tok[1]) != int(tok[1]):
            raise ExprSyntaxError(tok[2], {"integer exponent"})
        self.advance()
        base = sign * int(tok[1])
        if self.peek()[0] == "^":
            self.advance()
            return base ** self.exponent()
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(float(tok[1]))
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name in _VARIABLES:
                return Var(name)
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Unary(name, arg)
            if name == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                exponent = self.exponent()
                self.expect(")")
                return Pow(base, exponent)
            raise UnknownIdentifier(name, tok[2])
        raise ExprSyntaxError(tok[2], {"number", "variable", "function", "("})


def parse(source):
    """Parse source text to an immutable AST."""
    return _Parser(source).parse()


# --- printer (round-trips through parse) ----------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    if isinstance(node, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def to_source(node):
    """Render an AST back to parseable text, structurally faithful."""
    if isinstance(node, Num):
        return repr(node.value) if node.value >= 0 else f"({node.value!r})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Pow):
        if node.exponent < 0:
            return f"pow({to_source(node.base)}, {node.exponent})"
        base = to_source(node.base)
        if not (isinstance(node.base, Var)
                or (isinstance(node.base, Num) and node.base.value >= 0)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Bin):
        left, right = to_source(node.left), to_source(node.right)
        if _prec(node.left) < _PREC[node.op]:
            left = f"({left})"
        # left-associative: parenthesize right side at equal precedence
        if _prec(node.right) <= _PREC[node.op]:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# --- evaluation -------------------------------------------------------------------


def eval_jet(node, env):
    """Evaluate to a Jet by structural recursion; env maps names to Jets."""
    if isinstance(node, Num):
        order = next(iter(env.values())).order
        return Jet.constant(node.value, order)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(node.name, -1)
    if isinstance(node, Bin):
        a = eval_jet(node.left, env)
        b = eval_jet(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return eval_jet(node.base, env) ** node.exponent
    if isinstance(node, Unary):
        a = eval_jet(node.arg, env)
        if node.op == "neg":
            return -a
        if node.op == "sin":
            return a.sin()
        if node.op == "cos":
            return a.cos()
        if node.op == "exp":
            return a.exp()
        if node.op == "sqrt":
            return a.sqrt()
        return a.absolute()
    raise TypeError(f"not an AST node: {node!r}")


def _power(base, exponent):
    """base ** exponent, with IEEE +-inf where a Python float overflows:
    `**` raises OverflowError there, while arrays and products give inf."""
    try:
        return base ** exponent
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.power(base, float(exponent)))


def eval_num(node, env):
    """Plain recursive evaluator on floats/arrays; the jet-free code path."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(node.name, -1)
    if isinstance(node, Bin):
        a = eval_num(node.left, env)
        b = eval_num(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        # np.divide, not `/`: two Python floats divide without consulting
        # np.errstate and raise ZeroDivisionError on a zero divisor
        with np.errstate(divide="raise", invalid="raise"):
            try:
                return np.divide(a, b)
            except FloatingPointError:
                raise DomainError("division by zero in plain evaluation")
    if isinstance(node, Pow):
        base = eval_num(node.base, env)
        if node.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise DomainError("zero base with negative exponent")
        return _power(base, node.exponent)
    if isinstance(node, Unary):
        a = eval_num(node.arg, env)
        if node.op == "neg":
            return -a
        if node.op == "sin":
            return np.sin(a)
        if node.op == "cos":
            return np.cos(a)
        if node.op == "exp":
            return np.exp(a)
        if node.op == "sqrt":
            if np.any(np.asarray(a) < 0.0):
                raise DomainError("sqrt of a negative value")
            return np.sqrt(a)
        return np.abs(a)
    raise TypeError(f"not an AST node: {node!r}")


def eval_point(node, point, order):
    """Jet of the expression at a parameter point (u1, u2)."""
    return eval_jet(node, _jet_env(point[0], point[1], order))


def _jet_env(u1, u2, order):
    """Coordinate jets of u1 and u2 at the base points, as eval_jet reads them."""
    return {"u1": Jet.variable(u1, 0, order), "u2": Jet.variable(u2, 1, order)}


# How jets_fn packs the jets of n sources: a jet, a JetVec3, a row-major
# 2x2 jet matrix, or the two basis columns of a moving basis.
_PACK = {1: lambda j: j[0], 3: lambda j: JetVec3(*j),
         4: lambda j: [j[:2], j[2:]],
         6: lambda j: (JetVec3(*j[:3]), JetVec3(*j[3:]))}


def jets_fn(sources):
    """Callable (u1, u2, order) -> jets of 1, 3, 4 or 6 expressions (text
    or ASTs), all evaluated in one coordinate environment and grouped by
    their count as `_PACK` says."""
    asts = [parse(s) if isinstance(s, str) else s for s in sources]
    pack = _PACK[len(asts)]

    def fn(u1, u2, order):
        env = _jet_env(u1, u2, order)
        return pack([eval_jet(a, env) for a in asts])
    return fn


# --- symbolic derivative (used by the representation-formula generators) ---------


def differentiate(node, name):
    """d(node)/d(name) as an AST; exact, no simplification beyond constants."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == name else 0.0)
    if isinstance(node, Bin):
        da, db = differentiate(node.left, name), differentiate(node.right, name)
        if node.op == "+":
            return Bin("+", da, db)
        if node.op == "-":
            return Bin("-", da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, node.right), Bin("*", node.left, db))
        # quotient rule
        num = Bin("-", Bin("*", da, node.right), Bin("*", node.left, db))
        return Bin("/", num, Pow(node.right, 2))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return Num(0.0)
        inner = differentiate(node.base, name)
        scaled = Bin("*", Num(float(node.exponent)),
                     Pow(node.base, node.exponent - 1))
        return Bin("*", scaled, inner)
    if isinstance(node, Unary):
        da = differentiate(node.arg, name)
        if node.op == "neg":
            return Unary("neg", da)
        if node.op == "sin":
            return Bin("*", Unary("cos", node.arg), da)
        if node.op == "cos":
            return Unary("neg", Bin("*", Unary("sin", node.arg), da))
        if node.op == "exp":
            return Bin("*", Unary("exp", node.arg), da)
        if node.op == "sqrt":
            return Bin("/", da, Bin("*", Num(2.0), Unary("sqrt", node.arg)))
        raise DomainError("abs has no expression-level derivative here")
    raise TypeError(f"not an AST node: {node!r}")


def simplify(node):
    """Constant folding and unit/zero elimination, recursively.

    Keeps derivative output readable; semantics-preserving only (no
    reassociation), so 0*x -> 0 is safe because evaluation is total on
    the unchanged subtree's domain.
    """
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Unary):
        arg = simplify(node.arg)
        if node.op == "neg":
            if isinstance(arg, Num):
                return Num(-arg.value)
            if isinstance(arg, Unary) and arg.op == "neg":
                return arg.arg
        return Unary(node.op, arg)
    if isinstance(node, Pow):
        base = simplify(node.base)
        if node.exponent == 0:
            return Num(1.0)
        if node.exponent == 1:
            return base
        if isinstance(base, Num):
            return Num(_power(base.value, node.exponent))
        return Pow(base, node.exponent)
    if isinstance(node, Bin):
        left = simplify(node.left)
        right = simplify(node.right)
        lnum = left.value if isinstance(left, Num) else None
        rnum = right.value if isinstance(right, Num) else None
        if node.op == "+":
            if lnum == 0.0:
                return right
            if rnum == 0.0:
                return left
            if lnum is not None and rnum is not None:
                return Num(lnum + rnum)
        elif node.op == "-":
            if rnum == 0.0:
                return left
            if lnum == 0.0:
                return simplify(Unary("neg", right))
            if lnum is not None and rnum is not None:
                return Num(lnum - rnum)
        elif node.op == "*":
            if lnum == 0.0 or rnum == 0.0:
                return Num(0.0)
            if lnum == 1.0:
                return right
            if rnum == 1.0:
                return left
            if lnum is not None and rnum is not None:
                return Num(lnum * rnum)
        elif node.op == "/":
            if lnum == 0.0 and rnum != 0.0:
                return Num(0.0)
            if rnum == 1.0:
                return left
            if lnum is not None and rnum is not None and rnum != 0.0:
                return Num(lnum / rnum)
        return Bin(node.op, left, right)
    raise TypeError(f"not an AST node: {node!r}")


# --- load-time domain validation ---------------------------------------------------


def _nodes(node):
    """Every node of an AST, each before its children."""
    yield node
    if isinstance(node, Unary):
        yield from _nodes(node.arg)
    elif isinstance(node, Bin):
        yield from _nodes(node.left)
        yield from _nodes(node.right)
    elif isinstance(node, Pow):
        yield from _nodes(node.base)


def _args_of(node, op):
    return [n.arg for n in _nodes(node) if isinstance(n, Unary) and n.op == op]


def validate_on_domain(node, domain, samples=16):
    """Reject abs over sign-changing arguments, probing a coarse grid.

    domain: (a1, b1, a2, b2).  Raises DomainError on a sign change (or a
    sampled exact zero) under abs; sqrt arguments are probed too so bad
    catalog data fails at load rather than mid-sweep.
    """
    a1, b1, a2, b2 = domain
    u1, u2 = np.meshgrid(np.linspace(a1, b1, samples),
                         np.linspace(a2, b2, samples), indexing="ij")
    env = {"u1": u1, "u2": u2, "t": u1}
    for arg in _args_of(node, "abs"):
        vals = np.asarray(eval_num(arg, env))
        if np.any(vals > 0) and np.any(vals < 0):
            raise DomainError(
                f"abs argument {to_source(arg)!r} changes sign on the domain")
        if np.any(vals == 0):
            raise DomainError(
                f"abs argument {to_source(arg)!r} hits zero on the sample grid")
    for arg in _args_of(node, "sqrt"):
        vals = np.asarray(eval_num(arg, env))
        if np.any(vals < 0):
            raise DomainError(
                f"sqrt argument {to_source(arg)!r} is negative on the domain")
    return node
