"""Ring and expression parsing for the CLI.

Ring grammar:   ZZ | QQ | Zmod:<m> | GF:<p> | Poly:<ring>:<var>

Expression grammar (recursive descent, standard precedence with ^ above
unary minus above * above binary +/-):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' integer)*
    atom   := integer | name | '(' expr ')'

Exponents must be nonnegative integer literals.  Which names resolve
depends on the context: X for univariate polynomials, X1..Xn for
multivariate ones, e1..en for elements of the symmetric ring (plus X
again for polynomials over it), and the tower variables of the
coefficient ring everywhere.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .multipoly import MultiPoly
from .poly import Poly, PolyRing, tower_constants
from .rings import GF, QQ, Ring, Zmod, ZZ, is_prime
from .symmetric import SymElem, SymPoly1

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.advance()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            node = ("pow", node, tok[1])
        return node

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            return ("int", tok[1])
        if tok[0] == "name":
            return ("var", tok[1], tok[2])
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _eval(node, env, embed_int):
    kind = node[0]
    if kind == "int":
        return embed_int(node[1])
    if kind == "var":
        value = env.get(node[1])
        if value is None:
            raise ParseError(f"unknown symbol {node[1]!r}", node[2])
        return value
    if kind == "neg":
        return -_eval(node[1], env, embed_int)
    if kind == "add":
        return _eval(node[1], env, embed_int) + _eval(node[2], env, embed_int)
    if kind == "sub":
        return _eval(node[1], env, embed_int) - _eval(node[2], env, embed_int)
    if kind == "mul":
        return _eval(node[1], env, embed_int) * _eval(node[2], env, embed_int)
    if kind == "pow":
        return _eval(node[1], env, embed_int) ** node[2]
    raise AssertionError(f"unhandled node {kind}")


def parse_ring(text: str) -> Ring:
    t = text.strip()
    if t == "ZZ":
        return ZZ
    if t == "QQ":
        return QQ
    if t.startswith("Zmod:"):
        return Zmod(_ring_int(t[5:], t))
    if t.startswith("GF:"):
        p = _ring_int(t[3:], t)
        if not is_prime(p):
            raise ParseError(f"GF parameter {p} is not prime")
        return GF(p)
    if t.startswith("Poly:"):
        rest = t[5:]
        base_text, sep, var = rest.rpartition(":")
        if not sep or not base_text:
            raise ParseError(f"malformed ring {text!r}")
        try:
            return PolyRing(parse_ring(base_text), var)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ring {text!r}")


def _ring_int(digits: str, whole: str) -> int:
    if not digits.isdigit():
        raise ParseError(f"malformed ring {whole!r}")
    value = int(digits)
    if value < 2:
        raise ParseError(f"ring parameter must be >= 2, got {value}")
    return value


def _parse(text: str, ring: Ring, names: dict, lift):
    """Evaluate text with names, then ring's tower variables bound after
    them; lift carries tower constants and integer literals to the target."""
    env = dict(names)
    for name, v in tower_constants(ring).items():
        env[name] = lift(v)
    return _eval(_Parser(text).parse(), env, lift)


def parse_scalar(text: str, ring: Ring):
    return _parse(text, ring, {}, ring.value)


def parse_poly(text: str, ring: Ring) -> Poly:
    return _parse(text, ring, {"X": Poly.gen(ring)}, lambda k: Poly.constant(ring, k))


def parse_multipoly(text: str, ring: Ring, nvars: int) -> MultiPoly:
    names = {
        f"X{k}": MultiPoly.variable(k, nvars, ring) for k in range(1, nvars + 1)
    }
    return _parse(text, ring, names, lambda k: MultiPoly.constant(ring, nvars, k))


def parse_symelem(text: str, ring: Ring, arity: int) -> SymElem:
    names = {f"e{k}": SymElem.e(k, arity, ring) for k in range(1, arity + 1)}
    return _parse(text, ring, names, lambda k: SymElem.constant(ring, arity, k))


def parse_sympoly1(text: str, ring: Ring, arity: int) -> SymPoly1:
    names = {
        f"e{k}": SymPoly1.from_symelem(SymElem.e(k, arity, ring))
        for k in range(1, arity + 1)
    }
    names["X"] = SymPoly1.x(ring, arity)
    # the constructor lifts a scalar k through SymElem.constant
    return _parse(text, ring, names, lambda k: SymPoly1(ring, arity, (k,)))
