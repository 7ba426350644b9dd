"""Ring and expression parsing for the CLI.

Ring grammar:   ZZ | QQ | Zmod:<m> | GF:<p> | Poly:<ring>:<var>

Expression grammar, with ^ above unary minus above * above binary +/-,
and +, - and * left-associative:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' integer)*
    atom   := integer | name | '(' expr ')'

_postfix puts the tokens in postfix order over an explicit operator
stack, and _fold runs that list on a value stack, once for the budgets
below and, only if they pass, once for the value.  Neither recurses, so
no nesting cap is needed: their stacks grow at most linearly in the
text, and the budgets bound the work.

Exponents must be nonnegative integer literals.  Before anything is
evaluated, the degree every subexpression can reach, counting every
integer literal as degree 1 like a name (so that 2^k grows like X^k),
must stay within quotients.DEGREE_BOUND; the term products (products of
two coefficients) that evaluating the whole expression can make, within
quotients.TERM_PRODUCT_BOUND; and the number of variables X1..Xn or
e1..en, each a name bound before parsing, within quotients.ARITY_BOUND,
as must the levels of a tower ring, which bind one name each.
A larger one raises OracleInfeasibleError.  Which names resolve
depends on the context: X for univariate polynomials, X1..Xn for
multivariate ones, e1..en for elements of the symmetric ring (plus X
again for polynomials over it), and the tower variables of the
coefficient ring everywhere.
"""

from __future__ import annotations

import re
from math import comb

from .errors import OracleInfeasibleError, ParseError
from .multipoly import MultiPoly
from .poly import Poly, PolyRing, tower_constants
from .quotients import DEGREE_BOUND, TERM_PRODUCT_BOUND, _check_arity
from .rings import GF, QQ, Ring, Zmod, ZZ, is_prime
from .symmetric import SymElem, SymPoly1

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        number, name, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
        if number is not None:
            tokens.append(("int", int(number), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append((op, op, m.start(3)))
    tokens.append(("end", None, len(text)))
    return tokens


def _postfix(text: str) -> list:
    """The tokens of text in postfix order, by precedence climbing over an
    explicit operator stack.  Integer and name tokens are the leaves; an
    operator node follows its operands: a binary token, ("neg",), or
    ("^", k).  A ParseError names the first token, from the
    left, that the grammar does not admit."""
    out = []
    pending = []  # (precedence, node) not yet emitted; (0, None) is a '('
    depth = 0  # open parentheses
    operand = True  # whether the next token must start an operand
    tokens = iter(_tokenize(text))
    for token in tokens:
        kind, value, pos = token
        if operand:
            if kind == "-":
                pending.append((3, ("neg",)))  # above * and below ^
            elif kind == "(":
                pending.append((0, None))
                depth += 1
            elif kind == "int" or kind == "name":
                out.append(token)
                operand = False
            elif kind == "end":
                raise ParseError("unexpected end of input", pos)
            else:
                raise ParseError(f"unexpected token {value!r}", pos)
        elif kind == "^":
            kind, value, pos = next(tokens)
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            out.append(("^", value))
        elif kind in _PRECEDENCE:
            while pending and pending[-1][0] >= _PRECEDENCE[kind]:
                out.append(pending.pop()[1])
            pending.append((_PRECEDENCE[kind], token))
            operand = True
        elif kind == ")" and depth:
            while (node := pending.pop()[1]) is not None:
                out.append(node)
            depth -= 1
        elif depth:
            raise ParseError(f"expected ')', found {value!r}", pos)
        elif kind == "end":
            return out + [node for _, node in reversed(pending)]
        else:
            raise ParseError(f"trailing input {value!r}", pos)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}  # binary and left-associative


def _fold(nodes, leaf, step, context):
    """Run a postfix node list on a value stack: leaf(node, context) is
    the value of an integer or a name, and step(node, a, b, context) that
    of an operator on the values a and, if it is binary, b (else None)."""
    stack = []
    for node in nodes:
        kind = node[0]
        if kind == "int" or kind == "name":
            stack.append(leaf(node, context))
        elif kind == "neg" or kind == "^":
            stack[-1] = step(node, stack[-1], None, context)
        else:
            b = stack.pop()
            stack[-1] = step(node, stack[-1], b, context)
    return stack[0]


def _bound_leaf(node, sparse):
    return 1, frozenset(node[1:2] if node[0] == "name" else ()), 1, 0


def _bound_step(node, a, b, sparse):
    """The step of the budget fold.  Its value for an expression is
    (degree, names, terms, products): bounds on its degree in all names,
    integer literals counting as degree 1, and on its number of terms in
    the names of sparse; the names it uses; and a bound on the term
    products evaluating it makes (see _slots).  The value fold evaluates
    every subexpression, so each must pass: (X^99999999)^0 is refused."""
    kind = node[0]
    if kind == "neg":
        return a
    if kind == "^":
        degree, names, terms, products = a
        k = node[1]
        _check_degree(degree * k)
        n_sparse = len(names & sparse)

        def power_terms(j):
            return min(_monomials(j * degree, n_sparse), comb(terms + j - 1, j))

        def slots(j):
            return _slots(j * degree, names, power_terms(j), sparse)

        done, base = 0, 1
        # the products of rings._power, which squares only while bits remain
        while True:
            if k & 1:
                products += slots(done) * slots(base)
                done += base
            k >>= 1
            if not k:
                return degree * node[1], names, power_terms(done), products
            products += slots(base) ** 2
            base *= 2
    d1, names1, t1, p1 = a
    d2, names2, t2, p2 = b
    names = names1 | names2
    n_sparse = len(names & sparse)
    if kind == "*":
        degree = _check_degree(d1 + d2)
        products = _slots(d1, names1, t1, sparse) * _slots(d2, names2, t2, sparse)
        terms = min(t1 * t2, _monomials(degree, n_sparse))
        return degree, names, terms, p1 + p2 + products
    degree = max(d1, d2)
    return degree, names, min(t1 + t2, _monomials(degree, n_sparse)), p1 + p2


def _slots(degree: int, names, terms: int, sparse) -> int:
    """A bound on the coefficient slots of a value.  Each of its terms in
    the names of sparse (X1..Xn, e1..en, and the X of a SymPoly1, whose
    coefficients are sparse) holds a dense array of payloads over its
    other names (the X of a Poly, tower variables), zeros included.
    Multiplying two values makes at most the product of their slot
    counts term products."""
    return terms * _monomials(degree, len(names - sparse))


def _monomials(degree: int, count: int) -> int:
    """The number of monomials in count names of total degree at most degree."""
    return comb(degree + count, count)


def _check_degree(degree: int) -> int:
    if degree > DEGREE_BOUND:
        raise OracleInfeasibleError(
            f"expression degree {degree} exceeds the degree bound {DEGREE_BOUND}"
        )
    return degree


def _value_leaf(node, context):
    env, lift = context
    if node[0] == "int":
        return lift(node[1])
    value = env.get(node[1])
    if value is None:
        raise ParseError(f"unknown symbol {node[1]!r}", node[2])
    return value


def _value_step(node, a, b, context):
    kind = node[0]
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "neg":
        return -a
    return a ** node[1]


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
        levels, rest = 0, t
        while rest.startswith("Poly:"):  # one name per level, as X1..Xn
            levels, rest = levels + 1, rest[5:].lstrip()
        _check_arity(levels, "tower depth")
        base_text, sep, var = t[5:].rpartition(":")
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


def _parse(text: str, ring: Ring, names: dict, lift, sparse=frozenset()):
    """Evaluate text with names, then ring's tower variables bound after
    them; lift carries tower constants and integer literals to the target.
    The values are sparse in the names of sparse (see _slots)."""
    nodes = _postfix(text)
    products = _fold(nodes, _bound_leaf, _bound_step, sparse)[3]
    if products > TERM_PRODUCT_BOUND:
        raise OracleInfeasibleError(
            f"expression needs up to {products} term products, over the"
            f" bound {TERM_PRODUCT_BOUND}"
        )
    env = dict(names)
    for name, v in tower_constants(ring).items():
        env[name] = lift(v)
    return _fold(nodes, _value_leaf, _value_step, (env, lift))


def parse_scalar(text: str, ring: Ring):
    return _parse(text, ring, {}, ring.value)


def parse_poly(text: str, ring: Ring) -> Poly:
    return _parse(text, ring, {"X": Poly.gen(ring)}, lambda k: Poly.constant(ring, k))


def parse_multipoly(text: str, ring: Ring, nvars: int) -> MultiPoly:
    _check_arity(nvars)
    names = {
        f"X{k}": MultiPoly.variable(k, nvars, ring) for k in range(1, nvars + 1)
    }
    return _parse(
        text, ring, names, lambda k: MultiPoly.constant(ring, nvars, k), frozenset(names)
    )


def parse_symelem(text: str, ring: Ring, arity: int) -> SymElem:
    _check_arity(arity)
    names = {f"e{k}": SymElem.e(k, arity, ring) for k in range(1, arity + 1)}
    return _parse(
        text, ring, names, lambda k: SymElem.constant(ring, arity, k), frozenset(names)
    )


def parse_sympoly1(text: str, ring: Ring, arity: int) -> SymPoly1:
    _check_arity(arity)
    names = {
        f"e{k}": SymPoly1.from_symelem(SymElem.e(k, arity, ring))
        for k in range(1, arity + 1)
    }
    names["X"] = SymPoly1.x(ring, arity)
    # the constructor lifts a scalar k through SymElem.constant; the
    # coefficients of X are sparse, so X counts as a sparse name
    return _parse(
        text, ring, names, lambda k: SymPoly1(ring, arity, (k,)), frozenset(names)
    )
