import sys
import time
from random import Random

import pytest

from symmline import parsing
from symmline.errors import (
    ARITY_BOUND,
    DEGREE_BOUND,
    TERM_PRODUCT_BOUND,
    OracleInfeasibleError,
    ParseError,
)
from symmline.parsing import (
    parse_multipoly,
    parse_poly,
    parse_ring,
    parse_scalar,
    parse_symelem,
    parse_sympoly1,
)
from symmline.poly import Poly, PolyRing, tower_constants
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import random_poly, random_symelem
from symmline.symmetric import SymElem, SymPoly1


def test_parse_ring_forms():
    assert parse_ring("ZZ") == ZZ
    assert parse_ring("QQ") == QQ
    assert parse_ring("Zmod:12") == Zmod(12)
    assert parse_ring("GF:5") == GF(5)
    assert parse_ring("Poly:ZZ:T") == PolyRing(ZZ, "T")
    assert parse_ring("Poly:Poly:ZZ:T:S") == PolyRing(PolyRing(ZZ, "T"), "S")


def test_parse_ring_errors():
    for bad in ("GF:4", "Zmod:1", "Zmod:x", "Poly:ZZ", "Poly::T", "zz", "GF:"):
        with pytest.raises(ParseError):
            parse_ring(bad)


def _tower_text(levels, base="ZZ"):
    for k in range(levels):
        base = f"Poly:{base}:T{chr(ord('a') + k % 26)}{k // 26 or ''}"
    return base


def test_tower_depth_is_bounded_before_any_ring_is_built():
    ring = parse_ring(_tower_text(ARITY_BOUND))
    assert len(tower_constants(ring)) == ARITY_BOUND
    start = time.perf_counter()
    for levels in (ARITY_BOUND + 1, 300, 1000):
        with pytest.raises(OracleInfeasibleError, match=f"tower depth {levels} "):
            parse_ring(_tower_text(levels))
    # refused on the count of levels, even where a level is malformed
    with pytest.raises(OracleInfeasibleError):
        parse_ring("Poly: " * (ARITY_BOUND + 1) + "ZZ")
    assert time.perf_counter() - start < 1.0


def test_tower_variable_names_are_distinct():
    for bad in ("Poly:Poly:ZZ:T:T", "Poly:Poly:Poly:ZZ:T:S:T", "Poly: Poly:ZZ:T :T"):
        with pytest.raises(ParseError, match="already used"):
            parse_ring(bad)
    with pytest.raises(ValueError, match="'T' is already used in Poly:ZZ:T"):
        PolyRing(PolyRing(ZZ, "T"), "T")


def test_parse_poly_worked_example():
    assert parse_poly("X^2 - 3*X + 2", ZZ) == Poly(ZZ, [2, -3, 1])


def test_parse_poly_product_form():
    assert parse_poly("(X-1)*(X-2)", ZZ) == Poly(ZZ, [2, -3, 1])


def test_parse_poly_reduces_coefficients():
    assert parse_poly("X^2 + 7", GF(5)) == Poly(GF(5), [2, 0, 1])


def test_parse_precedence():
    # ^ binds above unary minus, which binds above *
    assert parse_poly("-X^2", ZZ) == -(Poly.gen(ZZ) ** 2)
    assert parse_poly("-2*X", ZZ) == Poly(ZZ, [0, -2])
    assert parse_poly("2+3*X^2", ZZ) == Poly(ZZ, [2, 0, 3])
    assert parse_poly("(2+3)*X", ZZ) == Poly(ZZ, [0, 5])
    assert parse_poly("2-3-4", ZZ) == Poly(ZZ, [-5])


def test_parse_tower_variable():
    tower = PolyRing(ZZ, "T")
    f = parse_poly("X - T", tower)
    assert f == Poly(tower, [-tower.gen(), tower.one])
    nested = PolyRing(tower, "S")
    g = parse_poly("S*X + T", nested)
    assert g.coeff(1) == nested.gen()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_poly("X + $", ZZ)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("X^-1", ZZ)  # exponent must be a literal
    with pytest.raises(ParseError):
        parse_poly("X Y", ZZ)
    with pytest.raises(ParseError):
        parse_poly("Y + 1", ZZ)
    with pytest.raises(ParseError):
        parse_poly("(X + 1", ZZ)
    with pytest.raises(ParseError):
        parse_poly("", ZZ)


# malformed input -> the ParseError message (without its position
# suffix) and position, as the recursive-descent parser gave them
MALFORMED = [
    ("X + $", "unexpected character '$'", 4),
    ("X^-1", "exponent must be a nonnegative integer", 2),
    ("X Y", "trailing input 'Y'", 2),
    ("(X + 1", "expected ')', found None", 6),
    ("", "unexpected end of input", 0),
    ("()", "unexpected token ')'", 1),
    ("X)", "trailing input ')'", 1),
    ("X^", "exponent must be a nonnegative integer", 2),
    ("X^X", "exponent must be a nonnegative integer", 2),
    ("*X", "unexpected token '*'", 0),
    ("X*", "unexpected end of input", 2),
    ("-", "unexpected end of input", 1),
    ("2 3", "trailing input 3", 2),
    ("1-(X", "expected ')', found None", 4),
    ("X^(2)", "exponent must be a nonnegative integer", 2),
    ("Y + 1", "unknown symbol 'Y'", 0),
    ("(", "unexpected end of input", 1),
    (")", "unexpected token ')'", 0),
    ("X+", "unexpected end of input", 2),
    ("+X", "unexpected token '+'", 0),
    ("X^2 3", "trailing input 3", 4),
    ("((X)", "expected ')', found None", 4),
    ("X(", "trailing input '('", 1),
    ("1 (X)", "trailing input '('", 2),
    ("   ", "unexpected end of input", 3),
    ("(X))", "trailing input ')'", 3),
    ("X ^ 2 ^ ", "exponent must be a nonnegative integer", 8),
    ("((X Y))", "expected ')', found 'Y'", 4),
    ("X - -", "unexpected end of input", 5),
    ("X^2(X)", "trailing input '('", 3),
    ("^2", "unexpected token '^'", 0),
    ("X**2", "unexpected token '*'", 2),
    ("X+*X", "unexpected token '*'", 2),
    ("(X+1)^2 Y", "trailing input 'Y'", 8),
    ("2^", "exponent must be a nonnegative integer", 2),
    ("Y $", "unexpected character '$'", 2),  # characters before syntax
    ("Y^101 Z", "trailing input 'Z'", 6),  # syntax before budgets
]

# inputs at the edges of the grammar -> their rendered value over ZZ
EDGE = [
    ("X^2^3", "X^6"),
    ("-X^2", "-X^2"),
    ("--X", "X"),
    ("X*-X", "-X^2"),
    ("3 - - 3", "6"),
    ("X^0", "1"),
    ("-(X)^2", "-X^2"),
    ("(-X)^3", "-X^3"),
    ("1-2-3*X^2*-X", "3*X^3 - 1"),
    ("X^ 2", "X^2"),
    ("0^0", "1"),
]


@pytest.mark.parametrize("text, message, position", MALFORMED)
def test_malformed_input_messages(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, ZZ)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize("text, rendered", EDGE)
def test_grammar_edges(text, rendered):
    assert str(parse_poly(text, ZZ)) == rendered


def test_budgets_come_before_unknown_symbols():
    for text, degree in (("X^99999999 + Y", 99999999), ("Y^101", 101), ("Y * X^101", 101)):
        with pytest.raises(OracleInfeasibleError) as info:
            parse_poly(text, ZZ)
        assert str(info.value) == (
            f"expression degree {degree} exceeds the degree bound {DEGREE_BOUND}"
        )


def test_long_and_deep_input_parses_without_recursion():
    # the postfix pass and the folds keep explicit stacks, so neither the
    # length nor the nesting of an expression reaches the recursion limit
    n = 10_000
    assert sys.getrecursionlimit() < n
    x = Poly.gen(ZZ)
    assert parse_poly("+".join(["X"] * n), ZZ) == x.scale(n)
    assert parse_poly("(" * n + "X" + ")" * n, ZZ) == x
    assert parse_poly("-" * n + "X", ZZ) == x
    assert parse_poly("-" * (n + 1) + "X", ZZ) == -x
    assert parse_poly("(" * n + "X - 1" + ")" * n + "^2", ZZ) == (x - x ** 0) ** 2
    assert parse_scalar("-".join(["1"] * n), ZZ) == ZZ.value(2 - n)


def test_parse_scalar():
    assert parse_scalar("-3", ZZ) == ZZ.value(-3)
    assert parse_scalar("2^10", ZZ) == ZZ.value(1024)
    tower = PolyRing(ZZ, "T")
    assert parse_scalar("T^2 - 1", tower) == tower.gen() ** 2 - tower.one


def test_degree_bound_is_checked_before_evaluating():
    b = DEGREE_BOUND
    assert parse_poly(f"X^{b}", ZZ).degree == b
    assert parse_poly(f"(X + 1)^{b // 2} * X^{b - b // 2}", ZZ).degree == b
    tower = PolyRing(ZZ, "T")
    over = [
        (parse_poly, f"X^{b + 1}", ZZ),
        (parse_poly, "X^99999999", ZZ),
        (parse_poly, f"X^{b} * X", ZZ),
        (parse_poly, f"(X^{b + 1})^0", ZZ),  # every subexpression counts
        (parse_poly, f"(X^{b})^{b}", Zmod(12)),
        (parse_scalar, f"2^{b + 1}", ZZ),  # literals count as degree 1
        (parse_scalar, f"(T^2)^{b}", tower),
        (lambda t, r: parse_multipoly(t, r, 2), f"(X1 + X2)^{b + 1}", QQ),
        (lambda t, r: parse_symelem(t, r, 3), f"e3^{b + 1}", GF(5)),
        (lambda t, r: parse_sympoly1(t, r, 2), f"(e1 * X)^{b}", ZZ),
    ]
    for parse, text, ring in over:
        with pytest.raises(OracleInfeasibleError):
            parse(text, ring)


def _names(prefix, n):
    return frozenset(f"{prefix}{k}" for k in range(1, n + 1))


def _bounds(text, sparse):
    nodes = parsing._postfix(text)
    return parsing._fold(nodes, parsing._bound_leaf, parsing._bound_step, sparse)


def test_term_products_bound_the_work(monkeypatch):
    # every coefficient product of an evaluation over ZZ or a tower on ZZ
    # is one ZZ._mul call
    calls = []
    mul = ZZ._mul
    monkeypatch.setitem(vars(ZZ), "_mul", lambda a, b: calls.append(1) or mul(a, b))
    tower = PolyRing(ZZ, "T")
    cases = [
        (parse_poly, "(X + 1)^50 * X^50", ZZ, frozenset()),
        (parse_poly, "(T*X + 2*T - X + 1)^20", tower, frozenset()),
        (lambda t, r: parse_multipoly(t, r, 3), "(X1 + X2 + X3 + 1)^13", ZZ,
         _names("X", 3)),
        (lambda t, r: parse_multipoly(t, r, 3), "(X1*X2 - 3*X3)^7 * (X1 + T)^5",
         tower, _names("X", 3)),
        (lambda t, r: parse_symelem(t, r, 4), "(e1 + e2*e3 + e4)^9 - e1^20", ZZ,
         _names("e", 4)),
        (lambda t, r: parse_sympoly1(t, r, 2), "(e1*X + e2 + X^2)^8 * (X - e1)^3",
         ZZ, _names("e", 2)),
    ]
    for parse, text, ring, sparse in cases:
        del calls[:]
        value = parse(text, ring)
        _, _, terms, products = _bounds(text, sparse)
        assert 0 < len(calls) <= products <= TERM_PRODUCT_BOUND, text
        if sparse and not isinstance(value, SymPoly1):
            assert len(value.terms) <= terms, text


def test_term_budget_is_checked_before_evaluating():
    tower = PolyRing(ZZ, "T")
    cubic = "(X1 + X2 + X3 + 1)^"
    assert _bounds(cubic + "64", _names("X", 3))[3] > TERM_PRODUCT_BOUND
    over = [
        (lambda t, r: parse_multipoly(t, r, 3), cubic + "64", ZZ),
        (lambda t, r: parse_multipoly(t, r, 10), "(X1+X2+X3+X4+X5+X6)^40", QQ),
        (lambda t, r: parse_symelem(t, r, 3), "(e1 + e2 + e3 + 1)^64", GF(5)),
        (lambda t, r: parse_sympoly1(t, r, 3), "(e1 + e2 + e3 + X)^64", ZZ),
        (parse_poly, "(X + T + 1)^50 * (X - T)^50", PolyRing(tower, "S")),
    ]
    for parse, text, ring in over:
        with pytest.raises(OracleInfeasibleError, match="term products"):
            parse(text, ring)
    assert len(parse_multipoly(cubic + "12", ZZ, 3).terms) == 455


# expression, sparse names -> its (degree, sorted names, terms, products)
# budget tuple, as the recursive walk over the syntax tree gave it
BOUNDS = [
    ("X^2 - 3*X + 2", "", (2, ("X",), 1, 9)),
    ("(X-1)*(X-2)", "", (2, ("X",), 1, 4)),
    ("X^2 + 7", "", (2, ("X",), 1, 7)),
    ("-X^2", "", (2, ("X",), 1, 7)),
    ("-2*X", "", (2, ("X",), 1, 2)),
    ("2+3*X^2", "", (3, ("X",), 1, 10)),
    ("(2+3)*X", "", (2, ("X",), 1, 2)),
    ("2-3-4", "", (1, (), 1, 0)),
    ("X - T", "", (1, ("T", "X"), 1, 0)),
    ("S*X + T", "", (2, ("S", "T", "X"), 1, 4)),
    ("-3", "", (1, (), 1, 0)),
    ("2^10", "", (10, (), 1, 5)),
    ("T^2 - 1", "", (2, ("T",), 1, 7)),
    ("X^100", "", (100, ("X",), 1, 4072)),
    ("(X + 1)^50 * X^50", "", (100, ("X",), 1, 4779)),
    ("X^2 - 3", "", (2, ("X",), 1, 7)),
    ("Y + 1", "", (1, ("Y",), 1, 0)),
    ("(T*X + 2*T - X + 1)^20", "", (40, ("T", "X"), 1, 50991)),
    ("(X + T + 1)^50 * (X - T)^50", "", (100, ("T", "X"), 1, 2024712)),
    ("X1^2 + X2^2", "X2", (2, ("X1", "X2"), 2, 4)),
    ("X3", "X2", (1, ("X3",), 1, 0)),
    ("(X1 + X2 + X3 + 1)^13", "X3", (13, ("X1", "X2", "X3"), 560, 10725)),
    ("(X1*X2 - 3*X3)^7 * (X1 + T)^5", "X3", (19, ("T", "X1", "X2", "X3"), 48, 532)),
    ("(X1 + X2 + X3 + 1)^64", "X3", (64, ("X1", "X2", "X3"), 47905, 43852457)),
    ("(X1 + X2 + X3 + 1)^12", "X3", (12, ("X1", "X2", "X3"), 455, 7151)),
    ("(X1+X2+X3+X4+X5+X6)^40", "X10",
     (40, ("X1", "X2", "X3", "X4", "X5", "X6"), 1221759, 976755249)),
    ("(e1 + e2*e3 + e4)^9 - e1^20", "e4", (20, ("e1", "e2", "e3", "e4"), 56, 415)),
    ("(e1 + e2 + e3 + 1)^64", "e3", (64, ("e1", "e2", "e3"), 47905, 43852457)),
    ("(e1 + e2 + e3 + X)^64", "e3X", (64, ("X", "e1", "e2", "e3"), 47905, 43852457)),
    ("e1^2 - 2*e2", "e2", (2, ("e1", "e2"), 2, 3)),
    ("e3", "e2", (1, ("e3",), 1, 0)),
    ("(e1*X + e2 + X^2)^8 * (X - e1)^3", "e2", (19, ("X", "e1", "e2"), 180, 32276)),
    ("(e1*X + e2 + X^2)^8 * (X - e1)^3", "e2X", (19, ("X", "e1", "e2"), 180, 510)),
    ("X^2 - e1*X + e2", "e2X", (2, ("X", "e1", "e2"), 3, 3)),
    ("--X*-X^3-(-(X))", "", (4, ("X",), 1, 20)),
    ("2^3^2*X", "", (7, ("X",), 1, 7)),
]


def _sparse(spec):
    """"" for none, "X3" for X1..X3, "e2X" for e1, e2 and X."""
    if not spec:
        return frozenset()
    names = _names(spec[0], int(spec[1:].rstrip("X")))
    return names | {"X"} if spec.endswith("X") else names


@pytest.mark.parametrize("text, spec, expected", BOUNDS)
def test_bounds_tuples_are_pinned(text, spec, expected):
    degree, names, terms, products = _bounds(text, _sparse(spec))
    assert (degree, tuple(sorted(names)), terms, products) == expected


def test_poly_render_parse_roundtrip():
    rng = Random(91)
    for ring in (ZZ, Zmod(12), GF(5), PolyRing(ZZ, "T")):
        for _ in range(25):
            f = random_poly(ring, rng, 5, -6, 6)
            assert parse_poly(str(f), ring) == f


def test_multipoly_parse_and_roundtrip():
    m = parse_multipoly("X1^2 + X2^2", ZZ, 2)
    assert len(m.terms) == 2
    rng = Random(92)
    for _ in range(15):
        n = rng.randint(1, 4)
        s = random_symelem(ZZ, n, rng, max_weight=5)
        expanded = s.expand()
        assert parse_multipoly(str(expanded), ZZ, n) == expanded
    with pytest.raises(ParseError):
        parse_multipoly("X3", ZZ, 2)


def test_symelem_parse_and_roundtrip():
    assert parse_symelem("e1^2 - 2*e2", ZZ, 2) == SymElem.e(
        1, 2, ZZ
    ) ** 2 - SymElem.e(2, 2, ZZ).scale(2)
    rng = Random(93)
    for _ in range(15):
        n = rng.randint(1, 4)
        s = random_symelem(ZZ, n, rng, max_weight=5)
        assert parse_symelem(str(s), ZZ, n) == s
    with pytest.raises(ParseError):
        parse_symelem("e3", ZZ, 2)


def test_sympoly1_parse():
    t = parse_sympoly1("X^2 - e1*X + e2", ZZ, 2)
    from symmline.poly import Poly as P
    from symmline.symmetric import sym_char_poly

    assert t == sym_char_poly(P.gen(ZZ), 2)
    assert parse_sympoly1(str(t), ZZ, 2) == t


def test_qq_display_only_values():
    # QQ output may contain fractions; integer-coefficient inputs parse
    f = parse_poly("X^2 - 3", QQ)
    assert f == Poly(QQ, [-3, 0, 1])
