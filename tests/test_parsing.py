from random import Random

import pytest

from symmline import parsing
from symmline.errors import OracleInfeasibleError, ParseError
from symmline.parsing import (
    parse_multipoly,
    parse_poly,
    parse_ring,
    parse_scalar,
    parse_symelem,
    parse_sympoly1,
)
from symmline.poly import Poly, PolyRing
from symmline.quotients import DEGREE_BOUND, TERM_PRODUCT_BOUND
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
    return parsing._bounds(parsing._Parser(text).parse(), sparse)


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
