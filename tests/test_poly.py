from random import Random

import pytest

from symmline.errors import RingMismatchError
from symmline.poly import (
    MonicPoly,
    Poly,
    PolyRing,
    poly_divmod,
    poly_gcd,
)
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import random_monic, random_poly, random_value
from test_matrices import ORACLE_RINGS

FIVE_RINGS = (ZZ, QQ, Zmod(12), GF(5), PolyRing(ZZ, "T"))


def p(ring, *coeffs):
    """Ascending-coefficient shorthand."""
    return Poly(ring, coeffs)


def test_degree_of_zero_is_none():
    assert Poly.zero(ZZ).degree is None
    assert p(ZZ, 0, 0).degree is None
    assert p(ZZ, 5).degree == 0
    assert Poly.gen(ZZ).degree == 1


def test_divmod_worked_example():
    # X^3 = (X + 3)(X^2 - 3X + 2) + (7X - 6), verified by multiplying back
    g = MonicPoly(p(ZZ, 2, -3, 1))
    f = Poly.gen(ZZ) ** 3
    q, r = poly_divmod(f, g)
    assert q == p(ZZ, 3, 1)
    assert r == p(ZZ, -6, 7)
    assert q * g.poly + r == f


def test_divmod_self():
    g = MonicPoly(p(ZZ, 2, -3, 1))
    q, r = poly_divmod(g.poly, g)
    assert q == p(ZZ, 1)
    assert r.is_zero


def test_divmod_low_degree():
    g = MonicPoly(p(ZZ, 2, -3, 1))
    q, r = poly_divmod(p(ZZ, 5), g)
    assert q.is_zero
    assert r == p(ZZ, 5)


def test_divmod_roundtrip_random():
    rng = Random(3)
    for ring in (ZZ, Zmod(12), GF(5), QQ, PolyRing(ZZ, "T")):
        for _ in range(40):
            f = random_poly(ring, rng, 7)
            g = random_monic(ring, rng, rng.randint(1, 4))
            q, r = poly_divmod(f, g)
            assert q * g.poly + r == f
            assert r.is_zero or r.degree < g.degree


def test_mul_agrees_with_evaluation():
    # Poly.__call__ is a Horner loop on ring values, a separate route
    # from the payload product
    rng = Random(6)
    for ring in FIVE_RINGS:
        for _ in range(30):
            f = random_poly(ring, rng, 5)
            g = random_poly(ring, rng, 5)
            x = random_value(ring, rng)
            assert (f * g)(x) == f(x) * g(x)


def test_from_payloads_strips_trailing_zeros():
    for ring in FIVE_RINGS:
        zero = ring._from_int(0)
        one = ring._from_int(1)
        f = Poly._from_payloads(ring, [one, zero, one, zero, zero])
        assert f == Poly(ring, [1, 0, 1])
        assert f.degree == 2
        assert Poly._from_payloads(ring, [zero, zero]).is_zero


def test_foreign_ring_coefficient_rejected():
    with pytest.raises(RingMismatchError):
        Poly(Zmod(12), [Zmod(6).one])
    with pytest.raises(RingMismatchError):
        Poly(PolyRing(ZZ, "T"), [PolyRing(ZZ, "S").one])


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        poly_divmod(Poly.gen(ZZ), MonicPoly(p(ZZ, 1)))  # degree 0
    with pytest.raises(ValueError):
        poly_divmod(Poly.gen(ZZ), p(ZZ, 1, 2))


def test_monic_validation():
    with pytest.raises(ValueError):
        MonicPoly(p(ZZ, 1, 2))
    with pytest.raises(ValueError):
        MonicPoly(p(ZZ, 7))
    MonicPoly(p(Zmod(6), 5, 1))


def test_signed_coeff_view_roundtrip():
    rng = Random(4)
    f = MonicPoly(p(ZZ, 2, -3, 1))
    assert [c.payload for c in f.signed_coeffs] == [3, 2]
    for ring in (ZZ, Zmod(9), GF(7)):
        for _ in range(30):
            g = random_monic(ring, rng, rng.randint(1, 6))
            back = MonicPoly.from_signed_coeffs(ring, g.signed_coeffs)
            assert back == g


def test_from_roots():
    f = MonicPoly.from_roots(ZZ, [ZZ.value(1), ZZ.value(2)])
    assert f.poly == p(ZZ, 2, -3, 1)


def test_evaluate():
    f = p(ZZ, 2, -3, 1)
    assert f(ZZ.value(1)) == ZZ.zero
    assert f(ZZ.value(4)) == ZZ.value(6)


def test_gcd_basics():
    ring = GF(5)
    x = Poly.gen(ring)
    f = (x - p(ring, 1)) * (x - p(ring, 2))
    g = (x - p(ring, 1)) * (x - p(ring, 3))
    assert poly_gcd(f, g) == x - p(ring, 1)
    assert poly_gcd(f, Poly.zero(ring)) == f.scale(f.leading.try_inverse())


def test_tower_integers_cost_linear_in_depth(monkeypatch):
    calls = []
    from_int = PolyRing._from_int
    monkeypatch.setattr(
        PolyRing, "_from_int", lambda ring, k: calls.append(k) or from_int(ring, k)
    )
    depth = 12
    ring = ZZ
    for k in range(depth):
        ring = PolyRing(ring, f"T{chr(ord('a') + k)}")
    for k in (0, 1, -3):
        del calls[:]
        assert ring.value(k) == ring.value(k)
        # each level embeds k once and strips against its cached zero
        assert len(calls) <= 2 * 2 * depth


def test_tower_polynomials():
    tower = PolyRing(ZZ, "T")
    t = tower.gen()
    f = Poly(tower, [-t, tower.one])  # X - T
    assert f.degree == 1
    assert str(f) == "X - T"
    value = f(tower.value(Poly.gen(ZZ)))
    assert value == tower.zero


def test_render_descending():
    assert str(p(ZZ, 2, -3, 1)) == "X^2 - 3*X + 2"
    assert str(Poly.zero(ZZ)) == "0"
    assert str(p(ZZ, 0, 1)) == "X"
    assert str(p(ZZ, -7)) == "-7"
    assert str(p(Zmod(12), 2, 9, 1)) == "X^2 + 9*X + 2"


def test_monic_from_signed_definition():
    # X^4 - c1 X^3 + c2 X^2 - c3 X + c4
    f = MonicPoly.from_signed_coeffs(ZZ, [1, 2, 3, 4])
    assert f.poly == p(ZZ, 4, -3, 2, -1, 1)


def test_monic_poly_is_a_poly():
    rng = Random(8)
    for ring in FIVE_RINGS:
        for _ in range(10):
            F = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 6)
            plain = Poly(F.ring, F.coeffs)
            assert isinstance(F, Poly) and F.poly is F
            assert F == plain and hash(F) == hash(plain)
            assert F + f == plain + f and type(F + f) is Poly
            assert F * f == plain * f and type(F * f) is Poly
            assert poly_divmod(f, F) == poly_divmod(f, plain)


def test_rebuilt_from_coeffs_is_equal_with_equal_hash():
    # Poly stores payloads; coeffs wraps them, and the public constructor
    # takes the wrapped values back to the same stored form
    rng = Random(9)
    for ring in ORACLE_RINGS:
        for _ in range(10):
            f = random_poly(ring, rng, 4)
            g = random_poly(ring, rng, 4)
            c = random_value(ring, rng)
            for value in (f + g, f - g, f * g, f.scale(c)):
                back = Poly(ring, value.coeffs)
                assert back == value and hash(back) == hash(value)
                assert all(x.ring is ring for x in value.coeffs)
