import operator
from fractions import Fraction
from random import Random

import pytest

from symmline import _symbasis
from symmline.errors import NotSymmetricError, RingMismatchError
from symmline.multipoly import MultiPoly, elementary, is_symmetric
from symmline.poly import Poly, PolyRing, poly_divmod, poly_mod
from symmline.rings import GF, QQ, Zmod, ZmodRing, ZZ
from symmline.sampling import random_poly, random_symelem, random_value
from symmline.symmetric import (
    SymElem,
    SymPoly1,
    SymRing,
    decompose,
    diagonal_tensor,
    sym_char_poly,
    sym_ops_of,
)


TOWER = PolyRing(ZZ, "T")
# one ring of every kind the payload kernels distinguish: residues with
# zero divisors (lazily reduced), a small prime field, fractions and a
# polynomial tower
KERNEL_RINGS = [Zmod(4), Zmod(8), GF(3), QQ, TOWER]


def _random_element(ring, n, rng, **kw):
    """A random element; over QQ with properly fractional coefficients."""
    s = random_symelem(ring, n, rng, **kw)
    if ring is QQ:
        s = s.scale(Fraction(rng.choice((1, 2, 3)), rng.choice((2, 3, 5))))
    return s


def _assert_canonical(s):
    """Every payload of s is a nonzero canonical payload of its ring."""
    _assert_canonical_payloads(s.ring, [c.payload for c in s.terms.values()])


def _assert_canonical_payloads(ring, payloads):
    for p in payloads:
        assert p != ring._from_int(0)
        if isinstance(ring, ZmodRing):
            assert type(p) is int and 0 <= p < ring.modulus
        elif ring is QQ:
            assert type(p) is Fraction
        elif isinstance(ring, PolyRing):
            assert isinstance(p, Poly) and p.ring is ring.base
            assert p.coeffs and not p.coeffs[-1].is_zero
        else:
            assert type(p) is int


def product_over_variables(f, n, ring):
    """Brute-force prod_i (Y - f(X_i)) with Y as variable n+1.

    Independent oracle: plain MultiPoly arithmetic, no compressed form.
    """
    y = MultiPoly.variable(n + 1, n + 1, ring)
    acc = MultiPoly.constant(ring, n + 1, 1)
    for i in range(1, n + 1):
        xi = MultiPoly.variable(i, n + 1, ring)
        fx = MultiPoly.constant(ring, n + 1, f.coeff(0))
        power = MultiPoly.constant(ring, n + 1, 1)
        for j in range(1, (f.degree or 0) + 1):
            power = power * xi
            fx = fx + power.scale(f.coeff(j))
        acc = acc * (y - fx)
    return acc


def test_decompose_power_sum():
    m = MultiPoly(ZZ, 2, {(2, 0): 1, (0, 2): 1})
    s = decompose(m)
    e1 = SymElem.e(1, 2, ZZ)
    e2 = SymElem.e(2, 2, ZZ)
    assert s == e1 * e1 - e2.scale(2)
    assert s.expand() == m


def test_decompose_fixed_point():
    e1 = elementary(1, 3, ZZ)
    assert decompose(e1) == SymElem.e(1, 3, ZZ)


def test_decompose_product_square():
    m = (MultiPoly.variable(1, 2, ZZ) * MultiPoly.variable(2, 2, ZZ)) ** 2
    s = decompose(m)
    assert s == SymElem.e(2, 2, ZZ) ** 2
    assert s.expand() == m


def test_decompose_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        decompose(MultiPoly.variable(1, 2, ZZ))


def test_roundtrip_random():
    rng = Random(31)
    for ring in (ZZ, Zmod(12), GF(5)):
        for _ in range(40):
            n = rng.randint(1, 4)
            s = random_symelem(ring, n, rng, max_weight=6)
            assert decompose(s.expand()) == s
    for ring in KERNEL_RINGS:
        for n in range(2, 5):
            for _ in range(6 if n < 4 else 3):
                s = _random_element(ring, n, rng, max_weight=5)
                back = decompose(s.expand())
                _assert_canonical(back)
                assert back == s


def test_decompose_skips_lead_cancelling_only_mod_m():
    # 2*(X1^2 + X2^2) = 2*e1^2 - 4*e2: over Zmod:4 the remainder at
    # (1, 1) is -4 as an int, which is zero mod 4, so that lead is skipped
    ring = Zmod(4)
    m = MultiPoly(ring, 2, {(2, 0): 2, (0, 2): 2})
    s = decompose(m)
    e1 = SymElem.e(1, 2, ring)
    assert s == (e1 * e1).scale(2)
    assert s.terms == {(2, 0): ring.value(2)}
    assert s.expand() == m
    # the kernel itself returns no zero entry for the skipped lead
    assert _symbasis.decompose_rep({(2, 0): 2}, 2, ring) == {(2, 0): 2}


def test_expand_is_symmetric():
    rng = Random(32)
    for _ in range(20):
        n = rng.randint(1, 4)
        s = random_symelem(ZZ, n, rng, max_weight=5)
        assert is_symmetric(s.expand())


def test_sym_ops_of_x_gives_elementaries():
    for n in range(1, 6):
        ops = sym_ops_of(Poly.gen(ZZ), n)
        assert ops == [SymElem.e(i, n, ZZ) for i in range(1, n + 1)]


def test_sym_ops_square_example():
    s1, s2 = sym_ops_of(Poly.gen(ZZ) ** 2, 2)
    e1 = SymElem.e(1, 2, ZZ)
    e2 = SymElem.e(2, 2, ZZ)
    assert s1 == e1 * e1 - e2.scale(2)
    assert s2 == e2 * e2


def test_sym_ops_constant():
    c = Poly(ZZ, [7])
    s1, s2 = sym_ops_of(c, 2)
    assert s1 == SymElem.constant(ZZ, 2, 14)
    assert s2 == SymElem.constant(ZZ, 2, 49)


def test_sym_ops_match_bruteforce_product():
    rng = Random(33)
    for ring in (ZZ, Zmod(12)):
        for _ in range(12):
            n = rng.randint(1, 3)
            f = random_poly(ring, rng, 3, -4, 4)
            oracle = product_over_variables(f, n, ring)
            ops = sym_ops_of(f, n)
            # compare coefficient of Y^(n-i) with (-1)^i * expand(s_i)
            for i in range(1, n + 1):
                coeff_terms = {
                    expo[:n]: c
                    for expo, c in oracle.terms.items()
                    if expo[n] == n - i
                }
                got = MultiPoly(ring, n, coeff_terms)
                expected = ops[i - 1].expand()
                if i % 2:
                    expected = -expected
                assert got == expected


def test_char_product_monic_of_degree_n():
    rng = Random(34)
    for _ in range(15):
        n = rng.randint(1, 4)
        f = random_poly(ZZ, rng, 4)
        d = sym_char_poly(f, n)
        assert d.degree == n
        assert d.is_monic()


def test_char_product_of_x():
    d = sym_char_poly(Poly.gen(ZZ), 2)
    assert d.coeff(2) == SymElem.one(ZZ, 2)
    assert d.coeff(1) == -SymElem.e(1, 2, ZZ)
    assert d.coeff(0) == SymElem.e(2, 2, ZZ)


def test_char_product_of_zero():
    d = sym_char_poly(Poly.zero(ZZ), 3)
    assert d.coeff(3) == SymElem.one(ZZ, 3)
    for j in range(3):
        assert d.coeff(j).is_zero


def test_char_product_expansion_oracle():
    rng = Random(35)
    for _ in range(10):
        n = rng.randint(1, 3)
        f = random_poly(ZZ, rng, 3, -4, 4)
        assert sym_char_poly(f, n).expand() == product_over_variables(f, n, ZZ)
    for ring in (QQ, TOWER):
        for n in range(1, 4):
            for _ in range(2):
                f = random_poly(ring, rng, 2 if ring is TOWER else 3, -4, 4)
                d = sym_char_poly(f, n)
                for c in d.coeffs:
                    _assert_canonical(c)
                assert d.expand() == product_over_variables(f, n, ring)


def test_diagonal_tensor_examples():
    assert diagonal_tensor(Poly.gen(ZZ), 3) == SymElem.e(3, 3, ZZ)
    s = diagonal_tensor(Poly(ZZ, [1, 1]), 2)
    assert s == SymElem.e(2, 2, ZZ) + SymElem.e(1, 2, ZZ) + SymElem.one(ZZ, 2)


def test_diagonal_tensor_is_last_sym_op():
    rng = Random(36)
    for _ in range(15):
        n = rng.randint(1, 4)
        f = random_poly(ZZ, rng, 3)
        assert diagonal_tensor(f, n) == sym_ops_of(f, n)[-1]
    for ring in KERNEL_RINGS:
        for n in range(1, 4):
            for _ in range(4):
                f = random_poly(ring, rng, 3)
                d = diagonal_tensor(f, n)
                _assert_canonical(d)
                assert d == sym_ops_of(f, n)[-1]
                # the compressed reps are reduced before their zero filter
                fpays = [c.payload for c in f.coeffs]
                reps = _symbasis.sym_ops_reps(fpays, n, ring)
                reps.append(_symbasis.diagonal_rep(fpays, n, ring))
                for rep in reps:
                    _assert_canonical_payloads(ring, rep.values())


def test_diagonal_tensor_multiplicative():
    rng = Random(37)
    for ring in (ZZ, Zmod(9)):
        for _ in range(15):
            n = rng.randint(1, 3)
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            assert diagonal_tensor(f * g, n) == diagonal_tensor(
                f, n
            ) * diagonal_tensor(g, n)


def test_sym_ops_specialize_to_values():
    # substituting concrete elementary values turns s_i(f) into the
    # elementary symmetric polynomials of the values f(a_1)..f(a_n)
    rng = Random(38)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_poly(ZZ, rng, 3, -4, 4)
        points = [random_value(ZZ, rng, -4, 4) for _ in range(n)]
        elems = [elementary(i, n, ZZ).evaluate(points) for i in range(1, n + 1)]
        values = [f(a) for a in points]
        for i, s in enumerate(sym_ops_of(f, n), start=1):
            assert s.substitute(elems) == elementary(i, n, ZZ).evaluate(values)


def test_substitute_agrees_with_expand_then_evaluate():
    # substituting e_i(a_1..a_n) for e_i is evaluating the expansion at
    # the a_i; the fixed term has exponents above 1 and a zero exponent
    rng = Random(44)
    for ring in (ZZ, QQ, Zmod(12), GF(5), TOWER):
        for n in range(1, 5):
            fixed = {(3,) + (0,) * (n - 1): 1}
            if n >= 3:
                fixed = {(2, 0, 2) + (0,) * (n - 3): 1}
            for _ in range(4):
                s = _random_element(ring, n, rng, max_weight=6) + SymElem(
                    ring, n, fixed
                ).scale(random_value(ring, rng))
                points = [random_value(ring, rng, -3, 3) for _ in range(n)]
                elems = [
                    elementary(i, n, ring).evaluate(points) for i in range(1, n + 1)
                ]
                got = s.substitute(elems)
                assert got.ring is ring
                assert got == s.expand().evaluate(points)


def test_symelem_ring_homomorphism_between_bases():
    # expand respects the ring operations, which run on payloads
    rng = Random(39)
    for _ in range(15):
        n = rng.randint(1, 3)
        s = random_symelem(ZZ, n, rng, max_weight=4)
        t = random_symelem(ZZ, n, rng, max_weight=4)
        assert (s + t).expand() == s.expand() + t.expand()
        assert (s * t).expand() == s.expand() * t.expand()
    for ring in [Zmod(12)] + KERNEL_RINGS:
        for _ in range(4):
            n = rng.randint(1, 3)
            s = _random_element(ring, n, rng, max_weight=4)
            t = _random_element(ring, n, rng, max_weight=4)
            c = random_value(ring, rng)
            for got, want in (
                (s + t, s.expand() + t.expand()),
                (s - t, s.expand() - t.expand()),
                (s * t, s.expand() * t.expand()),
                (s.scale(c), s.expand().scale(c)),
            ):
                _assert_canonical(got)
                assert got.expand() == want
            assert (s - s).is_zero


def test_arity_zero_convention():
    s = SymElem.constant(ZZ, 0, 5)
    assert s.constant_value() == ZZ.value(5)
    assert (s * s).constant_value() == ZZ.value(25)
    assert str(s) == "5"


def test_sympoly1_divmod_monic():
    rng = Random(40)
    for _ in range(10):
        n = rng.randint(1, 3)
        generic = sym_char_poly(Poly.gen(ZZ), n)
        t = SymPoly1(
            ZZ,
            n,
            [random_symelem(ZZ, n, rng, max_weight=3) for _ in range(n + 2)],
        )
        q, r = t.divmod_monic(generic)
        assert q * generic + r == t
        assert r.is_zero or r.degree < generic.degree
    # the dense kernels on SymElem coefficients, over every ring kind:
    # division against its defining identity, sums, products and powers
    # against the MultiPoly arithmetic of expand()
    for ring in (Zmod(12), GF(5), QQ, TOWER):
        for _ in range(4):
            n = rng.randint(1, 3)
            f = random_poly(ring, rng, 2)
            modulus = sym_char_poly(f if f.degree else Poly.gen(ring), n)
            t, u = (
                SymPoly1(
                    ring,
                    n,
                    [_random_element(ring, n, rng, max_weight=2) for _ in range(k)],
                )
                for k in (n + 2, 2)
            )
            q, r = t.divmod_monic(modulus)
            assert q * modulus + r == t
            assert r.is_zero or r.degree < modulus.degree
            assert (t + u).expand() == t.expand() + u.expand()
            assert (t - u).expand() == t.expand() - u.expand()
            assert (t * u).expand() == t.expand() * u.expand()
            assert (u**3).expand() == u.expand() ** 3
            assert (u**0).expand() == MultiPoly.constant(ring, n + 1, 1)


def test_sympoly1_is_a_poly_over_symring():
    t = SymPoly1(ZZ, 2, [SymElem.e(1, 2, ZZ), 3, 0])
    assert isinstance(t, Poly) and t.ring is SymRing(ZZ, 2)
    assert t.ring.base is ZZ and t.arity == 2
    assert t.coeffs == (SymElem.e(1, 2, ZZ), SymElem.constant(ZZ, 2, 3))
    for u in (t + t, t - t, -t, t * t, t**2, t.scale(SymElem.e(2, 2, ZZ)), t.shift(1)):
        assert type(u) is SymPoly1 and u.ring is t.ring
    q, r = t.divmod_monic(sym_char_poly(Poly.gen(ZZ), 2))
    assert type(q) is SymPoly1 and type(r) is SymPoly1


def test_sympoly1_mixing_arities_raises():
    a, b = SymPoly1.x(ZZ, 2), SymPoly1.x(ZZ, 3)
    for op in (
        operator.add,
        operator.sub,
        operator.mul,
        SymPoly1.divmod_monic,
        SymPoly1.mod_monic,
    ):
        with pytest.raises(RingMismatchError, match="mixed rings Sym:ZZ:2 and Sym:ZZ:3"):
            op(a, b)
    with pytest.raises(RingMismatchError, match="mixed rings Sym:ZZ:3 and Sym:ZZ:2"):
        SymPoly1(ZZ, 2, [SymElem.e(1, 3, ZZ)])
    with pytest.raises(RingMismatchError):
        SymPoly1(ZZ, 2, [SymElem.e(1, 2, QQ)])


def test_sympoly1_never_equals_a_poly():
    for ring in (ZZ, Zmod(12), TOWER):
        f = Poly(ring, [1, 2, 1])
        for arity in range(4):
            t = SymPoly1.lift_poly(f, arity)
            assert t != f and f != t
            terms = {(0,) * arity + (k,): c for k, c in enumerate((1, 2, 1))}
            assert t.expand() == MultiPoly(ring, arity + 1, terms)
    assert SymPoly1.zero(ZZ, 0) != Poly.zero(ZZ)


def test_sympoly1_arithmetic_is_polys_own():
    # SymPoly1 names these in its class body only so that the benchmark
    # tracer finds them there; they must stay Poly's functions, not copies
    spanned = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale")
    for name in spanned:
        assert vars(SymPoly1)[name] is vars(Poly)[name], name
    assert vars(SymPoly1)["divmod_monic"] is poly_divmod
    assert vars(SymPoly1)["mod_monic"] is poly_mod
    # and equality, hash, stripping and structure stay Poly's too
    for name in (
        "__eq__", "__hash__", "__str__", "render", "_from_payloads",
        "degree", "is_zero", "is_monic", "_check",
    ):
        assert name not in vars(SymPoly1), name


def test_renders():
    s = SymElem.e(1, 2, ZZ) ** 2 - SymElem.e(2, 2, ZZ).scale(2)
    assert str(s) == "e1^2 - 2*e2"
    d = sym_char_poly(Poly.gen(ZZ), 2)
    assert str(d) == "X^2 - e1*X + e2"
