from random import Random

import pytest

from symmline import oracles
from symmline.errors import RingMismatchError
from symmline.homs import RingHom
from symmline.matrices import char_poly, mult_matrix
from symmline.multipoly import MultiPoly, apply_permutation
from symmline.norms import (
    EvalMap,
    difference_product,
    mult_char_poly,
    norm,
    norm_checked,
    norm_symmetric,
    push_norm,
    resultant_symmetry_check,
)
from symmline.oracles import sylvester_matrix, sylvester_resultant
from symmline.poly import MonicPoly, Poly, PolyRing
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import (
    random_monic,
    random_nonzero_poly,
    random_poly,
    random_symelem,
    random_value,
)
from symmline.symmetric import SymElem

RUNNING = MonicPoly(Poly(ZZ, [2, -3, 1]))  # X^2 - 3X + 2, roots 1 and 2


def test_eval_map_defining_property():
    rng = Random(51)
    for _ in range(15):
        n = rng.randint(1, 5)
        modulus = random_monic(ZZ, rng, n)
        u = EvalMap(modulus)
        for i in range(1, n + 1):
            assert u(SymElem.e(i, n, ZZ)) == modulus.signed_coeffs[i - 1]
        assert u(SymElem.one(ZZ, n)) == ZZ.one


def test_eval_map_worked_example():
    u = EvalMap(RUNNING)
    s = SymElem.e(1, 2, ZZ) ** 2 - SymElem.e(2, 2, ZZ).scale(2)
    assert u(s) == ZZ.value(5)  # 3^2 - 2*2


def test_eval_map_is_ring_homomorphism():
    rng = Random(52)
    for _ in range(20):
        n = rng.randint(1, 3)
        modulus = random_monic(ZZ, rng, n)
        u = EvalMap(modulus)
        s = random_symelem(ZZ, n, rng, max_weight=4)
        t = random_symelem(ZZ, n, rng, max_weight=4)
        assert u(s * t) == u(s) * u(t)
        assert u(s + t) == u(s) + u(t)


def test_eval_map_arity_check():
    u = EvalMap(RUNNING)
    with pytest.raises(ValueError):
        u(SymElem.e(1, 3, ZZ))
    with pytest.raises(RingMismatchError):
        u(SymElem.e(1, 2, Zmod(5)))


def test_mult_char_poly_of_x_is_modulus():
    rng = Random(53)
    for ring in (ZZ, Zmod(12)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 5))
            assert mult_char_poly(Poly.gen(ring), modulus) == modulus


def test_mult_char_poly_worked_example():
    got = mult_char_poly(Poly.gen(ZZ) ** 2, RUNNING)
    assert got.poly == Poly(ZZ, [4, -5, 1])  # roots 1, 4
    assert got == char_poly(mult_matrix(Poly.gen(ZZ) ** 2, RUNNING))


def test_mult_char_poly_degree_one():
    rng = Random(54)
    for _ in range(10):
        c = random_value(ZZ, rng)
        modulus = MonicPoly(Poly(ZZ, [-c, 1]))
        f = random_poly(ZZ, rng, 4)
        got = mult_char_poly(f, modulus)
        assert got.poly == Poly(ZZ, [-f(c), 1])


def test_thm24_equivalence_sampled():
    rng = Random(55)
    for ring in (ZZ, Zmod(4), Zmod(6), Zmod(9), Zmod(12)):
        for _ in range(20):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 4)
            assert mult_char_poly(f, modulus) == char_poly(
                mult_matrix(f, modulus)
            )


def test_norm_of_one():
    rng = Random(56)
    for _ in range(10):
        modulus = random_monic(ZZ, rng, rng.randint(1, 5))
        assert norm(Poly(ZZ, [1]), modulus) == ZZ.one


def test_norm_constant_term_identity():
    rng = Random(57)
    assert norm(Poly.gen(ZZ), RUNNING) == ZZ.value(2)
    for ring in (ZZ, Zmod(12)):
        for _ in range(20):
            modulus = random_monic(ring, rng, rng.randint(1, 5))
            expected = modulus.poly(ring.zero)
            if modulus.degree % 2:
                expected = -expected
            assert norm(Poly.gen(ring), modulus) == expected


def test_norm_worked_example_with_oracle():
    f = Poly(ZZ, [-4, 1])
    assert norm(f, RUNNING) == ZZ.value(6)  # (1-4)(2-4)
    assert norm_symmetric(f, RUNNING) == ZZ.value(6)
    assert norm_checked(f, RUNNING) == ZZ.value(6)


def test_norm_routes_agree_random():
    rng = Random(58)
    for ring in (ZZ, Zmod(6), GF(5)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 4)
            norm_checked(f, modulus)


def test_norm_multiplicative():
    rng = Random(59)
    for ring in (ZZ, Zmod(9)):
        for _ in range(20):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            assert norm(f * g, modulus) == norm(f, modulus) * norm(g, modulus)


def test_sylvester_oracle_matches_norm():
    rng = Random(60)
    for _ in range(40):
        modulus = random_monic(ZZ, rng, rng.randint(1, 4))
        f = random_nonzero_poly(ZZ, rng, 4)
        if f.degree < 1:
            continue
        assert norm(f, modulus) == sylvester_resultant(modulus, f)


def test_sylvester_oracle_runs_its_own_kernel_over_composite_moduli(monkeypatch):
    # the oracle checks the production det, so it must never call it;
    # over Zmod:m with m composite it runs Bareiss on a ZZ lift
    def refuse(m):
        raise AssertionError("the Sylvester oracle called the production det")

    monkeypatch.setattr(oracles, "det", refuse)
    rng = Random(62)
    for ring in (Zmod(4), Zmod(6), Zmod(12)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_nonzero_poly(ring, rng, 4)
            if f.degree < 1:
                continue
            assert sylvester_resultant(modulus, f) == norm(f, modulus), (ring, modulus, f)


def _random_unit(ring, rng):
    while True:
        a = random_value(ring, rng, -2, 2)
        if a.is_unit():
            return a


def test_norm_generator_side_identity():
    # g = a*h with a a unit and h monic of degree d >= 1:
    # N_F(g) = (-1)^(nd) * a^n * N_h(F), the identity behind the
    # census's generator-side membership test
    rng = Random(64)
    for ring in (ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T")):
        for _ in range(12):
            n, d = rng.randint(1, 4), rng.randint(1, 4)
            modulus = random_monic(ring, rng, n)
            h = random_monic(ring, rng, d)
            a = _random_unit(ring, rng)
            expected = a**n * norm(modulus.poly, h)
            if n * d % 2:
                expected = -expected
            assert norm(h.poly.scale(a), modulus) == expected, (ring, modulus, h, a)


def test_symmetric_routes_reduce_high_degree_f():
    # deg f >= 2 deg F; both symmetric routes reduce f mod F first
    rng = Random(65)
    for ring in (ZZ, QQ, Zmod(12), GF(5), PolyRing(ZZ, "T")):
        for n in (1, 2, 3):
            modulus = random_monic(ring, rng, n)
            while True:
                f = random_poly(ring, rng, 2 * n + 3)
                if f.degree is not None and f.degree >= 2 * n:
                    break
            expected = sylvester_resultant(modulus, f)
            assert norm(f, modulus) == expected
            assert norm_symmetric(f, modulus) == expected
            chi = mult_char_poly(f, modulus)
            assert chi == char_poly(mult_matrix(f, modulus))
            constant = chi.poly.coeff(0)
            assert (constant if n % 2 == 0 else -constant) == expected


def test_sylvester_matrix_shape():
    f = Poly(ZZ, [-4, 1])
    m = sylvester_matrix(RUNNING, f)
    assert m.n == 3
    # one shifted row of F's descending coefficients first
    assert [v.payload for v in m.rows[0]] == [1, -3, 2]
    assert [v.payload for v in m.rows[1]] == [1, -4, 0]
    assert [v.payload for v in m.rows[2]] == [0, 1, -4]


def test_split_root_norm():
    rng = Random(61)
    for ring in (ZZ, GF(7)):
        for _ in range(20):
            n = rng.randint(1, 4)
            roots = [random_value(ring, rng, -5, 5) for _ in range(n)]
            modulus = MonicPoly.from_roots(ring, roots)
            f = random_poly(ring, rng, 3)
            expected = ring.one
            for a in roots:
                expected = expected * f(a)
            assert norm(f, modulus) == expected


def test_difference_product_small():
    assert difference_product(1, 1) == MultiPoly.variable(
        1, 2, ZZ
    ) - MultiPoly.variable(2, 2, ZZ)
    x1, x2, x3 = (MultiPoly.variable(i, 3, ZZ) for i in (1, 2, 3))
    assert difference_product(2, 1) == (x1 - x3) * (x2 - x3)


def test_difference_product_block_symmetry():
    for p, q in ((2, 2), (2, 1), (1, 3)):
        n = p + q
        r = difference_product(p, q)
        for i in range(p - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert apply_permutation(perm, r) == r
        for j in range(p, n - 1):
            perm = list(range(n))
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
            assert apply_permutation(perm, r) == r


def test_difference_product_block_swap_sign():
    for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)):
        n = p + q
        # relabel X_i -> X_(q+i) for the first block, X_(p+j) -> X_j
        perm = [q + i for i in range(p)] + [j for j in range(q)]
        relabeled = apply_permutation(perm, difference_product(p, q))
        swapped = difference_product(q, p)
        if (p * q) % 2:
            swapped = -swapped
        assert relabeled == swapped


def test_resultant_symmetry_worked_example():
    other = MonicPoly(Poly(ZZ, [-4, 1]))
    assert resultant_symmetry_check(RUNNING, other)
    assert norm(other.poly, RUNNING) == ZZ.value(6)
    assert norm(RUNNING.poly, other) == ZZ.value(6)


def test_resultant_symmetry_common_roots():
    assert resultant_symmetry_check(RUNNING, RUNNING)
    assert norm(RUNNING.poly, RUNNING) == ZZ.zero


def test_resultant_symmetry_random_with_sylvester():
    rng = Random(62)
    for _ in range(40):
        first = random_monic(ZZ, rng, rng.randint(1, 4), -5, 5)
        second = random_monic(ZZ, rng, rng.randint(1, 4), -5, 5)
        assert resultant_symmetry_check(first, second)
        assert norm(second.poly, first) == sylvester_resultant(
            first, second.poly
        )
        assert norm(first.poly, second) == sylvester_resultant(
            second, first.poly
        )


def test_push_norm_int_reduction_example():
    hom = RingHom.int_reduce(Zmod(5))
    pushed, recomputed = push_norm(hom, Poly.gen(ZZ), RUNNING)
    assert pushed == Zmod(5).value(2)
    assert recomputed == Zmod(5).value(2)


def test_push_norm_identity():
    hom = RingHom.identity(ZZ)
    pushed, recomputed = push_norm(hom, Poly(ZZ, [1, 2, 3]), RUNNING)
    assert pushed == recomputed


def test_push_norm_tower_evaluation():
    tower = PolyRing(ZZ, "T")
    t = tower.gen()
    modulus = MonicPoly(Poly(tower, [-t, tower.one]))  # X - T
    f = Poly.gen(tower)
    assert norm(f, modulus) == t
    hom = RingHom.eval_tower(tower, ZZ.zero)
    pushed, recomputed = push_norm(hom, f, modulus)
    assert pushed == ZZ.zero
    assert recomputed == ZZ.zero


def test_push_norm_all_rules_random():
    rng = Random(63)
    homs = [
        RingHom.identity(ZZ),
        RingHom.int_reduce(Zmod(2)),
        RingHom.int_reduce(GF(5)),
        RingHom.int_reduce(Zmod(12)),
        RingHom.mod_reduce(Zmod(12), Zmod(3)),
        RingHom.eval_tower(PolyRing(ZZ, "T"), ZZ.value(2)),
    ]
    for hom in homs:
        ring = hom.source
        for _ in range(10):
            modulus = random_monic(ring, rng, rng.randint(1, 3), -4, 4)
            f = random_poly(ring, rng, 3, -4, 4)
            pushed, recomputed = push_norm(hom, f, modulus)
            assert pushed == recomputed


def test_ring_hom_laws():
    rng = Random(64)
    homs = [
        RingHom.int_reduce(Zmod(6)),
        RingHom.mod_reduce(Zmod(12), Zmod(4)),
        RingHom.eval_tower(PolyRing(ZZ, "T"), ZZ.value(-1)),
    ]
    for hom in homs:
        ring = hom.source
        assert hom(ring.zero) == hom.target.zero
        assert hom(ring.one) == hom.target.one
        for _ in range(20):
            a = random_value(ring, rng)
            b = random_value(ring, rng)
            assert hom(a + b) == hom(a) + hom(b)
            assert hom(a * b) == hom(a) * hom(b)


def test_ring_hom_validation():
    with pytest.raises(ValueError):
        RingHom.mod_reduce(Zmod(12), Zmod(5))
    with pytest.raises(ValueError):
        RingHom.eval_tower(ZZ, ZZ.one)
    hom = RingHom.int_reduce(Zmod(5))
    with pytest.raises(RingMismatchError):
        hom(Zmod(5).value(1))


def test_difference_product_other_rings():
    r = difference_product(1, 2, Zmod(6))
    assert r.ring == Zmod(6)
    assert r.nvars == 3


def test_push_norm_wrong_source_ring():
    hom = RingHom.int_reduce(Zmod(5))
    ring = Zmod(5)
    with pytest.raises(RingMismatchError):
        push_norm(hom, Poly.gen(ring), MonicPoly(Poly(ring, [1, 1])))
