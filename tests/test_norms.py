from random import Random

import pytest

from symmline import _symbasis, matrices, oracles
from symmline.errors import RingMismatchError
from symmline.homs import RingHom
from symmline.matrices import char_poly, mult_matrix
from symmline.norms import (
    EvalMap,
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
from symmline.selftest import run_check
from symmline.sampling import (
    random_monic,
    random_nonzero_poly,
    random_poly,
    random_symelem,
    random_value,
)
from symmline.symmetric import SymElem, sym_ops_of

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
    # the rings thm24-equivalence leaves out
    rng = Random(55)
    for ring in (Zmod(4), Zmod(6), Zmod(9)):
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
    assert norm(Poly.gen(ZZ), RUNNING) == ZZ.value(2)  # (-1)^2 F(0)


def test_norm_worked_example_with_oracle():
    f = Poly(ZZ, [-4, 1])
    assert norm(f, RUNNING) == ZZ.value(6)  # (1-4)(2-4)
    assert norm_symmetric(f, RUNNING) == ZZ.value(6)
    assert norm_checked(f, RUNNING) == ZZ.value(6)


def test_norm_routes_agree_random():
    # 15 per ring over ZZ, Zmod:6 and GF:5
    run_check("norm-oracle", seed="test_norm_routes_agree_random")


def test_norm_multiplicative():
    # 25 products per ring over ZZ, Zmod:9 and QQ
    run_check("norm-multiplicativity", seed="test_norm_multiplicative")


def test_sylvester_oracle_matches_norm():
    run_check("sylvester-oracle", seed="test_sylvester_oracle_matches_norm")


def test_sylvester_oracle_runs_its_own_kernel_over_composite_moduli(monkeypatch):
    # the oracle checks the production det, so it must never call it;
    # over Zmod:m with m composite, where Bareiss over the residues
    # would divide by zero divisors, its int lift still eliminates
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


def test_sylvester_oracle_runs_without_the_production_bareiss_kernel(monkeypatch):
    # the production det runs Bareiss on an int lift over ZZ and QQ and
    # Berkowitz mod m over Zmod and GF;
    # the oracle runs its own Bareiss kernel on an int lift of the
    # matrix, so refusing every production kernel leaves its answers,
    # on the Sylvester and on the multiplication matrix, unchanged
    rng = Random(63)
    cases = []
    for ring in (ZZ, QQ, Zmod(4), Zmod(12), GF(7), GF(10007)):
        for _ in range(12):
            modulus = random_monic(ring, rng, rng.randint(1, 6))
            f = random_nonzero_poly(ring, rng, 6)
            if f.degree >= 1:
                cases.append((modulus, f, norm(f, modulus)))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a production kernel")

    for name in ("_bareiss_int", "_berkowitz"):
        monkeypatch.setattr(matrices, name, refuse)
    monkeypatch.setattr(oracles, "det", refuse)
    for modulus, f, expected in cases:
        with pytest.raises(AssertionError):
            norm(f, modulus)
        assert sylvester_resultant(modulus, f) == expected, (modulus, f)
        assert oracles.bareiss_det(sylvester_matrix(modulus, f)) == expected
        assert oracles.bareiss_det(mult_matrix(f, modulus)) == expected


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


def test_norm_routes_evaluate_without_decomposing(monkeypatch):
    # the norm routes evaluate the monomial form of the operators and
    # of the diagonal tensor: with the decomposition kernel and EvalMap
    # both refusing, they still answer, while sym_ops_of cannot
    def refuse(*args):
        raise AssertionError("the decomposition route ran")

    monkeypatch.setattr(_symbasis, "decompose_rep", refuse)
    monkeypatch.setattr(EvalMap, "__call__", refuse)
    rng = Random(66)
    for ring in (ZZ, QQ, Zmod(12), PolyRing(ZZ, "T")):
        for n in (1, 3, 5):
            modulus = random_monic(ring, rng, n)
            f = random_poly(ring, rng, n)
            assert mult_char_poly(f, modulus) == char_poly(mult_matrix(f, modulus))
            assert norm_symmetric(f, modulus) == norm(f, modulus)
    with pytest.raises(AssertionError, match="decomposition"):
        sym_ops_of(Poly(ZZ, [1, 1]), 3)


def test_sylvester_matrix_shape():
    f = Poly(ZZ, [-4, 1])
    m = sylvester_matrix(RUNNING, f)
    assert m.n == 3
    # one shifted row of F's descending coefficients first
    assert [v.payload for v in m.rows[0]] == [1, -3, 2]
    assert [v.payload for v in m.rows[1]] == [1, -4, 0]
    assert [v.payload for v in m.rows[2]] == [0, 1, -4]


def test_split_root_norm():
    # 30 split moduli per ring over ZZ and GF:7
    run_check("split-root-oracle", 2, seed="test_split_root_norm")


def test_resultant_symmetry_worked_example():
    other = MonicPoly(Poly(ZZ, [-4, 1]))
    assert resultant_symmetry_check(RUNNING, other)
    assert norm(other.poly, RUNNING) == ZZ.value(6)
    assert norm(RUNNING.poly, other) == ZZ.value(6)


def test_resultant_symmetry_common_roots():
    assert resultant_symmetry_check(RUNNING, RUNNING)
    assert norm(RUNNING.poly, RUNNING) == ZZ.zero


def test_resultant_symmetry_random_with_sylvester():
    run_check(
        "resultant-symmetry", seed="test_resultant_symmetry_random_with_sylvester"
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
    # 20 per reduction, 10 tower evaluations
    run_check("push-norm", 2, seed="test_push_norm_all_rules_random")


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


def test_push_norm_wrong_source_ring():
    hom = RingHom.int_reduce(Zmod(5))
    ring = Zmod(5)
    with pytest.raises(RingMismatchError):
        push_norm(hom, Poly.gen(ring), MonicPoly(Poly(ring, [1, 1])))
