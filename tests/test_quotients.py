import operator
import threading
from fractions import Fraction
from itertools import groupby, product
from random import Random

import pytest

from symmline import multipoly, quotients
from symmline.errors import (
    OracleInfeasibleError,
    RingMismatchError,
    UnsupportedRingError,
)
from symmline.quotients import (
    MultSet,
    addition_diagonal_check,
    addition_kernel_check,
    addition_map,
    apply_addition,
    count_points,
    free_quotient_oracle,
    is_free_quotient,
    recover_monic,
    section_map,
)
from symmline.matrices import SquareMatrix
from symmline.norms import EvalMap, norm
from symmline.parsing import parse_ring
from symmline.poly import MonicPoly, Poly, PolyRing, poly_gcd
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import random_monic, random_symelem, random_value
from symmline.selftest import (
    _all_monic,
    _all_polys,
    _coprimality_sweep,
    run_check,
)
from symmline.symmetric import SymElem, SymPoly1, SymRing, diagonal_tensor

RUNNING = MonicPoly(Poly(ZZ, [2, -3, 1]))


# ---------------------------------------------------------------- MultSet


def test_multset_validation():
    with pytest.raises(ValueError):
        MultSet.generated()
    with pytest.raises(ValueError):
        MultSet.generated(Poly.zero(ZZ))
    with pytest.raises(UnsupportedRingError):
        MultSet.all_nonzero(Zmod(6))
    MultSet.all_nonzero(ZZ)


def test_multset_descriptions():
    assert MultSet.trivial(ZZ).describe() == "trivial"
    assert MultSet.generated(Poly.gen(ZZ)).describe() == "gens:X"
    assert MultSet.local_at(GF(5).zero).describe() == "local-at:0"
    assert MultSet.all_nonzero(ZZ).describe() == "all-nonzero"


def test_diagonal_power_view():
    x = Poly.gen(ZZ)
    u = MultSet.generated(x, x + Poly(ZZ, [1]))
    tensors = u.diagonal_power(3)
    assert tensors == [diagonal_tensor(x, 3), diagonal_tensor(x + Poly(ZZ, [1]), 3)]
    assert MultSet.trivial(ZZ).diagonal_power(2) == []
    with pytest.raises(UnsupportedRingError):
        MultSet.local_at(GF(5).zero).diagonal_power(2)


# ------------------------------------------------------- membership test


def test_membership_over_zz_worked_example():
    # N_F(X) = 2 is not a unit in ZZ
    assert not is_free_quotient(RUNNING, MultSet.generated(Poly.gen(ZZ)))


def test_membership_over_gf5():
    ring = GF(5)
    modulus = MonicPoly(Poly(ring, [2, -3, 1]))
    assert is_free_quotient(modulus, MultSet.generated(Poly.gen(ring)))


def test_membership_trivial_always():
    rng = Random(71)
    for _ in range(10):
        modulus = random_monic(ZZ, rng, rng.randint(1, 4))
        assert is_free_quotient(modulus, MultSet.trivial(ZZ))


def test_membership_local_at_origin():
    ring = GF(5)
    x = Poly.gen(ring)
    u = MultSet.local_at(ring.zero)
    assert is_free_quotient(MonicPoly(x**2), u)
    assert not is_free_quotient(MonicPoly(x**2 - Poly(ring, [1])), u)


def test_membership_local_at_shifted_point():
    ring = GF(7)
    a = ring.value(3)
    u = MultSet.local_at(a)
    only = MonicPoly.from_roots(ring, [a, a])
    assert is_free_quotient(only, u)
    count = sum(is_free_quotient(f, u) for f in _all_monic(ring, 2))
    assert count == 1


def test_membership_local_at_exhaustive():
    # the coefficient test against the from_roots reference
    for q in (2, 3, 5, 7):
        ring = GF(q)
        for a in map(ring.value, range(q)):
            u = MultSet.local_at(a)
            for deg in (1, 2, 3):
                target = MonicPoly.from_roots(ring, [a] * deg)
                for f in _all_monic(ring, deg):
                    assert is_free_quotient(f, u) == (f == target)


def test_membership_local_at_rational_point():
    u = MultSet.local_at(QQ.value(Fraction(1, 2)))
    assert is_free_quotient(
        MonicPoly.from_roots(QQ, [QQ.value(Fraction(1, 2))] * 3), u
    )
    assert not is_free_quotient(
        MonicPoly.from_roots(QQ, [QQ.value(Fraction(1, 3))] * 3), u
    )


def test_membership_local_at_needs_field():
    u = MultSet.local_at(ZZ.zero)
    with pytest.raises(UnsupportedRingError):
        is_free_quotient(RUNNING, u)


def test_membership_all_nonzero_is_empty():
    rng = Random(72)
    for _ in range(10):
        modulus = random_monic(ZZ, rng, rng.randint(1, 3))
        assert not is_free_quotient(modulus, MultSet.all_nonzero(ZZ))


def test_membership_ring_mismatch():
    with pytest.raises(RingMismatchError):
        is_free_quotient(RUNNING, MultSet.trivial(GF(5)))


# ----------------------------------------------------------- the oracle


def test_oracle_zero_divisor_example():
    ring = Zmod(4)
    modulus = MonicPoly(Poly(ring, [0, -1, 1]))  # X^2 - X
    u = MultSet.generated(Poly.gen(ring))
    assert not free_quotient_oracle(modulus, u)
    assert not is_free_quotient(modulus, u)


def test_oracle_unit_generator():
    ring = Zmod(4)
    modulus = MonicPoly(Poly(ring, [0, -1, 1]))
    assert free_quotient_oracle(modulus, MultSet.generated(Poly(ring, [1])))


def test_oracle_bound():
    ring = Zmod(10)
    modulus = random_monic(ring, Random(73), 6)
    with pytest.raises(OracleInfeasibleError):
        free_quotient_oracle(modulus, MultSet.generated(Poly.gen(ring)))


def test_oracle_needs_finite_modular_base():
    with pytest.raises(UnsupportedRingError):
        free_quotient_oracle(RUNNING, MultSet.generated(Poly.gen(ZZ)))


def test_monic_associates():
    cases = [
        (Zmod(6), [1, 5], [5, 1]),  # 5 is a unit and its own inverse
        (Zmod(6), [1, 2], None),  # 2 is a zero divisor
        (Zmod(6), [3], None),  # degree 0
        (GF(5), [1, 0, 2], [3, 0, 1]),  # 1/2 = 3
        (ZZ, [2, -1], [-2, 1]),
        (ZZ, [1, 2], None),
        (QQ, [1, 3], [Fraction(1, 3), 1]),
        (PolyRing(ZZ, "T"), [Poly(ZZ, [0, 1]), -1], [Poly(ZZ, [0, -1]), 1]),
        (PolyRing(ZZ, "T"), [1, Poly(ZZ, [0, 1])], None),  # lc T
    ]
    for ring, coeffs, monic in cases:
        g = Poly(ring, coeffs)
        (got,) = MultSet.generated(g).monic_gens
        assert got == (None if monic is None else MonicPoly(Poly(ring, monic)))


def test_membership_side_choice(monkeypatch):
    # which norm is_free_quotient asks for: the generator side only for a
    # unit leading coefficient and 1 <= deg g < deg F, else N_F(g)
    calls = []

    def record(f, modulus):
        calls.append((f, modulus))
        return norm(f, modulus)

    monkeypatch.setattr(quotients, "norm", record)
    for ring, unit, inverse in ((Zmod(6), 5, 5), (GF(5), 2, 3)):
        x = Poly.gen(ring)
        one = Poly(ring, [1])
        modulus = MonicPoly(x**3 + x + one)
        cases = [
            (x.scale(unit) + one, (modulus.poly, MonicPoly(x + one.scale(inverse)))),
            (x * x + one, (modulus.poly, MonicPoly(x * x + one))),
            (x**3 + x * x + one, None),  # deg g = deg F
            (x**4 + one, None),  # deg g > deg F
            (one.scale(unit), None),  # deg g = 0
        ]
        if ring == Zmod(6):
            cases.append((x.scale(2) + one, None))  # lc not a unit
        for g, generator_side in cases:
            calls.clear()
            is_free_quotient(modulus, MultSet.generated(g))
            assert calls == [generator_side or (g, modulus)], (ring, g)


def test_membership_stops_at_first_failing_generator(monkeypatch):
    calls = []
    monkeypatch.setattr(
        quotients, "norm", lambda f, F: calls.append(f) or norm(f, F)
    )
    ring = GF(5)
    x = Poly.gen(ring)
    modulus = MonicPoly(x**3)
    assert not is_free_quotient(modulus, MultSet.generated(x, x + Poly(ring, [1])))
    assert calls == [modulus.poly]


def test_oracle_agrees_with_criterion_small():
    # every F of degree 1-2 and nonzero g with deg F + deg g <= 3; Zmod:6
    # and Zmod:8 reach every branch of the criterion: unit and
    # zero-divisor leading coefficients, deg g below, equal to and above
    # deg F, and deg g = 0 (test_criterion_sweep covers Zmod:4 and GF:3)
    branches = set()
    for ring in (Zmod(6), Zmod(8)):
        for deg in (1, 2):
            gens = list(_all_polys(ring, 3 - deg))
            for modulus in _all_monic(ring, deg):
                for g in gens:
                    u = MultSet.generated(g)
                    assert is_free_quotient(modulus, u) == free_quotient_oracle(
                        modulus, u
                    ), (modulus, g)
                    monic = u.monic_gens[0]
                    branches.add(
                        "degree 0" if g.degree == 0
                        else "lc not a unit" if monic is None
                        else "generator side" if g.degree < deg
                        else "deg g >= deg F"
                    )
    assert len(branches) == 4


# -------------------------------------------------------------- recover


def test_recover_companion_roundtrip():
    run_check("companion-roundtrip", seed="test_recover_companion_roundtrip")


def test_recover_scalar():
    assert recover_monic(SquareMatrix(ZZ, [[7]])) == MonicPoly(Poly(ZZ, [-7, 1]))


def test_recover_similarity_invariant():
    # 20 per ring over ZZ and GF:5
    run_check("recover-similarity", 2, seed="test_recover_similarity_invariant")


# --------------------------------------------------------- addition map


def test_addition_on_basis_n2():
    e1 = SymElem.e(1, 2, ZZ)
    e2 = SymElem.e(2, 2, ZZ)
    down1 = SymElem.e(1, 1, ZZ)
    one = SymElem.one(ZZ, 1)
    assert addition_map(e1) == SymPoly1(ZZ, 1, (down1, one))
    assert addition_map(e2) == SymPoly1(ZZ, 1, (SymElem.zero(ZZ, 1), down1))


def test_addition_of_one():
    assert addition_map(SymElem.one(ZZ, 3)) == SymPoly1(
        ZZ, 2, (SymElem.one(ZZ, 2),)
    )


def test_addition_n1_sends_e1_to_x():
    image = addition_map(SymElem.e(1, 1, ZZ))
    assert image == SymPoly1.x(ZZ, 0)


def test_addition_refuses_arity_0():
    # every entry point names the bound the input misses, before any
    # symmetric ring of arity -1 is asked for
    for call, arg in (
        (addition_map, SymElem.one(ZZ, 0)),
        (apply_addition, SymPoly1.x(ZZ, 0)),
        (addition_kernel_check, 0),
    ):
        with pytest.raises(ValueError, match=r"^arity must be >= 1$"):
            call(arg)


def test_addition_is_ring_homomorphism():
    # 40 pairs
    run_check("addition-homomorphism", 2, seed="test_addition_is_ring_homomorphism")


def test_section_basis_example():
    # p_2 sends the one-variable e1 to the two-variable e1 minus X
    t = SymPoly1.from_symelem(SymElem.e(1, 1, ZZ))
    expected = SymPoly1(ZZ, 2, (SymElem.e(1, 2, ZZ), -SymElem.one(ZZ, 2)))
    assert section_map(t) == expected


def test_section_after_addition_fixes_low_generators():
    run_check(
        "section-identity", seed="test_section_after_addition_fixes_low_generators"
    )


def test_section_after_addition_top_generator_mod_kernel():
    run_check(
        "section-identity",
        seed="test_section_after_addition_top_generator_mod_kernel",
    )


def test_section_roundtrip_random_mod_kernel():
    # 30 random elements
    run_check("section-identity", 2, seed="test_section_roundtrip_random_mod_kernel")


def test_addition_after_section_is_identity():
    run_check("section-partial", seed="test_addition_after_section_is_identity")


def test_addition_kernel():
    run_check("addition-kernel", seed="test_addition_kernel")


def _at(t, G, a):
    """t at (e' -> c(G), X -> a): EvalMap(G) on each coefficient, then
    Horner in a."""
    at_g = EvalMap(G)
    acc = a.ring.zero
    for c in reversed(t.coeffs):
        acc = acc * a + at_g(c)
    return acc


def _random_sympoly1(ring, arity, rng):
    coeffs = [random_symelem(ring, arity, rng, max_weight=4) for _ in range(3)]
    return SymPoly1(ring, arity, coeffs[: rng.randint(1, 3)])


@pytest.mark.parametrize("spec", ["ZZ", "QQ", "Zmod:12", "GF:7", "Poly:ZZ:T"])
def test_addition_and_section_specialize_at_a_split_root(spec):
    # the roots of H = G*(Y - a) are those of G and a, so e_i at H's
    # roots is e_i + e_(i-1)*a at G's: at (e' -> c(G), X -> a) the
    # addition map is EvalMap(H) and the section map undoes it.  The
    # oracle is EvalMap, not the substitution the maps share.
    ring = parse_ring(spec)
    rng = Random(f"split-root:{spec}")
    for _ in range(20):
        k = rng.randint(1, 3)
        G = random_monic(ring, rng, k)
        a = random_value(ring, rng)
        H = MonicPoly(G * Poly(ring, [-a, ring.one]))
        s = random_symelem(ring, k + 1, rng, max_weight=5)
        assert _at(addition_map(s), G, a) == EvalMap(H)(s)
        u = _random_sympoly1(ring, k + 1, rng)
        assert _at(apply_addition(u), G, a) == _at(u, H, a)
        t = _random_sympoly1(ring, k, rng)
        assert _at(section_map(t), H, a) == _at(t, G, a)


def _reference_substitute(coeffs, images, sym):
    """sum_j coeffs[j](e_i -> images[i-1]) * X^j, evaluated over
    SymPoly1 images one coefficient at a time: the evaluation the flat
    quotients._substitute replaces."""
    def lift(c):
        return SymPoly1._from_payloads(sym, (sym._const(c),))

    acc = SymPoly1._from_payloads(sym, ())
    for j, c in enumerate(coeffs):
        term = multipoly._sparse_eval(
            sym.base, c._payload_terms, images, lift, operator.add, operator.mul
        )
        acc = acc + term.shift(j)
    return acc


def _reference_addition(t):
    """The addition map on a SymPoly1 of arity n, from the images
    e_i + e_(i-1)*X over SymPoly1 (e_n = 0 downstairs)."""
    ring, k = t.ring.base, t.arity - 1
    images = [
        SymPoly1(
            ring, k, (SymElem.e(i, k, ring) if i <= k else 0, SymElem.e(i - 1, k, ring))
        )
        for i in range(1, k + 2)
    ]
    return _reference_substitute(t.coeffs, images, SymRing(ring, k))


def _reference_section(t):
    """The section on a SymPoly1 of arity k, from the images
    p(e_i) = e_i' - p(e_(i-1))*X over SymPoly1, p(e_0) = 1."""
    ring, k = t.ring.base, t.arity
    images = [SymPoly1(ring, k + 1, (1,))]
    for i in range(1, k + 1):
        up = SymPoly1.from_symelem(SymElem.e(i, k + 1, ring))
        images.append(up - images[-1] * SymPoly1.x(ring, k + 1))
    return _reference_substitute(t.coeffs, images[1:], SymRing(ring, k + 1))


@pytest.mark.parametrize("spec", ["ZZ", "Zmod:12", "GF:7", "QQ", "Poly:ZZ:T"])
def test_flat_substitution_matches_the_evaluation_over_sympoly1(spec):
    # arity 1 leaves k = 0 downstairs, where only the X slot is flat
    ring = parse_ring(spec)
    rng = Random(f"flat-substitution:{spec}")
    for n in range(1, 6):
        zeros = (
            SymElem.zero(ring, n), SymPoly1.zero(ring, n), SymPoly1.zero(ring, n - 1)
        )
        randoms = [
            (
                random_symelem(ring, n, rng, max_weight=4),
                _random_sympoly1(ring, n, rng),
                _random_sympoly1(ring, n - 1, rng),
            )
            for _ in range(3)
        ]
        for s, u, t in [zeros, *randoms]:
            assert addition_map(s) == _reference_addition(SymPoly1.from_symelem(s))
            assert apply_addition(u) == _reference_addition(u)
            assert section_map(t) == _reference_section(t)


def test_one_evaluation_per_map_and_no_polynomial_per_symmetry_test(monkeypatch):
    # the maps evaluate their whole input in one _sparse_eval call, and
    # is_symmetric looks terms up without building a _SparsePoly
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    evaluate = quotients._sparse_eval
    monkeypatch.setattr(quotients, "_sparse_eval", counted)
    rng = Random("one-evaluation")
    for ring in (ZZ, Zmod(12), QQ):
        for n in (1, 3, 4):
            u = _random_sympoly1(ring, n, rng)
            t = SymPoly1(ring, n, [random_symelem(ring, n, rng) for _ in range(3)])
            for call, arg in (
                (addition_map, random_symelem(ring, n, rng)),
                (apply_addition, u),
                (apply_addition, t),
                (section_map, t),
            ):
                calls.clear()
                call(arg)
                assert len(calls) == 1, call.__name__
    x1, x2 = (multipoly.MultiPoly.variable(i, 3, ZZ) for i in (1, 2))
    inputs = [random_symelem(ZZ, n, rng).expand() for n in (2, 3, 4)] + [x1**2 * x2]
    built = []
    build = multipoly._SparsePoly._from_payloads

    def counted_build(cls, *args):
        built.append(cls)
        return build.__func__(cls, *args)

    monkeypatch.setattr(
        multipoly._SparsePoly, "_from_payloads", classmethod(counted_build)
    )
    assert [multipoly.is_symmetric(m) for m in inputs] == [True, True, True, False]
    assert built == []


def test_addition_diagonal_worked_example():
    # f = X, n = 2: the diagonal tensor e2 maps to e1' * X
    assert addition_map(diagonal_tensor(Poly.gen(ZZ), 2)) == SymPoly1(
        ZZ, 1, (SymElem.zero(ZZ, 1), SymElem.e(1, 1, ZZ))
    )
    assert addition_diagonal_check(Poly.gen(ZZ), 2)


def test_addition_diagonal_constant():
    assert addition_diagonal_check(Poly(ZZ, [5]), 3)


def test_addition_diagonal_random():
    # 40 random f
    run_check("addition-diagonal", 2, seed="test_addition_diagonal_random")


def test_addition_diagonal_arity_check():
    with pytest.raises(ValueError):
        addition_diagonal_check(Poly.gen(ZZ), 1)


# ---------------------------------------------------------------- census


def test_count_worked_example_gf3():
    ring = GF(3)
    u = MultSet.generated(Poly.gen(ring))
    assert count_points(3, 2, u) == 6
    # cross-checks: N_F(X) = (-1)^n F(0) nonzero, and gcd coprimality
    by_constant = sum(
        1 for f in _all_monic(ring, 2) if not f.poly(ring.zero).is_zero
    )
    by_gcd = sum(
        1
        for f in _all_monic(ring, 2)
        if poly_gcd(f.poly, Poly.gen(ring)).degree == 0
    )
    assert by_constant == 6
    assert by_gcd == 6


def test_count_closure_insensitive():
    run_check("closure-insensitivity", seed="test_count_closure_insensitive")


def test_count_workers_deterministic():
    ring = GF(5)
    u = MultSet.generated(Poly.gen(ring))
    sequential = count_points(5, 3, u, workers=1)
    chunked = count_points(5, 3, u, workers=4)
    assert sequential == chunked


def test_count_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("census started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ring = GF(5)
    u = MultSet.generated(Poly.gen(ring) + Poly(ring, [1]))
    # monic cubics with F(-1) != 0
    assert count_points(5, 3, u, workers=10**6) == 100


def test_count_bound(monkeypatch):
    monkeypatch.setattr(quotients, "CENSUS_BOUND", 100)
    with pytest.raises(OracleInfeasibleError):
        count_points(5, 3, MultSet.trivial(GF(5)))


def test_count_requires_matching_field():
    with pytest.raises(RingMismatchError):
        count_points(3, 2, MultSet.trivial(GF(5)))


def test_coprimality_exhaustive():
    # a unit norm exactly when coprime, for every monic F of degree 1..3
    # and every g of degree <= 2 over GF(q), q in {2, 3, 5}: 20,332 pairs
    _coprimality_sweep((2, 3, 5), (1, 2, 3), 2)


def _census_sets(ring):
    x = Poly.gen(ring)
    one = Poly(ring, [1])
    return [
        MultSet.trivial(ring),
        # a unit-lc linear generator and a quadratic with lc -1, so that
        # both sides of the resultant are taken as n runs over 1..3
        MultSet.generated(x.scale(-1) + one, one + x - x * x),
        MultSet.local_at(ring.value(1)),
        MultSet.all_nonzero(ring),
    ]


def _reference_count(q, n, mult_set):
    """The census through public constructors and the F-side norm."""
    ring = GF(q)
    x = Poly.gen(ring)
    total = 0
    for low in product(range(q), repeat=n):
        modulus = MonicPoly(Poly(ring, list(low) + [1]))
        if mult_set.kind == "trivial":
            ok = True
        elif mult_set.kind == "generated":
            ok = all(norm(g, modulus).is_unit() for g in mult_set.gens)
        elif mult_set.kind == "local-at":
            ok = modulus.poly == (x - Poly(ring, [mult_set.point])) ** n
        else:  # F itself lies in the set
            ok = norm(modulus.poly, modulus).is_unit()
        total += ok
    return total


def _record_candidates(monkeypatch):
    """The (candidate, set) pairs count_points sends to is_free_quotient,
    collected in a list that the caller clears."""
    seen = []
    real = quotients.is_free_quotient

    def record(modulus, mult_set):
        seen.append((modulus, mult_set))
        return real(modulus, mult_set)

    monkeypatch.setattr(quotients, "is_free_quotient", record)
    return seen


def test_count_candidate_stream(monkeypatch):
    seen = _record_candidates(monkeypatch)
    for q in (2, 3, 5):
        ring = GF(q)
        for n in (1, 2, 3, 4):
            trivial, gens, local, nonzero = _census_sets(ring)
            # each block's low d coefficients decide: the coprime
            # generators of degree 1 and 2 are a block each once their
            # degrees fit in n, and below that all n coefficients decide
            # for the set as a whole; trivial, local-at and all-nonzero
            # are closed forms and test none
            if n >= 3:
                blocks = [(MultSet.generated(g), g.degree) for g in gens.gens]
            else:
                blocks = [(gens, n)]
            for mult_set, plan in (
                (trivial, []),
                (gens, blocks),
                (local, []),
                (nonzero, []),
            ):
                # per block, c_0 slowest, c_(d-1) fastest, the rest zero
                expected = [
                    (MonicPoly(Poly(ring, list(low) + [0] * (n - d) + [1])), u)
                    for u, d in plan
                    for low in product(range(q), repeat=d)
                ]
                seen.clear()
                count = count_points(q, n, mult_set)
                got = [c for c, _ in seen]
                want = [c for c, _ in expected]
                assert all(type(c) is MonicPoly for c in got)
                assert got == want
                assert list(map(hash, got)) == list(map(hash, want))
                assert list(map(str, got)) == list(map(str, want))
                assert [c.degree for c in got] == [n] * len(want)
                assert [u.describe() for _, u in seen] == [
                    u.describe() for _, u in expected
                ]
                assert count == _reference_count(q, n, mult_set)

    # at GF(2), n = 19, the largest n the census bound admits, an
    # enumeration would take 2^19 candidates; the closed forms take none
    def refuse(*args):
        raise AssertionError("the candidate path ran")

    monkeypatch.setattr(quotients, "_admitted", refuse)
    seen.clear()
    trivial, _, local, nonzero = _census_sets(GF(2))
    counts = [count_points(2, 19, u) for u in (trivial, nonzero, local)]
    assert counts == [2**19, 0, 1]
    assert seen == []


def test_count_candidates_per_block(monkeypatch):
    seen = _record_candidates(monkeypatch)
    ring = GF(5)
    x = Poly.gen(ring)
    g, h = x + Poly(ring, [1]), x * x + x.scale(3) + Poly(ring, [4])

    def runs(mult_set):
        """(set, candidates) per run of one set in the stream, n = 3."""
        seen.clear()
        assert count_points(5, 3, mult_set) == _reference_count(5, 3, mult_set)
        return [(u, len(list(group))) for u, group in groupby(u for _, u in seen)]

    # coprime: a block each, 5 + 25 candidates in place of 125
    coprime = runs(MultSet.generated(g, h))
    assert [(u.describe(), k) for u, k in coprime] == [
        (f"gens:{g}", 5), (f"gens:{h}", 25)
    ]
    # X+1 and X^2+X share X+1: one block, the set itself, 125 candidates
    linked = MultSet.generated(g, x * x + x)
    assert runs(linked) == [(linked, 125)]
    # local-at tests no candidate
    assert runs(MultSet.local_at(ring.value(2))) == []

    # one generator, and a degree sum above n, take no gcd
    def refuse(f, g):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(quotients, "poly_gcd", refuse)
    single = MultSet.generated(h)
    assert runs(single) == [(single, 25)]
    over = MultSet.generated(g, h, x + Poly(ring, [2]))
    assert runs(over) == [(over, 125)]


def test_count_requires_prime_q():
    with pytest.raises(ValueError):
        count_points(4, 2, MultSet.trivial(GF(2)))


def test_count_points_n_validation():
    with pytest.raises(ValueError):
        count_points(3, 0, MultSet.trivial(GF(3)))
