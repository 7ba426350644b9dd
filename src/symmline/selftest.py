"""Named invariant checks behind the `selftest` CLI verb.

Each check raises AssertionError on failure, through _check rather than
assert so that the checks still run under python -O; run_selftest
collects the outcomes, counting an InvariantViolationError raised inside
the library as a failure too.  Sizes here are chosen for a fast smoke run; the pytest
acceptance suite runs the same properties at their full sample counts.
"""

from __future__ import annotations

from random import Random

from .quotients import (
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
from .errors import InvariantViolationError
from .homs import RingHom
from .matrices import char_poly, companion_matrix, mult_matrix, poly_at_matrix
from .norms import (
    mult_char_poly,
    norm,
    norm_checked,
    resultant_symmetry_check,
    push_norm,
)
from .oracles import sylvester_resultant
from .poly import MonicPoly, Poly, PolyRing, poly_gcd
from .rings import GF, QQ, Zmod, ZZ, PrimeField
from .sampling import (
    random_monic,
    random_nonzero_poly,
    random_poly,
    random_symelem,
    random_unimodular,
    random_value,
)
from .symmetric import SymElem, SymPoly1, decompose, sym_char_poly, sym_ops_of

DEFAULT_SEED = 20260811


def _check(ok: bool) -> None:
    if not ok:
        raise AssertionError


def _all_monic(ring, deg):
    from itertools import product

    for tail in product(range(ring.modulus), repeat=deg):
        yield MonicPoly(Poly(ring, list(tail) + [1]))


def _all_polys(ring, max_deg):
    from itertools import product

    for coeffs in product(range(ring.modulus), repeat=max_deg + 1):
        p = Poly(ring, list(coeffs))
        if not p.is_zero:
            yield p


def check_ring_axioms(rng: Random) -> str:
    rings = [ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T")]
    for ring in rings:
        for _ in range(20):
            a, b, c = (random_value(ring, rng) for _ in range(3))
            _check((a + b) + c == a + (b + c))
            _check(a + b == b + a)
            _check(a * b == b * a)
            _check((a * b) * c == a * (b * c))
            _check(a * (b + c) == a * b + a * c)
            _check(a + ring.zero == a)
            _check(a * ring.one == a)
            _check(a + (-a) == ring.zero)
    return f"{len(rings)} rings, 20 triples each"


def check_thm24_equivalence(rng: Random) -> str:
    total = 0
    for ring, samples in ((ZZ, 40), (Zmod(12), 40)):
        for _ in range(samples):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 4)
            _check(
                mult_char_poly(f, modulus) == char_poly(mult_matrix(f, modulus))
            )
            total += 1
    return f"{total} (F, f) pairs over ZZ and Zmod:12"


def check_norm_multiplicativity(rng: Random) -> str:
    for ring in (ZZ, Zmod(9)):
        for _ in range(25):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            _check(norm(f * g, modulus) == norm(f, modulus) * norm(g, modulus))
    return "50 products over ZZ and Zmod:9"


def check_norm_oracle(rng: Random) -> str:
    for ring in (ZZ, Zmod(6)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 4)
            norm_checked(f, modulus)
    return "30 values, symmetric and matrix routes equal"


def check_sylvester_oracle(rng: Random) -> str:
    for _ in range(40):
        modulus = random_monic(ZZ, rng, rng.randint(1, 4))
        f = random_nonzero_poly(ZZ, rng, 4)
        if f.degree < 1:
            continue
        _check(norm(f, modulus) == sylvester_resultant(modulus, f))
    return "40 resultants over ZZ"


def check_split_root_oracle(rng: Random) -> str:
    for ring in (ZZ, GF(7)):
        for _ in range(15):
            n = rng.randint(1, 4)
            roots = [random_value(ring, rng, -5, 5) for _ in range(n)]
            modulus = MonicPoly.from_roots(ring, roots)
            f = random_poly(ring, rng, 3)
            expected = ring.one
            for a in roots:
                expected = expected * f(a)
            _check(norm(f, modulus) == expected)
            spectrum = MonicPoly.from_roots(ring, [f(a) for a in roots])
            _check(
                char_poly(poly_at_matrix(f, companion_matrix(modulus))) == spectrum
            )
    return "30 split moduli, norms and spectra"


def check_constant_term(rng: Random) -> str:
    for ring in (ZZ, Zmod(12)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 5))
            expected = modulus(ring.zero)
            if modulus.degree % 2:
                expected = -expected
            _check(norm(Poly.gen(ring), modulus) == expected)
    return "30 moduli: N_F(X) = (-1)^n F(0)"


def check_resultant_symmetry(rng: Random) -> str:
    for _ in range(40):
        p = random_monic(ZZ, rng, rng.randint(1, 4), -5, 5)
        q = random_monic(ZZ, rng, rng.randint(1, 4), -5, 5)
        _check(resultant_symmetry_check(p, q))
        lhs = norm(q, p)
        _check(lhs == sylvester_resultant(p, q))
    return "40 monic pairs, sign law and Sylvester agree"


def check_push_norm(rng: Random) -> str:
    homs = [
        RingHom.identity(ZZ),
        RingHom.int_reduce(Zmod(2)),
        RingHom.int_reduce(GF(5)),
        RingHom.int_reduce(Zmod(12)),
    ]
    for hom in homs:
        for _ in range(10):
            modulus = random_monic(ZZ, rng, rng.randint(1, 4))
            f = random_poly(ZZ, rng, 3)
            a, b = push_norm(hom, f, modulus)
            _check(a == b)
    src = Zmod(12)
    hom = RingHom.mod_reduce(src, Zmod(4))
    for _ in range(10):
        a, b = push_norm(
            hom, random_poly(src, rng, 3), random_monic(src, rng, rng.randint(1, 3))
        )
        _check(a == b)
    tower = PolyRing(ZZ, "T")
    hom = RingHom.eval_tower(tower, ZZ.value(rng.randint(-3, 3)))
    for _ in range(5):
        a, b = push_norm(
            hom,
            random_poly(tower, rng, 2, -3, 3),
            random_monic(tower, rng, 2, -3, 3),
        )
        _check(a == b)
    return "identity, integer/mod reduction, and tower evaluation"


def check_criterion_oracle_agreement(rng: Random) -> str:
    pairs = 0
    for ring in (Zmod(4), GF(3)):
        for modulus in _all_monic(ring, 2):
            for g in _all_polys(ring, 1):
                mult_set = MultSet.generated(g)
                _check(
                    is_free_quotient(modulus, mult_set)
                    == free_quotient_oracle(modulus, mult_set)
                )
                pairs += 1
    return f"{pairs} exhaustive (F, g) pairs over Zmod:4 and GF:3"


def check_recover_similarity(rng: Random) -> str:
    for ring in (ZZ, GF(5)):
        for _ in range(10):
            n = rng.randint(1, 3)
            modulus = random_monic(ring, rng, n)
            s, s_inv = random_unimodular(ring, n, rng)
            theta = s * companion_matrix(modulus) * s_inv
            _check(recover_monic(theta) == modulus)
    return "20 conjugated companion matrices over ZZ and GF:5"


def check_companion_roundtrip(rng: Random) -> str:
    for ring in (ZZ, Zmod(12), GF(5)):
        for _ in range(10):
            modulus = random_monic(ring, rng, rng.randint(1, 5))
            _check(recover_monic(companion_matrix(modulus)) == modulus)
    return "30 companion round-trips"


def check_addition_homomorphism(rng: Random) -> str:
    for _ in range(20):
        n = rng.randint(1, 4)
        s = random_symelem(ZZ, n, rng, max_weight=4, lo=-4, hi=4)
        t = random_symelem(ZZ, n, rng, max_weight=4, lo=-4, hi=4)
        _check(addition_map(s + t) == addition_map(s) + addition_map(t))
        _check(addition_map(s * t) == addition_map(s) * addition_map(t))
    return "20 random pairs, additive and multiplicative"


def check_section_identity(rng: Random) -> str:
    # exact on e_1..e_(n-1) and X; on e_n the composite differs by the
    # kernel generator, so compare reduced modulo the generic monic
    for n in range(1, 5):
        generic = sym_char_poly(Poly.gen(ZZ), n)
        for i in range(1, n):
            e = SymPoly1.from_symelem(SymElem.e(i, n, ZZ))
            _check(section_map(apply_addition(e)) == e)
        top = SymPoly1.from_symelem(SymElem.e(n, n, ZZ))
        roundtrip = section_map(apply_addition(top))
        _check(roundtrip.mod_monic(generic) == top.mod_monic(generic))
        _check((roundtrip - top).mod_monic(generic).is_zero)
    for _ in range(15):
        n = rng.randint(1, 4)
        generic = sym_char_poly(Poly.gen(ZZ), n)
        s = random_symelem(ZZ, n, rng, max_weight=4, lo=-4, hi=4)
        t = SymPoly1.from_symelem(s)
        back = section_map(apply_addition(t))
        _check(back.mod_monic(generic) == t.mod_monic(generic))
    return "generators for n=1..4 plus 15 random elements, mod the kernel"


def check_section_partial(rng: Random) -> str:
    for n in range(1, 5):
        for i in range(1, n):
            e = SymPoly1.from_symelem(SymElem.e(i, n - 1, ZZ))
            _check(apply_addition(section_map(e)) == e)
    return "e_i fixed by addition after section, n=1..4"


def check_addition_kernel(rng: Random) -> str:
    for n in range(1, 5):
        _check(addition_kernel_check(n))
    return "generic monic polynomial killed for n=1..4"


def check_addition_diagonal(rng: Random) -> str:
    for _ in range(20):
        n = rng.choice((2, 3))
        f = random_poly(ZZ, rng, 3, -5, 5)
        _check(addition_diagonal_check(f, n))
    return "20 random f, n in {2, 3}"


def check_coprimality(rng: Random) -> str:
    pairs = 0
    for q in (2, 3):
        ring = GF(q)
        for modulus in _all_monic(ring, 2):
            for g in _all_polys(ring, 1):
                unit = norm(g, modulus).is_unit()
                coprime = poly_gcd(modulus, g).degree == 0
                _check(unit == coprime)
                pairs += 1
    return f"{pairs} pairs: nonzero norm iff coprime"


def check_closure_insensitivity(rng: Random) -> str:
    ring = GF(3)
    x = Poly.gen(ring)
    for g in (x, x + Poly.constant(ring, 1), x * x + Poly.constant(ring, 1)):
        a = count_points(3, 2, MultSet.generated(g))
        b = count_points(3, 2, MultSet.generated(g, g * g))
        _check(a == b)
    return "adding g^2 to the generators never changes the census"


def check_census_counts(rng: Random) -> str:
    for q in (2, 3):
        ring = GF(q)
        for n in (1, 2):
            _check(count_points(q, n, MultSet.trivial(ring)) == q**n)
            _check(count_points(q, n, MultSet.local_at(ring.zero)) == 1)
            _check(count_points(q, n, MultSet.all_nonzero(ring)) == 0)
    return "trivial = q^n, local-at = 1, all-nonzero = 0"


def check_symmetric_roundtrip(rng: Random) -> str:
    for _ in range(30):
        n = rng.randint(1, 3)
        s = random_symelem(ZZ, n, rng, max_weight=5, lo=-5, hi=5)
        _check(decompose(s.expand()) == s)
    return "30 decompose(expand(s)) round-trips"


def check_sym_ops_specialize(rng: Random) -> str:
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_poly(ZZ, rng, 3, -4, 4)
        points = [random_value(ZZ, rng, -4, 4) for _ in range(n)]
        values = [f(a) for a in points]
        from .multipoly import elementary

        elems = [
            elementary(i, n, ZZ).evaluate(points) for i in range(1, n + 1)
        ]
        for i, s in enumerate(sym_ops_of(f, n), start=1):
            expected = elementary(i, n, ZZ).evaluate(values)
            _check(s.substitute(elems) == expected)
    return "15 specializations at concrete points"


CHECKS = [
    ("ring-axioms", check_ring_axioms),
    ("thm24-equivalence", check_thm24_equivalence),
    ("norm-multiplicativity", check_norm_multiplicativity),
    ("norm-oracle", check_norm_oracle),
    ("sylvester-oracle", check_sylvester_oracle),
    ("split-root-oracle", check_split_root_oracle),
    ("norm-constant-term", check_constant_term),
    ("resultant-symmetry", check_resultant_symmetry),
    ("push-norm", check_push_norm),
    ("criterion-oracle-agreement", check_criterion_oracle_agreement),
    ("recover-similarity", check_recover_similarity),
    ("companion-roundtrip", check_companion_roundtrip),
    ("addition-homomorphism", check_addition_homomorphism),
    ("section-identity", check_section_identity),
    ("section-partial", check_section_partial),
    ("addition-kernel", check_addition_kernel),
    ("addition-diagonal", check_addition_diagonal),
    ("coprimality", check_coprimality),
    ("closure-insensitivity", check_closure_insensitivity),
    ("census-counts", check_census_counts),
    ("symmetric-roundtrip", check_symmetric_roundtrip),
    ("sym-ops-specialize", check_sym_ops_specialize),
]


def run_selftest(seed: int = DEFAULT_SEED):
    """Run every named check; returns [(name, ok, detail)]."""
    results = []
    for name, fn in CHECKS:
        rng = Random(f"{seed}:{name}")
        try:
            detail = fn(rng)
            results.append((name, True, detail))
        except (AssertionError, InvariantViolationError) as exc:
            results.append((name, False, str(exc) or "assertion failed"))
    return results
