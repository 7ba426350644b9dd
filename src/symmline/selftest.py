"""Named invariant checks behind the `selftest` CLI verb.

Each check raises AssertionError on failure, through _check rather than
assert so that the checks still run under python -O; run_selftest
collects the outcomes, counting any other exception a check raises,
such as an InvariantViolationError from the library or an error from a
route that returns garbage, as a failure too.  CHECKS is the one place
a randomized or exhaustive release property is written: the pytest
acceptance suite runs these same functions through run_check, each as
many times over fresh seeds as its REPETITIONS table says, and runs the
exhaustive sweeps behind criterion-oracle-agreement and census-counts
over wider ranges.  The unit tests that name one of these properties
call run_check or a sweep too, over seeds of their own, rather than
assert the property again.
"""

from __future__ import annotations

from itertools import product
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
from .homs import RingHom
from .matrices import (
    SquareMatrix,
    char_poly,
    companion_matrix,
    det,
    mult_matrix,
    poly_at_matrix,
)
from .norms import (
    EvalMap,
    mult_char_poly,
    norm,
    norm_checked,
    norm_symmetric,
    resultant_symmetry_check,
    push_norm,
)
from .errors import NotSymmetricError
from .multipoly import MultiPoly, elementary
from .oracles import bareiss_det, sylvester_resultant
from .poly import MonicPoly, Poly, PolyRing, poly_gcd, poly_mod
from .rings import GF, QQ, Zmod, ZZ
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
    for tail in product(range(ring.modulus), repeat=deg):
        yield MonicPoly(Poly(ring, list(tail) + [1]))


def _all_polys(ring, max_deg):
    for coeffs in product(range(ring.modulus), repeat=max_deg + 1):
        p = Poly(ring, list(coeffs))
        if not p.is_zero:
            yield p


def check_ring_axioms(rng: Random) -> str:
    rings = [ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T"), PolyRing(GF(5), "T")]
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
    # Zmod:12 and GF:7 reach char_poly's Berkowitz kernel mod m and QQ
    # mult_matrix's int lift; the symmetric route shares neither.  The
    # decomposition route, EvalMap on the e-basis operators, checks
    # mult_char_poly's evaluation of their monomial form.
    ranges = ((ZZ, 5, 6), (Zmod(12), 5, 6), (GF(7), 4, 4), (QQ, 4, 4))
    for ring, deg_modulus, deg_f in ranges:
        for _ in range(40):
            modulus = random_monic(ring, rng, rng.randint(1, deg_modulus))
            f = random_poly(ring, rng, deg_f)
            chi = mult_char_poly(f, modulus)
            _check(chi == char_poly(mult_matrix(f, modulus)))
            u = EvalMap(modulus)
            ops = sym_ops_of(poly_mod(f, modulus), modulus.degree)
            _check(tuple(map(u, ops)) == chi.signed_coeffs)
    return "160 (F, f) pairs over ZZ, Zmod:12, GF:7 and QQ, three routes each"


def check_det_routes(rng: Random) -> str:
    for ring in (ZZ, QQ):
        for _ in range(15):
            n = rng.randint(1, 6)
            rows = [[random_value(ring, rng, -2, 2) for _ in range(n)]
                    for _ in range(n)]
            m = SquareMatrix(ring, rows)
            _check(det(m) == (-1) ** n * char_poly(m).coeff(0))
    for ring in (Zmod(12), GF(7)):
        for _ in range(10):
            n = rng.randint(1, 8)
            m = SquareMatrix(ring, [[random_value(ring, rng) for _ in range(n)]
                                    for _ in range(n)])
            _check(det(m) == bareiss_det(m))
    return ("30 matrices over ZZ and QQ: Bareiss det = Berkowitz constant "
            "term; 20 over Zmod:12 and GF:7 at n <= 8: Berkowitz det mod m "
            "= int-lift Bareiss oracle")


def check_norm_multiplicativity(rng: Random) -> str:
    for ring in (ZZ, Zmod(9), QQ):
        for _ in range(25):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            _check(norm(f * g, modulus) == norm(f, modulus) * norm(g, modulus))
    return "75 products over ZZ, Zmod:9 and QQ"


def check_norm_oracle(rng: Random) -> str:
    for ring in (ZZ, Zmod(6), GF(5)):
        for _ in range(15):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 4)
            norm_checked(f, modulus)
    return "45 values over ZZ, Zmod:6 and GF:5, symmetric and matrix routes equal"


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
            roots = [random_value(ring, rng) for _ in range(n)]
            modulus = MonicPoly.from_roots(ring, roots)
            f = random_poly(ring, rng, 3)
            expected = ring.one
            for a in roots:
                expected = expected * f(a)
            _check(norm(f, modulus) == expected)
            _check(norm_symmetric(f, modulus) == expected)
            spectrum = MonicPoly.from_roots(ring, [f(a) for a in roots])
            _check(
                char_poly(poly_at_matrix(f, companion_matrix(modulus))) == spectrum
            )
    return "30 split moduli, both norm routes and spectra"


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
        p = random_monic(ZZ, rng, rng.randint(1, 4))
        q = random_monic(ZZ, rng, rng.randint(1, 4))
        _check(resultant_symmetry_check(p, q))
        _check(norm(q, p) == sylvester_resultant(p, q))
        _check(norm(p, q) == sylvester_resultant(q, p))
    return "40 monic pairs, sign law and Sylvester both ways agree"


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
            f = random_poly(ZZ, rng, 4)
            a, b = push_norm(hom, f, modulus)
            _check(a == b)
            # the per-coefficient claim, recomputed outside push_norm
            upstairs = mult_char_poly(f, modulus).signed_coeffs
            downstairs = mult_char_poly(hom.map_poly(f), hom.map_monic(modulus))
            _check(tuple(map(hom, upstairs)) == downstairs.signed_coeffs)
    src = Zmod(12)
    for target in (Zmod(4), Zmod(3)):
        hom = RingHom.mod_reduce(src, target)
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
            random_poly(tower, rng, 3, -4, 4),
            random_monic(tower, rng, rng.randint(1, 3), -4, 4),
        )
        _check(a == b)
    return (
        "identity and integer reduction, per coefficient too; "
        "mod reduction and tower evaluation"
    )


def _criterion_sweep(rings, degrees, gen_degree: int) -> str:
    """is_free_quotient against free_quotient_oracle on every monic F of
    the given degrees and every nonzero g of degree <= gen_degree."""
    pairs = 0
    for ring in rings:
        gens = list(_all_polys(ring, gen_degree))
        for deg in degrees:
            for modulus in _all_monic(ring, deg):
                for g in gens:
                    mult_set = MultSet.generated(g)
                    _check(
                        is_free_quotient(modulus, mult_set)
                        == free_quotient_oracle(modulus, mult_set)
                    )
                    pairs += 1
    names = " and ".join(ring.name for ring in rings)
    return f"{pairs} exhaustive (F, g) pairs over {names}"


def check_criterion_oracle_agreement(rng: Random) -> str:
    return _criterion_sweep((Zmod(4), GF(3)), (2,), 1)


def check_recover_similarity(rng: Random) -> str:
    for ring in (ZZ, GF(5)):
        for _ in range(10):
            n = rng.randint(1, 4)
            modulus = random_monic(ring, rng, n)
            s, s_inv = random_unimodular(ring, n, rng)
            _check(s * s_inv == SquareMatrix.identity(ring, n))
            theta = s * companion_matrix(modulus) * s_inv
            _check(recover_monic(theta) == modulus)
            _check(poly_at_matrix(modulus, theta) == SquareMatrix.zero(ring, n))
    return "20 conjugated companion matrices over ZZ and GF:5, F(theta) = 0, S S^-1 = I"


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
        x = SymPoly1.x(ZZ, n)
        _check(section_map(apply_addition(x)) == x)
        top = SymPoly1.from_symelem(SymElem.e(n, n, ZZ))
        roundtrip = section_map(apply_addition(top))
        _check(roundtrip.mod_monic(generic) == top.mod_monic(generic))
        _check((roundtrip - top).mod_monic(generic).is_zero)
    for _ in range(15):
        n = rng.randint(1, 4)
        generic = sym_char_poly(Poly.gen(ZZ), n)
        s = random_symelem(ZZ, n, rng, max_weight=5)
        t = SymPoly1.from_symelem(s)
        back = section_map(apply_addition(t))
        _check(back.mod_monic(generic) == t.mod_monic(generic))
    return "generators for n=1..4 plus 15 random elements, mod the kernel"


def check_section_partial(rng: Random) -> str:
    for n in range(1, 5):
        for i in range(1, n):
            e = SymPoly1.from_symelem(SymElem.e(i, n - 1, ZZ))
            _check(apply_addition(section_map(e)) == e)
    for _ in range(15):
        n = rng.randint(1, 4)
        t = SymPoly1.from_symelem(random_symelem(ZZ, n - 1, rng, max_weight=4))
        _check(apply_addition(section_map(t)) == t)
    return "e_i for n=1..4 and 15 random elements fixed by addition after section"


def check_addition_kernel(rng: Random) -> str:
    for n in range(1, 5):
        _check(addition_kernel_check(n))
    return "generic monic polynomial killed for n=1..4"


def check_addition_diagonal(rng: Random) -> str:
    for _ in range(20):
        n = rng.choice((2, 3))
        f = random_poly(ZZ, rng, 3)
        _check(addition_diagonal_check(f, n))
    return "20 random f, n in {2, 3}"


def _coprimality_sweep(qs, degrees, gen_degree: int) -> str:
    """Over GF(q), N_F(g) is a unit exactly when gcd(F, g) = 1, for
    every monic F of the given degrees and every nonzero g of degree <=
    gen_degree; and count_points(q, 2, gens:g) is the number of monic
    quadratics coprime to g, so degrees must include 2."""
    pairs = 0
    for q in qs:
        ring = GF(q)
        gens = list(_all_polys(ring, gen_degree))
        coprime_quadratics = [0] * len(gens)
        for deg in degrees:
            for modulus in _all_monic(ring, deg):
                for i, g in enumerate(gens):
                    coprime = poly_gcd(modulus, g).degree == 0
                    _check(norm(g, modulus).is_unit() == coprime)
                    if deg == 2:
                        coprime_quadratics[i] += coprime
                    pairs += 1
        for g, expected in zip(gens, coprime_quadratics):
            _check(count_points(q, 2, MultSet.generated(g)) == expected)
    return f"{pairs} (F, g) pairs, q in {qs}: nonzero norm iff coprime, census agrees"


def check_coprimality(rng: Random) -> str:
    return _coprimality_sweep((2, 3), (2,), 1)


def check_closure_insensitivity(rng: Random) -> str:
    ring = GF(3)
    x = Poly.gen(ring)
    one, two = Poly.constant(ring, 1), Poly.constant(ring, 2)
    # at n = 3 a linear g and g^2 (or g three times) fit in degree n,
    # so their census runs as one block of linked generators
    for n in (2, 3):
        for g in (x, x + one, x + two, x * x + one, x * x + x + two):
            a = count_points(3, n, MultSet.generated(g))
            _check(count_points(3, n, MultSet.generated(g, g * g)) == a)
            _check(count_points(3, n, MultSet.generated(g, g, g)) == a)
    return "adding g^2, or g twice, to the generators never changes the census, n in {2, 3}"


_CENSUS_FAMILIES = ("trivial", "local-at", "all-nonzero", "gens", "gens-shared")


def _census_sweep(qs, ns, families=_CENSUS_FAMILIES) -> str:
    """count_points over GF(q) for each q and n and each named family:
    trivial = q^n and all-nonzero = 0; local-at:a, for every a, admits
    among all monic F of degree n exactly F = (X - a)^n, built by Poly
    arithmetic, and counts what it admits; gens:X,X^2+X+1 (coprime) and
    gens:X+1,X^2+X (sharing X+1) equal a count of free_quotient_oracle
    verdicts over every monic F."""
    for q in qs:
        ring = GF(q)
        x = Poly.gen(ring)
        one = Poly.constant(ring, 1)
        gens = {
            "gens": MultSet.generated(x, x * x + x + one),
            "gens-shared": MultSet.generated(x + one, x * x + x),
        }
        for n in ns:
            monics = list(_all_monic(ring, n))
            for family in families:
                if family == "trivial":
                    _check(count_points(q, n, MultSet.trivial(ring)) == q**n)
                elif family == "all-nonzero":
                    _check(count_points(q, n, MultSet.all_nonzero(ring)) == 0)
                elif family == "local-at":
                    for a in range(q):
                        u = MultSet.local_at(ring.value(a))
                        power = (x - Poly.constant(ring, a)) ** n
                        admitted = [is_free_quotient(F, u) for F in monics]
                        _check(admitted == [F == power for F in monics])
                        _check(count_points(q, n, u) == sum(admitted))
                else:
                    u = gens[family]
                    expected = sum(free_quotient_oracle(F, u) for F in monics)
                    _check(count_points(q, n, u) == expected)
    return f"q in {qs}, n in {ns}: {', '.join(families)} agree"


def check_census_counts(rng: Random) -> str:
    return _census_sweep((2, 3), (1, 2, 3, 4))


def _admitted_roots(ring, n: int, u: MultSet) -> tuple[int, int]:
    """How many monic F of degree n over a finite ring are admitted for
    u, and how many pairs (F, a), a in the ring, have F admitted and
    F(a) = 0.  At n = 1 the count is that of the admitted lines X - a."""
    points = [ring.value(a) for a in range(ring.modulus)]
    admitted = [F for F in _all_monic(ring, n) if is_free_quotient(F, u)]
    return len(admitted), sum(F(a) == ring.zero for F in admitted for a in points)


def check_universal_family(rng: Random) -> str:
    """The universal family over Hilb^n is Symm^(n-1)(A[X]_U) x Spec(A[X]_U)
    (PAPER.md), on A-points: the pairs (F, a) with F admitted and
    F(a) = 0 are the pairs (F', a) with F' of degree n - 1 and X - a
    both admitted, sent to F'(X - a).  Both sides count them.  Over
    GF(q) the right side reads count_points at n - 1.  all-nonzero is
    left out: it admits no F and no X - a, so both sides read 0
    whatever count_points returns.  Over Zmod:m, non-reduced bases
    included (X^2 has the roots 0 and 2 over Z/4), count_points does
    not apply and the right side enumerates too; local-at needs a field.
    """
    cases = 0
    for q, top in ((2, 4), (3, 4), (5, 3)):
        ring = GF(q)
        x = Poly.gen(ring)
        one = Poly.constant(ring, 1)
        for u in (
            MultSet.trivial(ring),
            MultSet.local_at(ring.one),
            MultSet.generated(x),
            MultSet.generated(x + one, x * x + x),
            MultSet.generated(x * x + one),
        ):
            lines = _admitted_roots(ring, 1, u)[0]
            for n in range(1, top + 1):
                hilb = count_points(q, n - 1, u) if n > 1 else 1
                _check(_admitted_roots(ring, n, u)[1] == hilb * lines)
                cases += 1
    for m, top in ((4, 3), (6, 3), (8, 2), (9, 2), (12, 2)):
        ring = Zmod(m)
        x = Poly.gen(ring)
        one = Poly.constant(ring, 1)
        for u in (
            MultSet.trivial(ring),
            MultSet.generated(x),
            MultSet.generated(x.scale(2) + one),
            MultSet.generated(x * x + one),
            MultSet.generated(x + one, x * x + x),
            MultSet.generated(x * x + x + one),
        ):
            lines = hilb = _admitted_roots(ring, 1, u)[0]
            for n in range(2, top + 1):
                count, roots = _admitted_roots(ring, n, u)
                _check(roots == hilb * lines)
                hilb = count
                cases += 1
    return f"{cases} (A, n, U): roots over admitted F = Hilb^(n-1) points x admitted lines"


def check_symmetric_roundtrip(rng: Random) -> str:
    """Each expansion decomposes back; for n >= 2 the same expansion
    plus X1^k, k >= 1, is not symmetric, and decompose must refuse it."""
    near_misses = 0
    for i in range(30):
        n = rng.randint(1, 4)
        s = random_symelem(ZZ, n, rng, max_weight=6, max_terms=5)
        expanded = s.expand()
        _check(decompose(expanded) == s)
        if n >= 2:
            near = expanded + MultiPoly.variable(1, n, ZZ) ** (1 + i % 3)
            try:
                decompose(near)
            except NotSymmetricError:
                near_misses += 1
            else:
                _check(False)
    return f"30 decompose(expand(s)) round-trips, {near_misses} near misses refused"


def check_sym_ops_specialize(rng: Random) -> str:
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_poly(ZZ, rng, 3, -4, 4)
        points = [random_value(ZZ, rng, -4, 4) for _ in range(n)]
        values = [f(a) for a in points]
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
    ("det-routes", check_det_routes),
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
    ("universal-family", check_universal_family),
    ("symmetric-roundtrip", check_symmetric_roundtrip),
    ("sym-ops-specialize", check_sym_ops_specialize),
]


def run_check(name: str, runs: int = 1, seed=DEFAULT_SEED) -> str:
    """Run the named check runs times, the i-th over Random(f"{seed}:{name}:{i}"),
    and return the last run's detail; a name not in CHECKS raises KeyError."""
    check = dict(CHECKS)[name]
    for i in range(runs):
        detail = check(Random(f"{seed}:{name}:{i}"))
    return detail


def run_selftest(seed: int = DEFAULT_SEED):
    """Run every named check; returns [(name, ok, detail)]."""
    results = []
    for name, fn in CHECKS:
        rng = Random(f"{seed}:{name}")
        try:
            detail = fn(rng)
            results.append((name, True, detail))
        except Exception as exc:
            results.append((name, False, str(exc) or "assertion failed"))
    return results
