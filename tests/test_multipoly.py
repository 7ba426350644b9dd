from itertools import permutations
from math import comb
from random import Random

import pytest

from symmline.errors import ARITY_BOUND, OracleInfeasibleError
from symmline.multipoly import MultiPoly, elementary, is_symmetric
from symmline.parsing import parse_ring
from symmline.poly import PolyRing
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import random_symelem, random_value
from symmline.symmetric import SymElem
from test_matrices import ORACLE_RINGS


def var(i, n, ring=ZZ):
    return MultiPoly.variable(i, n, ring)


def random_multipoly(ring, n, rng, terms=4, deg=3):
    out = {}
    for _ in range(terms):
        expo = tuple(rng.randint(0, deg) for _ in range(n))
        out[expo] = random_value(ring, rng)
    return MultiPoly(ring, n, out)


def apply_permutation(perm, m):
    """Relabel variables X_i -> X_perm(i); perm maps 0-based positions.
    The reference for is_symmetric, which builds no permuted polynomial."""
    out = {}
    for expo, c in m._payload_terms.items():
        new = [0] * m.nvars
        for i, e in enumerate(expo):
            new[perm[i]] = e
        out[tuple(new)] = c
    return MultiPoly._from_payloads(m.ring, m.nvars, out)


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def test_swap_relabels():
    m = var(1, 2) ** 2 * var(2, 2)  # X1^2 X2
    swapped = apply_permutation((1, 0), m)
    assert swapped == var(2, 2) ** 2 * var(1, 2)


def test_identity_permutation():
    rng = Random(21)
    for _ in range(10):
        m = random_multipoly(ZZ, 3, rng)
        assert apply_permutation((0, 1, 2), m) == m


def test_composition_law():
    rng = Random(22)
    for _ in range(25):
        m = random_multipoly(Zmod(7), 3, rng)
        p = random_permutation(3, rng)
        q = random_permutation(3, rng)
        composed = tuple(q[p[i]] for i in range(3))
        assert apply_permutation(q, apply_permutation(p, m)) == apply_permutation(
            composed, m
        )


def test_is_symmetric_examples():
    assert is_symmetric(var(1, 2) + var(2, 2))
    assert not is_symmetric(var(1, 2) ** 2 * var(2, 2))
    assert is_symmetric(MultiPoly.constant(ZZ, 3, 5))
    # X1*X2: the first swap fixes it, the second does not
    assert not is_symmetric(var(1, 3) * var(2, 3))


def _fixed_by_adjacent_transpositions(m):
    for i in range(m.nvars - 1):
        perm = list(range(m.nvars))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if apply_permutation(perm, m) != m:
            return False
    return True


def _orbit_sum(ring, n, rng):
    """A symmetric MultiPoly, the sum of a few orbits of exponent
    vectors with one nonzero coefficient each, and its orbits of size
    greater than 1."""
    orbits = {
        tuple(sorted(set(permutations(rng.randint(0, 2) for _ in range(n)))))
        for _ in range(rng.randint(1, 3))
    }
    terms = {}
    for orbit in orbits:
        c = ring.zero
        while c == ring.zero:
            c = random_value(ring, rng)
        terms.update(dict.fromkeys(orbit, c.payload))
    m = MultiPoly._from_payloads(ring, n, terms)
    return m, sorted(orbit for orbit in orbits if len(orbit) > 1)


@pytest.mark.parametrize("spec", ["ZZ", "Zmod:12", "QQ", "Poly:ZZ:T"])
def test_is_symmetric_is_invariance_under_adjacent_transpositions(spec):
    # symmetric inputs, and near-misses built from them: one orbit member
    # dropped or its payload changed; orbits such as that of (1, 1, 0)
    # have equal neighbouring exponents, which a transposition fixes
    ring = parse_ring(spec)
    rng = Random(f"is-symmetric:{spec}")
    verdicts = set()
    for n in range(1, 6):
        for _ in range(12):
            m, orbits = _orbit_sum(ring, n, rng)
            cases = [(m, True)]
            for orbit in orbits:
                expo = rng.choice(orbit)
                dropped = dict(m._payload_terms)
                del dropped[expo]
                changed = m.terms
                changed[expo] = changed[expo] + ring.one
                cases += [
                    (MultiPoly._from_payloads(ring, n, dropped), False),
                    (MultiPoly(ring, n, changed), False),
                ]
            for case, symmetric in cases:
                assert is_symmetric(case) == _fixed_by_adjacent_transpositions(case)
                assert is_symmetric(case) == symmetric
                verdicts.add(symmetric)
    assert verdicts == {True, False}


def test_elementary_examples():
    e1 = elementary(1, 3, ZZ)
    assert e1 == var(1, 3) + var(2, 3) + var(3, 3)
    e3 = elementary(3, 3, ZZ)
    assert e3 == var(1, 3) * var(2, 3) * var(3, 3)
    assert elementary(0, 3, ZZ) == MultiPoly.constant(ZZ, 3, 1)


def test_elementary_bounds():
    with pytest.raises(ValueError):
        elementary(4, 3, ZZ)
    with pytest.raises(ValueError):
        elementary(-1, 3, ZZ)
    with pytest.raises(OracleInfeasibleError):
        elementary(1, ARITY_BOUND + 1, ZZ)


def test_elementary_monomial_count():
    for n in range(1, 7):
        for i in range(n + 1):
            e = elementary(i, n, ZZ)
            assert len(e.terms) == comb(n, i)
            assert is_symmetric(e)


def test_evaluate():
    m = var(1, 2) ** 2 + var(2, 2)
    assert m.evaluate([ZZ.value(3), ZZ.value(4)]) == ZZ.value(13)


def test_arithmetic_against_evaluation():
    # exact polynomial ops must commute with evaluation at sample points
    rng = Random(23)
    for _ in range(20):
        a = random_multipoly(ZZ, 2, rng)
        b = random_multipoly(ZZ, 2, rng)
        pt = [random_value(ZZ, rng, -4, 4) for _ in range(2)]
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)


def test_evaluate_matches_value_arithmetic():
    # evaluate runs on the sparse payload kernel that SymElem.substitute
    # shares, so check it against plain RingValue arithmetic
    rng = Random(24)
    for ring in (ZZ, QQ, Zmod(12), GF(5), PolyRing(ZZ, "T")):
        for n in (1, 2, 3):
            m = random_multipoly(ring, n, rng)
            pt = [random_value(ring, rng, -3, 3) for _ in range(n)]
            want = ring.zero
            for expo, c in m.terms.items():
                for v, e in zip(pt, expo):
                    for _ in range(e):
                        c = c * v
                want = want + c
            got = m.evaluate(pt)
            assert got.ring is ring and got == want


def test_product_cancelling_only_mod_m_stores_no_term():
    # (2*X1)*(2*X2) = 4*X1*X2 vanishes over Zmod:4; so does 2*e1 * 2*e2
    ring = Zmod(4)
    p = var(1, 2, ring).scale(2) * var(2, 2, ring).scale(2)
    assert p.is_zero and p.terms == {}
    assert p == MultiPoly.zero(ring, 2)
    s = SymElem.e(1, 2, ring).scale(2) * SymElem.e(2, 2, ring).scale(2)
    assert s.is_zero and s.terms == {}


def test_render():
    m = var(1, 2) ** 2 * var(2, 2) - MultiPoly.constant(ZZ, 2, 3)
    assert str(m) == "X1^2*X2 - 3"
    assert str(MultiPoly.zero(ZZ, 2)) == "0"


def test_rebuilt_from_terms_is_equal_with_equal_hash():
    # MultiPoly and SymElem store payloads; terms wraps them, and the
    # public constructor takes the wrapped values back to the same form
    rng = Random(25)
    for ring in ORACLE_RINGS:
        for _ in range(5):
            pairs = [
                (random_multipoly(ring, 3, rng), random_multipoly(ring, 3, rng)),
                (random_symelem(ring, 3, rng), random_symelem(ring, 3, rng)),
            ]
            c = random_value(ring, rng)
            for a, b in pairs:
                for value in (a + b, a - b, a * b, a.scale(c)):
                    back = type(value)(ring, 3, value.terms)
                    assert back == value and hash(back) == hash(value)
                    assert all(x.ring is ring for x in value.terms.values())
