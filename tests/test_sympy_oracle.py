"""sympy as a third, test-only oracle for resultants, characteristic
polynomials and gcds.  The library does not depend on sympy; without it
these tests are skipped.

Over Zmod and GF the integer residues are lifted to ZZ, where sympy
computes, and its answer is reduced mod m.  This is exact: the Sylvester
determinant and the characteristic polynomial are integer polynomials
in the entries, and a monic F keeps its degree under the lift.  A gcd
is not, so sympy computes it in its own GF(p) and QQ domains.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from symmline.matrices import SquareMatrix, char_poly, mult_matrix
from symmline.norms import mult_char_poly, norm
from symmline.poly import PolyRing, poly_gcd
from symmline.rings import GF, QQ, Zmod, ZmodRing, ZZ
from symmline.sampling import random_monic, random_nonzero_poly, random_poly, random_value

X, Y, T = sympy.symbols("X Y T")
RINGS = [ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T")]


def to_sympy(value):
    """A ring value as a sympy expression in T (towers) or a number."""
    p = value.payload
    if isinstance(value.ring, PolyRing):
        return sum(to_sympy(c) * T**i for i, c in enumerate(p.coeffs))
    if isinstance(p, Fraction):
        return sympy.Rational(p.numerator, p.denominator)
    return sympy.Integer(p)


def poly_expr(f, var):
    return sum(to_sympy(c) * var**i for i, c in enumerate(f.coeffs))


def resultant(first, second, n, m):
    """Res_X(first, second) for X-degrees n and m, as prod second(a)
    over the roots a of a monic first.  sympy 1.14's resultant drops the
    sign (-1)^(nm) when its first argument has the lower degree (checked
    against its own Sylvester determinant), so the higher-degree
    argument goes first and the sign is applied here."""
    if n >= m:
        return sympy.resultant(first, second, X)
    return (-1) ** (n * m) * sympy.resultant(second, first, X)


def agree(ring, ours, theirs):
    """Whether a ring value equals a sympy expression, mod m for Zmod."""
    diff = sympy.expand(to_sympy(ours) - theirs)
    if isinstance(ring, ZmodRing):
        return diff.is_Integer and diff % ring.modulus == 0
    return diff == 0


def test_norm_matches_sympy_resultant():
    rng = Random(91)
    for ring in RINGS:
        for _ in range(8):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 5)
            if f.degree is None or f.degree < 1:
                continue
            # Res(F, f) = prod f(a) over the roots a of the monic F
            expected = resultant(
                poly_expr(modulus.poly, X), poly_expr(f, X), modulus.degree, f.degree
            )
            assert agree(ring, norm(f, modulus), expected), (ring, modulus, f)
    # the Bareiss route of det over ZZ and QQ at larger degrees of F
    for ring in (ZZ, QQ):
        for n in (12, 14, 16):
            modulus = random_monic(ring, rng, n)
            f = random_nonzero_poly(ring, rng, n + 2)
            if f.degree < 1:
                continue
            expected = resultant(
                poly_expr(modulus.poly, X), poly_expr(f, X), modulus.degree, f.degree
            )
            assert agree(ring, norm(f, modulus), expected), (ring, modulus, f)


def test_mult_char_poly_matches_sympy_resultant():
    rng = Random(92)
    for ring in RINGS:
        for _ in range(5):
            modulus = random_monic(ring, rng, rng.randint(1, 3))
            f = random_poly(ring, rng, 4)
            # det(Y - f(theta)) = Res_X(F(X), Y - f(X)) for a monic F
            shifted = Y - poly_expr(f, X)
            res = resultant(
                poly_expr(modulus.poly, X), shifted, modulus.degree, f.degree or 0
            )
            expected = sympy.Poly(res, Y).all_coeffs()[::-1]
            for chi in (mult_char_poly(f, modulus), char_poly(mult_matrix(f, modulus))):
                assert len(chi.poly.coeffs) == len(expected)
                for ours, theirs in zip(chi.poly.coeffs, expected):
                    assert agree(ring, ours, theirs), (ring, modulus, f)


def test_char_poly_matches_sympy_charpoly():
    rng = Random(93)
    cases = [(ring, n, 1.0) for ring in RINGS for n in (1, 2, 3, 4)]
    # Berkowitz mod p at larger n, p <= n included, sparse and dense
    cases += [
        (ring, n, density)
        for ring in (GF(2), GF(3), GF(10007))
        for n in (6, 10, 16)
        for density in (0.2, 1.0)
    ]
    for ring, n, density in cases:
        m = SquareMatrix(ring, [
            [random_value(ring, rng) if rng.random() < density else ring.zero
             for _ in range(n)]
            for _ in range(n)
        ])
        rows = [[to_sympy(m.entry(i, j)) for j in range(n)] for i in range(n)]
        expected = sympy.Matrix(rows).charpoly(Y).all_coeffs()[::-1]
        ours = char_poly(m).poly.coeffs
        assert len(ours) == len(expected)
        for a, b in zip(ours, expected):
            assert agree(ring, a, b), (ring, m)


def test_poly_gcd_matches_sympy_gcd():
    # poly_gcd is the oracle of the coprimality check; zeros and
    # constants occur, which its Euclid loop divides by as monic
    # polynomials of degree 0
    rng = Random(95)
    for ring, domain in ((GF(5), sympy.GF(5)), (GF(7), sympy.GF(7)), (QQ, sympy.QQ)):
        for _ in range(200):
            f, g = (
                random_poly(ring, rng, rng.choice((0, 1, 3, 6)), -4, 4) for _ in "fg"
            )
            ours = poly_gcd(f, g)
            theirs = sympy.Poly(poly_expr(f, X), X, domain=domain).gcd(
                sympy.Poly(poly_expr(g, X), X, domain=domain)
            )
            assert ours.degree == (None if theirs.is_zero else theirs.degree()), (f, g)
            assert all(
                agree(ring, ours.coeff(i), theirs.as_expr().coeff(X, i))
                for i in range(len(ours.coeffs))
            ), (ring, f, g, ours, theirs)
