import math
from fractions import Fraction
from itertools import permutations, product
from random import Random

from symmline import matrices
from symmline.matrices import (
    SquareMatrix,
    char_poly,
    companion_matrix,
    det,
    mult_matrix,
    poly_at_matrix,
)
from symmline.norms import norm
from symmline.oracles import charpoly_cofactor
from symmline.poly import MonicPoly, Poly, PolyRing, poly_divmod, poly_mod
from symmline.rings import GF, QQ, Zmod, ZZ
from symmline.sampling import random_monic, random_poly, random_value
from symmline.selftest import run_check

RINGS = [ZZ, QQ, Zmod(12), GF(7)]


def mat(ring, rows):
    return SquareMatrix(ring, rows)


def leibniz_det(m: SquareMatrix):
    """Sum over permutations; factorial cost, intended for n <= 4."""
    ring = m.ring
    total = ring.zero
    for perm in permutations(range(m.n)):
        prod = ring.one
        for i, j in enumerate(perm):
            prod = prod * m.entry(i, j)
        if _parity(perm):
            total = total - prod
        else:
            total = total + prod
    return total


def _parity(perm) -> bool:
    """True for odd permutations."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv % 2 == 1


def test_companion_worked_example():
    f = MonicPoly(Poly(ZZ, [2, -3, 1]))
    assert companion_matrix(f) == mat(ZZ, [[0, -2], [1, 3]])


def test_companion_degree_one():
    f = MonicPoly(Poly(ZZ, [-5, 1]))  # X - 5
    assert companion_matrix(f) == mat(ZZ, [[5]])


def test_companion_charpoly_roundtrip():
    rng = Random(11)
    for ring in RINGS:
        for _ in range(25):
            f = random_monic(ring, rng, rng.randint(1, 6))
            assert char_poly(companion_matrix(f)) == f


def test_charpoly_zero_matrix():
    for n in range(1, 5):
        cp = char_poly(SquareMatrix.zero(ZZ, n))
        assert cp.poly == Poly.gen(ZZ) ** n


def test_charpoly_2x2_formula():
    rng = Random(12)
    for _ in range(30):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        cp = char_poly(mat(ZZ, [[a, b], [c, d]]))
        assert cp.poly == Poly(ZZ, [a * d - b * c, -(a + d), 1])


# one ring per lift of the Berkowitz kernel, plus zero-divisor moduli
ORACLE_RINGS = [ZZ, Zmod(6), Zmod(12), QQ, GF(10007), PolyRing(ZZ, "T")]


def _sizes(ring):
    return range(1, 4) if isinstance(ring, PolyRing) else range(1, 5)


def test_charpoly_matches_cofactor_expansion():
    rng = Random(13)
    for ring in ORACLE_RINGS:
        for n in _sizes(ring):
            for _ in range(8):
                m = mat(
                    ring,
                    [
                        [random_value(ring, rng) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                assert char_poly(m) == charpoly_cofactor(m)


def test_det_identity():
    for n in range(1, 5):
        assert det(SquareMatrix.identity(ZZ, n)) == ZZ.one


def test_det_worked_example():
    m = mat(ZZ, [[0, -2], [1, 3]])
    assert det(m) == ZZ.value(2)
    assert det(m) == leibniz_det(m)


def test_det_multiplicative_mod9():
    rng = Random(14)
    ring = Zmod(9)
    for _ in range(25):
        a = mat(ring, [[random_value(ring, rng) for _ in range(3)] for _ in range(3)])
        b = mat(ring, [[random_value(ring, rng) for _ in range(3)] for _ in range(3)])
        assert det(a * b) == det(a) * det(b)


def test_det_matches_leibniz():
    rng = Random(15)
    for ring in RINGS:
        for n in range(1, 5):
            for _ in range(6):
                m = mat(
                    ring,
                    [
                        [random_value(ring, rng) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                assert det(m) == leibniz_det(m)


def test_mult_matrix_one_is_identity():
    f = random_monic(ZZ, Random(16), 4)
    assert mult_matrix(Poly(ZZ, [1]), f) == SquareMatrix.identity(ZZ, 4)


def test_mult_matrix_x_is_companion():
    rng = Random(17)
    for _ in range(15):
        f = random_monic(ZZ, rng, rng.randint(1, 5))
        assert mult_matrix(Poly.gen(ZZ), f) == companion_matrix(f)


def _assert_columns(g, f):
    m = mult_matrix(g, f)
    x = Poly.gen(f.ring)
    n = f.degree
    for j in range(n):
        col = poly_divmod(g * x**j, f)[1]
        assert [r[j] for r in m.rows] == [col.coeff(i) for i in range(n)]


def test_mult_matrix_columns_definition():
    f = MonicPoly(Poly(ZZ, [2, -3, 1]))
    g = Poly(ZZ, [1, 1])  # X + 1
    _assert_columns(g, f)
    rng = Random(21)
    for ring in ORACLE_RINGS:
        for n in _sizes(ring):
            for deg in (0, n - 1, n, n + 1, 2 * n + 1):
                for _ in range(2):
                    f = random_monic(ring, rng, n)
                    cs = [random_value(ring, rng) for _ in range(deg + 1)]
                    if cs[-1].is_zero:
                        cs[-1] = ring.one
                    g = Poly(ring, cs)
                    assert g.degree == deg
                    _assert_columns(g, f)


def test_mult_matrix_is_ring_homomorphism():
    rng = Random(18)
    for ring in ORACLE_RINGS:
        for _ in range(20):
            modulus = random_monic(ring, rng, rng.randint(1, 4))
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            mf, mg = mult_matrix(f, modulus), mult_matrix(g, modulus)
            assert mult_matrix(f * g, modulus) == mf * mg
            assert mult_matrix(f + g, modulus) == mf + mg
            c = random_value(ring, rng)
            n = modulus.degree
            neg, scaled, prod = -mf, mf.scale(c), mf * mg
            for i, j in product(range(n), repeat=2):
                assert neg.entry(i, j) == -mf.entry(i, j)
                assert scaled.entry(i, j) == c * mf.entry(i, j)
                dot = ring.zero
                for k in range(n):
                    dot = dot + mf.entry(i, k) * mg.entry(k, j)
                assert prod.entry(i, j) == dot


def test_cayley_hamilton():
    rng = Random(19)
    rings = RINGS + [PolyRing(ZZ, "T")]
    for ring in rings:
        sizes = range(1, 6) if not isinstance(ring, PolyRing) else range(1, 4)
        for n in sizes:
            for _ in range(3):
                m = mat(
                    ring,
                    [
                        [random_value(ring, rng, -4, 4) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                cp = char_poly(m)
                assert poly_at_matrix(cp.poly, m) == SquareMatrix.zero(ring, n)


def test_spectral_mapping():
    # split modulus: char poly of f(M) is the product over mapped roots;
    # 30 per ring over ZZ and GF:7
    run_check("split-root-oracle", 2, seed="test_spectral_mapping")


def test_mult_matrix_agrees_with_value_built_matrix():
    # mult_matrix builds from payloads and wraps rows only when read;
    # the same entries through the public constructor must be the same
    # matrix in every observable way
    rng = Random(23)
    for ring in ORACLE_RINGS:
        for n in _sizes(ring):
            f = random_monic(ring, rng, n)
            g = random_poly(ring, rng, n + 1)
            m = mult_matrix(g, f)
            assert char_poly(m) == charpoly_cofactor(m)
            rebuilt = mat(ring, [[m.entry(i, j) for j in range(n)] for i in range(n)])
            assert m == rebuilt and rebuilt == m
            assert hash(m) == hash(rebuilt)
            assert str(m) == str(rebuilt)
            assert char_poly(m) == char_poly(rebuilt)


def _berkowitz_det(m):
    """(-1)^n times the constant term of the Berkowitz char_poly."""
    return (-1) ** m.n * char_poly(m).coeff(0)


def _random_matrix(ring, rng, n, lo=-9, hi=9):
    return mat(
        ring, [[random_value(ring, rng, lo, hi) for _ in range(n)] for _ in range(n)]
    )


def test_bareiss_det_matches_berkowitz_on_random_matrices():
    # entries in -1..1 make zero pivots, row swaps and singular matrices
    # common; with entries in -9..9, QQ values mix denominators 1..9
    rng = Random(31)
    for ring in (ZZ, QQ):
        for n in range(1, 9):
            for lo, hi in ((-9, 9), (-1, 1)):
                for _ in range(6):
                    m = _random_matrix(ring, rng, n, lo, hi)
                    assert det(m) == _berkowitz_det(m), m


def test_bareiss_det_pivot_cases():
    cases = [
        ([[0, 1], [1, 0]], -1),  # zero (1,1) entry: one swap
        ([[0, 2, 1], [3, 1, 0], [1, 1, 1]], -4),
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1),  # zero pivot at step 2
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 0),  # dependent rows
        ([[1, 2], [2, 4]], 0),  # last pivot zero
        ([[0, 5, 7], [0, 1, 2], [0, 3, 4]], 0),  # zero first column
        ([[1, 0, 7], [2, 0, 2], [3, 0, 4]], 0),  # zero middle column
        ([[1, 2, 0], [3, 4, 0], [5, 6, 0]], 0),  # zero last column
        ([[0, 0], [0, 0]], 0),
    ]
    for rows, expected in cases:
        for ring in (ZZ, QQ):
            m = mat(ring, rows)
            assert det(m) == expected == _berkowitz_det(m) == leibniz_det(m), rows
        halves = mat(QQ, [[Fraction(x, 2) for x in row] for row in rows])
        assert det(halves) == QQ.value(Fraction(expected, 2 ** len(rows)))
        assert det(halves) == _berkowitz_det(halves)


def test_bareiss_det_sign_follows_the_swaps():
    # a permutation matrix needs as many row swaps as its parity says,
    # so an odd number of swaps must flip the sign; scaling row i by i+2
    # keeps the pivots from being units
    for n in range(1, 6):
        for perm in permutations(range(n)):
            sign = -1 if _parity(perm) else 1
            rows = [[i + 2 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
            scale = math.prod(range(2, n + 2))
            for ring in (ZZ, QQ):
                m = mat(ring, rows)
                assert det(m) == sign * scale == _berkowitz_det(m), perm


def test_bareiss_det_of_mult_matrix_matches_berkowitz():
    # deg F up to 16, and f sharing a factor with F (norm 0)
    rng = Random(33)
    for ring in (ZZ, QQ):
        for n in range(1, 17):
            modulus = random_monic(ring, rng, n)
            f = random_poly(ring, rng, 2 * n)
            m = mult_matrix(f, modulus)
            assert det(m) == _berkowitz_det(m), (ring, modulus, f)
            if n > 1:
                h = random_monic(ring, rng, rng.randint(1, n - 1))
                k = random_monic(ring, rng, n - h.degree)
                g = h * random_poly(ring, rng, 3)
                m = mult_matrix(g, MonicPoly(h * k))
                assert det(m) == 0 == _berkowitz_det(m), (ring, h, k, g)


def test_det_routes(monkeypatch):
    # Zmod, GF and towers read det off char_poly (the benchmark's census
    # counts those calls); ZZ and QQ eliminate and never call it
    calls = []
    berkowitz = matrices.char_poly

    def counting(m):
        calls.append(m.ring)
        return berkowitz(m)

    monkeypatch.setattr(matrices, "char_poly", counting)
    rng = Random(34)
    for ring, expected in (
        (Zmod(12), 1), (GF(7), 1), (PolyRing(ZZ, "T"), 1), (ZZ, 0), (QQ, 0),
    ):
        for n in (1, 2, 3):
            calls.clear()
            det(_random_matrix(ring, rng, n))
            assert len(calls) == expected, (ring, n)


def _random_residues(rng, p, n, density):
    return [
        [rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def test_hessenberg_matches_berkowitz_mod_primes():
    # sparse matrices make zero sub-diagonal pivots (a row and column
    # swap), all-zero columns below the sub-diagonal, and zero
    # sub-diagonal entries that end the recurrence's sum early
    rng = Random(35)
    for ring in (GF(2), GF(3), GF(5), Zmod(7), GF(10007)):
        p = ring.modulus
        for n in range(1, 11):
            for density in (0.15, 0.4, 1.0):
                for _ in range(20):
                    a = _random_residues(rng, p, n, density)
                    expected = matrices._berkowitz(a, 1, modulus=p)
                    assert matrices._hessenberg(a, p) == expected, (p, a)


def test_hessenberg_pivot_cases():
    cases = [
        # h[1][0] = 0 but h[2][0] != 0: rows and columns 1, 2 swap
        [[1, 2, 3], [0, 4, 5], [5, 0, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
        # column 0 already clear below the sub-diagonal
        [[1, 2, 3], [4, 5, 6], [0, 7, 8]],
        # column 0 all zero below the diagonal
        [[1, 2, 3], [0, 5, 6], [0, 7, 8]],
        # upper triangular: every sub-diagonal entry is zero
        [[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 0, 1]],
        [[0] * 5 for _ in range(5)],
    ]
    for rows in cases:
        for ring in (GF(2), GF(3), Zmod(7), GF(10007)):
            p = ring.modulus
            a = [[x % p for x in row] for row in rows]
            assert matrices._hessenberg(a, p) == matrices._berkowitz(a, 1, modulus=p)
            m = mat(ring, rows)
            assert char_poly(m) == charpoly_cofactor(m), (ring, rows)


def test_char_poly_routes(monkeypatch):
    # a prime modulus takes the Hessenberg kernel; composite Zmod, ZZ,
    # QQ and towers take Berkowitz
    calls = []
    hessenberg = matrices._hessenberg

    def counting(a, p):
        calls.append(p)
        return hessenberg(a, p)

    monkeypatch.setattr(matrices, "_hessenberg", counting)
    rng = Random(36)
    for ring, expected in (
        (GF(7), 1), (Zmod(7), 1), (Zmod(12), 0), (ZZ, 0), (QQ, 0),
        (PolyRing(ZZ, "T"), 0),
    ):
        calls.clear()
        char_poly(_random_matrix(ring, rng, 3))
        assert len(calls) == expected, ring


def _qq(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_mult_matrix_over_qq_matches_definition():
    # column j is f*X^j mod F; F with fractional and with integer
    # coefficients, deg f below, at and above deg F, and f = 0 mod F;
    # the QQ norm, which skips the Fraction matrix, is its determinant
    rng = Random(37)
    x = Poly.gen(QQ)
    for n in range(1, 8):
        for integral in (False, True):
            low = [rng.randint(-9, 9) if integral else _qq(rng) for _ in range(n)]
            modulus = MonicPoly(Poly(QQ, low + [1]))
            fs = [
                Poly(QQ, [_qq(rng) for _ in range(deg + 1)])
                for deg in (0, n - 1, n, 2 * n + 1)
            ]
            fs += [Poly(QQ, []), modulus * Poly(QQ, [_qq(rng), _qq(rng)])]
            for f in fs:
                m = mult_matrix(f, modulus)
                for j in range(n):
                    col = poly_mod(f * x**j, modulus)
                    assert [r[j] for r in m.rows] == [col.coeff(i) for i in range(n)]
                assert norm(f, modulus) == det(m) == _berkowitz_det(m)
