"""Independent brute-force routes used to cross-check the main paths.

Nothing here touches the symmetric-function machinery: determinants
come from cofactor expansion or from Bareiss elimination on an int lift
of the matrix, run by this module's own kernel, so results can be
compared bit-exactly against the production determinants of
multiplication matrices in matrices.  The CLI's membership oracles read
a generator's unit norm off such a Sylvester determinant, and local-at
membership off F expanded at X + a.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvariantViolationError
from .matrices import SquareMatrix, det
from .poly import MonicPoly, Poly, poly_mod
from .rings import IntegerRing, RationalRing, RingValue, ZmodRing


def cofactor_det(rows):
    """Determinant by first-row expansion; entries need +, -, *."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if acc is None:
            acc = term
        elif j % 2:
            acc = acc - term
        else:
            acc = acc + term
    return acc


def charpoly_cofactor(m: SquareMatrix) -> MonicPoly:
    """det(X*I - M) by cofactor expansion over the polynomial ring."""
    ring = m.ring
    x = Poly.gen(ring)
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            c = Poly.constant(ring, m.entry(i, j))
            row.append(x - c if i == j else -c)
        rows.append(row)
    return MonicPoly(cofactor_det(rows))


def bareiss_det(m: SquareMatrix) -> RingValue | None:
    """Determinant by Bareiss elimination on an int lift of m; None over
    towers and the symmetric ring, which have none.

    ZZ entries are lifted as they are.  Zmod and GF residues are lifted
    to ints and the determinant is reduced mod m at the end: it is an
    integer polynomial in the entries and reduction mod m is a ring map.
    Each QQ row is scaled by the lcm d_i of its own denominators, and
    det M = det(DM) / prod d_i.
    """
    ring, rows = m.ring, m._payload_rows
    if isinstance(ring, (IntegerRing, ZmodRing)):
        return ring.value(_bareiss(rows))
    if isinstance(ring, RationalRing):
        scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
        lifted = [
            [x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(rows, scales)
        ]
        return RingValue(ring, Fraction(_bareiss(lifted), math.prod(scales)))
    return None


def _bareiss(rows) -> int:
    """Determinant of an int matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968); every step must divide exactly."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in range(k + 1, n):
            row, c = a[i], a[i][k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - c * top[j], prev)
                if r:
                    raise InvariantViolationError(
                        f"Bareiss step {k} not divisible by {prev}"
                    )
                row[j] = q
        prev = pivot
    return sign * a[n - 1][n - 1]


def sylvester_matrix(big: MonicPoly, small: Poly) -> SquareMatrix:
    """Sylvester matrix of a monic F (degree n) and f (degree m >= 1),
    the m rows of shifted F coefficients first.  With F monic its
    determinant is the resultant Res(F, f) = prod f(root), with no
    leading-coefficient factor."""
    n = big.degree
    m = small.degree
    if m is None or m < 1:
        raise ValueError("second polynomial must have degree >= 1")
    ring = big.ring
    size = n + m
    rows = []
    fdesc = [big.coeff(n - i) for i in range(n + 1)]
    gdesc = [small.coeff(m - i) for i in range(m + 1)]
    for i in range(m):
        rows.append(
            [ring.zero] * i + fdesc + [ring.zero] * (size - n - 1 - i)
        )
    for i in range(n):
        rows.append(
            [ring.zero] * i + gdesc + [ring.zero] * (size - m - 1 - i)
        )
    return SquareMatrix(ring, rows)


def sylvester_resultant(big: MonicPoly, small: Poly) -> RingValue:
    """Resultant as the Sylvester determinant, by bareiss_det; only
    tower rings fall back to the production Berkowitz det."""
    syl = sylvester_matrix(big, small)
    d = bareiss_det(syl)
    return det(syl) if d is None else d


def unit_norm(modulus: MonicPoly, g: Poly) -> bool:
    """Whether N_F(g) is a unit, for a monic F over a scalar ring, by the
    Sylvester resultant of F and r = g mod F: N_F(g) = N_F(r) for monic
    F, so the matrix is at most (2n-1) x (2n-1) whatever deg g is.  A
    constant r = c has N_F(c) = c^n."""
    r = poly_mod(g, modulus)
    if not r.degree:
        return (r.coeff(0) ** modulus.degree).is_unit()
    return sylvester_resultant(modulus, r).is_unit()


def shifted_is_power(modulus: MonicPoly, a: RingValue) -> bool:
    """Whether F(X + a) = X^n, expanding F at X + a by Horner's rule."""
    ring = modulus.ring
    x = Poly.gen(ring)
    step = x + Poly.constant(ring, a)
    shifted = Poly.zero(ring)
    for c in reversed(modulus.coeffs):
        shifted = shifted * step + Poly.constant(ring, c)
    return shifted == x ** modulus.degree
