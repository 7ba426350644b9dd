"""Independent brute-force routes used to cross-check the main paths.

Nothing here touches the symmetric-function machinery: determinants
come from cofactor expansion or ring-generic Bareiss elimination, so
results can be compared bit-exactly against the production determinants
of multiplication matrices in matrices.
"""

from __future__ import annotations

from .errors import InvariantViolationError
from .matrices import SquareMatrix, det
from .poly import MonicPoly, Poly
from .rings import RingValue, ZmodRing, ZZ


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
    """Fraction-free elimination; None when the ring lacks exact division."""
    ring = m.ring
    if ring._exact_div(ring._from_int(0), ring._from_int(1)) is None:
        return None
    n = m.n
    a = [list(row) for row in m._payload_rows]
    zero = ring._from_int(0)
    sign = 1
    prev = ring._from_int(1)
    for k in range(n - 1):
        if a[k][k] == zero:
            pivot_row = next(
                (r for r in range(k + 1, n) if a[r][k] != zero), None
            )
            if pivot_row is None:
                return ring.zero
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring._add(
                    ring._mul(a[i][j], a[k][k]),
                    ring._neg(ring._mul(a[i][k], a[k][j])),
                )
                q = ring._exact_div(num, prev)
                if q is None:
                    raise InvariantViolationError(
                        f"Bareiss step not divisible in {ring.name}"
                    )
                a[i][j] = q
        prev = a[k][k]
    result = RingValue(ring, a[n - 1][n - 1])
    return result if sign == 1 else -result


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
    """Resultant via the Sylvester determinant by fraction-free Bareiss
    elimination.  Over Zmod:m with m composite, which lacks the exact
    divisions, Bareiss runs on the residues lifted to ZZ and the result
    is reduced mod m: the determinant is an integer polynomial in the
    entries and reduction mod m is a ring map, as in matrices.char_poly.
    Only tower rings fall back to the production Berkowitz det."""
    syl = sylvester_matrix(big, small)
    ring = syl.ring
    if isinstance(ring, ZmodRing) and not ring.is_domain:
        lifted = SquareMatrix._from_payloads(ZZ, syl._payload_rows)
        return ring.value(bareiss_det(lifted).payload)
    d = bareiss_det(syl)
    return det(syl) if d is None else d
