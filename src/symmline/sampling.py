"""Seeded random generators for property suites.

Everything takes an explicit random.Random so that test runs and the
CLI selftest are reproducible from a single seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .matrices import SquareMatrix
from .poly import MonicPoly, Poly, PolyRing
from .rings import QQ, Ring, RingValue, ZmodRing, ZZ
from .symmetric import SymElem


def random_value(ring: Ring, rng: Random, lo: int = -9, hi: int = 9) -> RingValue:
    if isinstance(ring, ZmodRing):
        return ring.value(rng.randrange(ring.modulus))
    if ring is QQ:
        return ring.value(Fraction(rng.randint(lo, hi), rng.randint(1, hi)))
    if isinstance(ring, PolyRing):
        deg = rng.randint(0, 2)
        inner = Poly(
            ring.base, [random_value(ring.base, rng, lo, hi) for _ in range(deg + 1)]
        )
        return ring.value(inner)
    return ring.value(rng.randint(lo, hi))


def random_poly(
    ring: Ring, rng: Random, max_deg: int, lo: int = -9, hi: int = 9
) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly(ring, [random_value(ring, rng, lo, hi) for _ in range(deg + 1)])


def random_nonzero_poly(
    ring: Ring, rng: Random, max_deg: int, lo: int = -9, hi: int = 9
) -> Poly:
    while True:
        f = random_poly(ring, rng, max_deg, lo, hi)
        if not f.is_zero:
            return f


def random_monic(
    ring: Ring, rng: Random, deg: int, lo: int = -9, hi: int = 9
) -> MonicPoly:
    coeffs = [random_value(ring, rng, lo, hi) for _ in range(deg)]
    coeffs.append(ring.one)
    return MonicPoly(Poly(ring, coeffs))


def random_symelem(
    ring: Ring,
    arity: int,
    rng: Random,
    max_weight: int = 6,
    max_terms: int = 4,
    lo: int = -9,
    hi: int = 9,
) -> SymElem:
    """Random element of weighted e-degree at most max_weight."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_weight)
        expo = [0] * arity
        while True:
            choices = [i for i in range(1, arity + 1) if i <= budget]
            if not choices or rng.random() < 0.35:
                break
            i = rng.choice(choices)
            expo[i - 1] += 1
            budget -= i
        terms[tuple(expo)] = random_value(ring, rng, lo, hi)
    return SymElem(ring, arity, terms)


def random_unimodular(
    ring: Ring, n: int, rng: Random, steps: int = 8
) -> tuple[SquareMatrix, SquareMatrix]:
    """(S, S_inverse) built from shears and swaps, so det(S) is a unit."""
    s = SquareMatrix.identity(ring, n)
    s_inv = SquareMatrix.identity(ring, n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.25:
            perm = _swap_matrix(ring, n, i, j)
            s = perm * s
            s_inv = s_inv * perm
        else:
            c = ring.value(rng.randint(-2, 2))
            s = _shear(ring, n, j, i, c) * s
            s_inv = s_inv * _shear(ring, n, j, i, -c)
    return s, s_inv


def _shear(ring: Ring, n: int, row: int, col: int, c: RingValue) -> SquareMatrix:
    rows = list(map(list, SquareMatrix.identity(ring, n).rows))
    rows[row][col] = c
    return SquareMatrix(ring, rows)


def _swap_matrix(ring: Ring, n: int, i: int, j: int) -> SquareMatrix:
    rows = list(SquareMatrix.identity(ring, n).rows)
    rows[i], rows[j] = rows[j], rows[i]
    return SquareMatrix(ring, rows)
