"""Norms and characteristic polynomials of multiplication operators.

A monic F of degree n determines the evaluation map sending the basis
symbol e_i to F's i-th signed coefficient.  Pushing the symmetric
operators of f through it yields the characteristic polynomial of
multiplication-by-f on A[X]/(F); its signed constant term is the norm.

norm() itself takes the O(n^4) determinant route, which is the
production path: the symmetric route is exponential in n through the
multivariate expansion and exists for fidelity to the defining formula.
norm_checked() runs both and insists they agree.

Both symmetric routes reduce f mod F before the symmetric expansion.
That is exact, since f(a) = (f mod F)(a) at every root a of F, and it
keeps their cost bounded by deg F instead of growing with deg f.
"""

from __future__ import annotations

from .errors import InvariantViolationError
from .homs import RingHom
from .matrices import det, mult_matrix
from .multipoly import MultiPoly
from .poly import MonicPoly, Poly, poly_mod
from .rings import Ring, RingValue, ZZ, _check_rings
from .symmetric import SymElem, SymPoly1, diagonal_tensor, sym_char_poly


class EvalMap:
    """Substitution e_i -> i-th signed coefficient of a monic polynomial."""

    __slots__ = ("modulus", "ring", "arity", "images")

    def __init__(self, modulus: MonicPoly):
        self.modulus = modulus
        self.ring = modulus.ring
        self.arity = modulus.degree
        self.images = modulus.signed_coeffs

    def __call__(self, s: SymElem) -> RingValue:
        _check_rings(s.ring, self.ring)
        if s.arity != self.arity:
            raise ValueError(
                f"arity {s.arity} does not match degree {self.arity}"
            )
        return s.substitute(self.images)

    def apply_poly1(self, t: SymPoly1) -> Poly:
        """Evaluate the coefficients of a polynomial in the outer X."""
        return Poly(self.ring, [self(c) for c in t.coeffs])

    def __repr__(self):
        return f"EvalMap({self.modulus})"


def mult_char_poly(f: Poly, modulus: MonicPoly) -> MonicPoly:
    """Characteristic polynomial of multiplication-by-f on A[X]/(F),
    computed through the symmetric operators of f mod F."""
    f = poly_mod(f, modulus)  # checks the rings
    u = EvalMap(modulus)
    return MonicPoly(u.apply_poly1(sym_char_poly(f, modulus.degree)))


def norm(f: Poly, modulus: MonicPoly) -> RingValue:
    """The norm of f with respect to F: the determinant of
    multiplication-by-f on A[X]/(F)."""
    return det(mult_matrix(f, modulus))


def norm_symmetric(f: Poly, modulus: MonicPoly) -> RingValue:
    """The defining route: the evaluation map applied to the diagonal
    tensor of f mod F, (f mod F)(X_1)*...*(f mod F)(X_n)."""
    f = poly_mod(f, modulus)  # checks the rings
    return EvalMap(modulus)(diagonal_tensor(f, modulus.degree))


def norm_checked(f: Poly, modulus: MonicPoly) -> RingValue:
    """Both norm routes, compared; disagreement is a library bug.  The
    symmetric route runs first: it refuses a deg F over ARITY_BOUND
    before the determinant route does O(n^4) work."""
    b = norm_symmetric(f, modulus)
    a = norm(f, modulus)
    if a != b:
        raise InvariantViolationError(
            f"norm routes disagree for f={f}, F={modulus}: matrix {a},"
            f" symmetric {b}"
        )
    return a


def difference_product(p: int, q: int, ring: Ring = ZZ) -> MultiPoly:
    """prod_{i<=p} prod_{j<=q} (X_i - X_{p+j}) in p+q variables."""
    if p < 1 or q < 1:
        raise ValueError("block sizes must be >= 1")
    n = p + q
    acc = MultiPoly.constant(ring, n, 1)
    for i in range(1, p + 1):
        xi = MultiPoly.variable(i, n, ring)
        for j in range(1, q + 1):
            acc = acc * (xi - MultiPoly.variable(p + j, n, ring))
    return acc


def resultant_symmetry_check(first: MonicPoly, second: MonicPoly) -> bool:
    """Whether N_P(Q) equals (-1)^(pq) N_Q(P); expected true always."""
    return _resultant_symmetry(first, second)[0]


def _resultant_symmetry(first: MonicPoly, second: MonicPoly):
    """(whether N_P(Q) == (-1)^(pq) N_Q(P), N_P(Q), N_Q(P)), each norm
    computed once; the CLI reports all three."""
    _check_rings(first.ring, second.ring)
    lhs = norm(second, first)
    rhs = norm(first, second)
    odd = (first.degree * second.degree) % 2
    return lhs == (-rhs if odd else rhs), lhs, rhs


def push_norm(hom: RingHom, f: Poly, modulus: MonicPoly) -> tuple[RingValue, RingValue]:
    """(phi(N_F(f)), N_{F^phi}(f^phi)): equal by base change.

    Also verifies the stronger per-coefficient statement: applying phi
    to each signed coefficient of the multiplication characteristic
    polynomial lands on the corresponding coefficient downstairs.
    """
    _check_rings(modulus.ring, hom.source)
    _check_rings(f.ring, hom.source)
    f_img = hom.map_poly(f)
    modulus_img = hom.map_monic(modulus)

    upstairs = mult_char_poly(f, modulus)
    downstairs = mult_char_poly(f_img, modulus_img)
    pushed = [hom(c) for c in upstairs.signed_coeffs]
    if tuple(pushed) != downstairs.signed_coeffs:
        raise InvariantViolationError(
            f"coefficient base change failed for f={f}, F={modulus},"
            f" hom={hom.describe()}"
        )
    return hom(norm(f, modulus)), norm(f_img, modulus_img)
