"""Norms and characteristic polynomials of multiplication operators.

A monic F of degree n determines the evaluation map sending the basis
symbol e_i to F's i-th signed coefficient.  Pushing the symmetric
operators of f through it yields the characteristic polynomial of
multiplication-by-f on A[X]/(F); its signed constant term is the norm.
EvalMap applies it to a SymElem in the e-basis.  The norm routes,
mult_char_poly and norm_symmetric, apply it to the monomial form of the
operators and of the diagonal tensor instead (_symbasis.evaluate_reps),
so they never decompose them; sym_ops_of followed by EvalMap is the
decomposition route that selftest checks them against.

norm() takes the production determinant route: O(n^3) over ZZ and QQ
(Bareiss) and modulo a prime (Hessenberg), O(n^4) over composite Zmod
and towers (Berkowitz); the symmetric route is exponential in n through
the multivariate expansion and exists for fidelity to the definition.
norm_checked() runs both and insists they agree.

Both symmetric routes reduce f mod F before the symmetric expansion.
That is exact, since f(a) = (f mod F)(a) at every root a of F, and it
keeps their cost bounded by deg F instead of growing with deg f.
"""

from __future__ import annotations

from ._symbasis import diagonal_rep, evaluate_reps, sym_ops_reps
from .errors import _agree
from .homs import RingHom
from .matrices import det, mult_matrix, rational_norm
from .poly import MonicPoly, Poly, poly_mod
from .rings import RationalRing, RingValue, _check_rings
from .symmetric import SymElem


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

    def __repr__(self):
        return f"EvalMap({self.modulus})"


def _images(modulus: MonicPoly) -> list:
    """The payloads of modulus's signed coefficients, e_i's images."""
    return [c.payload for c in modulus.signed_coeffs]


def mult_char_poly(f: Poly, modulus: MonicPoly) -> MonicPoly:
    """Characteristic polynomial of multiplication-by-f on A[X]/(F):
    the evaluation map of F applied to the monomial form of the
    symmetric operators of f mod F."""
    f = poly_mod(f, modulus)  # checks the rings
    ring, n = modulus.ring, modulus.degree
    reps = sym_ops_reps(f._payload_coeffs, n, ring)
    cs = evaluate_reps(reps, n, ring, _images(modulus))
    return MonicPoly.from_signed_coeffs(ring, [RingValue(ring, c) for c in cs])


def norm(f: Poly, modulus: MonicPoly) -> RingValue:
    """The norm of f with respect to F: the determinant of
    multiplication-by-f on A[X]/(F), by matrices.det; over QQ by
    matrices.rational_norm, which builds no Fraction matrix."""
    if isinstance(modulus.ring, RationalRing):
        return rational_norm(f, modulus)
    return det(mult_matrix(f, modulus))


def norm_symmetric(f: Poly, modulus: MonicPoly) -> RingValue:
    """The defining route: the evaluation map applied to the monomial
    form of the diagonal tensor of f mod F,
    (f mod F)(X_1)*...*(f mod F)(X_n)."""
    f = poly_mod(f, modulus)  # checks the rings
    ring, n = modulus.ring, modulus.degree
    rep = diagonal_rep(f._payload_coeffs, n, ring)
    return RingValue(ring, evaluate_reps([rep], n, ring, _images(modulus))[0])


def norm_checked(f: Poly, modulus: MonicPoly) -> RingValue:
    """Both norm routes, compared; disagreement is a library bug.  The
    symmetric route runs first: it refuses a deg F over ARITY_BOUND
    before the determinant route does O(n^3) or O(n^4) work."""
    symmetric = norm_symmetric(f, modulus)
    return _agree(norm(f, modulus), symmetric, "matrix and symmetric norms")


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
    _agree(
        tuple(map(hom, upstairs.signed_coeffs)),
        downstairs.signed_coeffs,
        "pushed and base-changed charpoly coefficients",
    )
    return hom(norm(f, modulus)), norm(f_img, modulus_img)
