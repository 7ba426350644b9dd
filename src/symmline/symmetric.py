"""Symmetric elements in the elementary basis, and the operators built
from a univariate polynomial.

SymElem is a polynomial in the elementary symmetric functions e_1..e_n;
expand() multiplies out honest MultiPoly products, while decompose()
runs the classical leading-term reduction (through the compressed
kernel in _symbasis).  Keeping the two directions on separate code
paths is what makes the round-trip test decompose(expand(s)) == s
meaningful.

sym_ops_of(f, n) returns the n symmetric operators of f: the signed
coefficients of prod_i (Y - f(X_i)).  For f = X they are e_1..e_n.
sym_char_poly packages them as the monic degree-n polynomial itself,
a SymPoly1: a polynomial in one outer variable X whose coefficients
live in the symmetric ring SymRing(ring, n).  The outer X is
structurally separate from X_1..X_n, never an (n+1)-th MultiPoly
variable.

Arity 0 is allowed for SymElem (a bare ring constant), matching the
convention that the zeroth symmetric tensor ring is the base ring.

SymElem shares MultiPoly's sparse body (multipoly._SparsePoly): terms
stored as payloads, validation and arithmetic on them, and evaluation
with one power table per value, which substitute runs on payloads and
expand() runs at the elementary MultiPolys.  SymElem._from_payloads is
the trusted constructor behind them and behind decompose, sym_ops_of
and diagonal_tensor: it takes canonical payloads of the ring unchecked,
apart from dropping zeros, and is for internal use only.  The public
SymElem(...) constructor validates every exponent and coefficient.

SymRing(ring, n) is the symmetric ring as one more coefficient ring:
an interned Ring whose payloads are the SymElems of that ring and
arity n, with native +, - and *.  SymPoly1 is a Poly over it, so
Poly's arithmetic, poly_divmod, equality, hash and render serve it,
and Poly._from_payloads is its trusted constructor.  SymPoly1 adds only
the (ring, arity, coeffs) constructor, coeffs read as SymElems, shift
and expand; it names Poly's arithmetic in its own class body because
perfbench/tracer.py spans those names by reading SymPoly1.__dict__.  A
SymPoly1 reads its base ring as t.ring.base, and mixing arities raises
RingMismatchError.
"""

from __future__ import annotations

import operator
from functools import partial

from . import _symbasis
from .errors import NotSymmetricError, UnsupportedRingError
from .multipoly import (
    MultiPoly,
    _sparse_eval,
    _SparsePoly,
    elementary,
    is_symmetric,
    render_terms,
)
from .poly import Poly, _from_signed, poly_divmod, poly_mod
from .rings import Ring, RingValue, _check_rings, _intern


class SymElem(_SparsePoly):
    __slots__ = ()

    def __init__(self, ring: Ring, arity: int, terms=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self._validate(ring, arity, terms, "e-exponent")

    # constructors ---------------------------------------------------
    @classmethod
    def one(cls, ring: Ring, arity: int) -> SymElem:
        return cls.constant(ring, arity, 1)

    @classmethod
    def e(cls, i: int, arity: int, ring: Ring) -> SymElem:
        """The basis symbol e_i; e_0 is the constant 1."""
        if not 0 <= i <= arity:
            raise ValueError(f"basis index {i} out of range 0..{arity}")
        if i == 0:
            return cls.one(ring, arity)
        expo = tuple(1 if k == i - 1 else 0 for k in range(arity))
        return cls(ring, arity, {expo: 1})

    def constant_value(self) -> RingValue:
        """The coefficient of the empty e-monomial."""
        zero = self.ring._from_int(0)
        return RingValue(self.ring, self._payload_terms.get((0,) * self.arity, zero))

    substitute = _SparsePoly._at

    def expand(self) -> MultiPoly:
        """The symmetric MultiPoly this element denotes, multiplied out."""
        if self.arity < 1:
            raise ValueError("cannot expand an arity-0 element")
        ring, n = self.ring, self.arity
        return _sparse_eval(
            ring,
            self._payload_terms,
            [elementary(i, n, ring) for i in range(1, n + 1)],
            partial(MultiPoly.constant, ring, n),
            operator.add,
            operator.mul,
        )

    def __str__(self):
        if self.arity == 0:
            return str(self.constant_value())
        return render_terms(self.ring, self._payload_terms, lambda i: f"e{i + 1}")

    def __repr__(self):
        return f"SymElem({self.ring.name}, n={self.arity}, {self})"


def decompose(m: MultiPoly) -> SymElem:
    """Write a symmetric MultiPoly in the elementary basis.

    Classical reduction: read the lex-leading term c*X^lam, subtract
    c*e_1^(lam1-lam2)*...*e_n^(lamn), repeat until zero.
    """
    if not is_symmetric(m):
        raise NotSymmetricError(f"not symmetric: {m}")
    n = m.nvars
    rep = {}
    for expo, c in m._payload_terms.items():
        if tuple(sorted(expo, reverse=True)) == expo:
            rep[expo] = c
    return SymElem._from_payloads(m.ring, n, _symbasis.decompose_rep(rep, n, m.ring))


def sym_ops_of(f: Poly, n: int) -> list[SymElem]:
    """The symmetric operators s_1..s_n of f: signed coefficients of
    prod_i (Y - f(X_i)).  For f = X this is exactly (e_1, .., e_n)."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ring = f.ring
    return [
        SymElem._from_payloads(ring, n, _symbasis.decompose_rep(rep, n, ring))
        for rep in _symbasis.sym_ops_reps(f._payload_coeffs, n, ring)
    ]


def diagonal_tensor(f: Poly, n: int) -> SymElem:
    """The diagonal tensor f(X_1)*...*f(X_n) in the elementary basis;
    equals the last symmetric operator of f."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ring = f.ring
    rep = _symbasis.diagonal_rep(f._payload_coeffs, n, ring)
    return SymElem._from_payloads(ring, n, _symbasis.decompose_rep(rep, n, ring))


class SymRing(Ring):
    """The symmetric ring on arity letters over base, in the elementary
    basis: its payloads are SymElems of that ring and arity.  Interned
    like PolyRing, and keeps its zero and one, as PolyRing keeps its
    zero."""

    def __new__(cls, base: Ring, arity: int):
        if not isinstance(arity, int) or arity < 0:
            raise ValueError("arity must be an int >= 0")
        zero = SymElem._from_payloads(base, arity, {})
        one = SymElem._from_payloads(base, arity, {(0,) * arity: base._from_int(1)})
        return _intern(
            cls, (base, arity), base=base, arity=arity,
            is_domain=base.is_domain, _zero=zero, _one=one,
        )

    def _const(self, c) -> SymElem:
        """The constant SymElem of a payload c of the base ring."""
        return SymElem._from_payloads(self.base, self.arity, {(0,) * self.arity: c})

    def _from_int(self, k):
        if k == 0:
            return self._zero
        if k == 1:
            return self._one
        return self._const(self.base._from_int(k))

    def _canon(self, payload):
        if isinstance(payload, SymElem):
            _check_rings(SymRing(payload.ring, payload.arity), self)
            return payload
        return super()._canon(payload)

    def _is_unit(self, a):
        raise UnsupportedRingError(f"unit test in {self.name} is not supported")

    @property
    def name(self):
        return f"Sym:{self.base.name}:{self.arity}"


class SymPoly1(Poly):
    """Polynomial in the outer variable X over symmetric elements: a
    Poly over SymRing(ring, arity), whose coeffs are SymElems."""

    __slots__ = ()

    def __init__(self, ring: Ring, arity: int, coeffs=()):
        const = partial(SymElem.constant, ring, arity)
        cs = [c if isinstance(c, SymElem) else const(c) for c in coeffs]
        super().__init__(SymRing(ring, arity), cs)

    @classmethod
    def zero(cls, ring: Ring, arity: int) -> SymPoly1:
        return cls._from_payloads(SymRing(ring, arity), ())

    @classmethod
    def from_symelem(cls, s: SymElem) -> SymPoly1:
        return cls._from_payloads(SymRing(s.ring, s.arity), (s,))

    @classmethod
    def x(cls, ring: Ring, arity: int) -> SymPoly1:
        sym = SymRing(ring, arity)
        return cls._from_payloads(sym, (sym._zero, sym._one))

    @classmethod
    def lift_poly(cls, f: Poly, arity: int) -> SymPoly1:
        """A plain polynomial in X with constant symmetric coefficients."""
        sym = SymRing(f.ring, arity)
        return cls._from_payloads(sym, map(sym._const, f._payload_coeffs))

    @property
    def arity(self) -> int:
        return self.ring.arity

    @property
    def coeffs(self) -> tuple[SymElem, ...]:
        return self._payload_coeffs

    def coeff(self, j: int) -> SymElem:
        cs = self._payload_coeffs
        return cs[j] if 0 <= j < len(cs) else self.ring._zero

    # Poly's own functions, named in this class body because
    # perfbench/tracer.py spans them by reading SymPoly1.__dict__
    __add__ = Poly.__add__
    __sub__ = Poly.__sub__
    __neg__ = Poly.__neg__
    __mul__ = Poly.__mul__
    __pow__ = Poly.__pow__
    scale = Poly.scale
    divmod_monic = poly_divmod
    mod_monic = poly_mod

    def shift(self, k: int) -> SymPoly1:
        """This polynomial times X^k."""
        pad = (self.ring._zero,) * k
        return SymPoly1._from_payloads(self.ring, pad + self._payload_coeffs)

    def expand(self) -> MultiPoly:
        """Multiply out with the outer X as an extra last variable.

        Only meaningful for small oracles; the result lives in
        arity + 1 variables with X mapped to the last one.
        """
        ring, n = self.ring.base, self.arity
        # e_1..e_n in the first n variables, then X
        images = [
            MultiPoly(ring, n + 1, {e + (0,): 1 for e in elementary(i, n, ring).terms})
            for i in range(1, n + 1)
        ] + [MultiPoly.variable(n + 1, n + 1, ring)]
        terms = {
            expo + (j,): v
            for j, c in enumerate(self._payload_coeffs)
            for expo, v in c.terms.items()
        }
        lift = partial(MultiPoly.constant, ring, n + 1)
        return _sparse_eval(ring, terms, images, lift, operator.add, operator.mul)

    def __repr__(self):
        return f"SymPoly1({self.ring.base.name}, n={self.arity}, {self})"


SymPoly1._result = SymPoly1


def sym_char_poly(f: Poly, n: int) -> SymPoly1:
    """The monic degree-n polynomial prod_i (X - f(X_i)) with symmetric
    coefficients: X^n - s_1 X^(n-1) + ... + (-1)^n s_n."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    sym = SymRing(f.ring, n)
    coeffs = _from_signed(sym_ops_of(f, n), sym._one, sym._zero)
    return SymPoly1._from_payloads(sym, coeffs)
