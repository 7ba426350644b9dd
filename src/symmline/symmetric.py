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
live in the symmetric ring.  The outer X is structurally separate from
X_1..X_n, never an (n+1)-th MultiPoly variable.

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

SymPoly1 has no coefficient loop of its own: add, multiply, monic
division and rendering are poly's dense kernels called with SymElem
coefficients and SymElem's +, * and str.  SymPoly1._from_elems is the
trusted constructor behind them: it takes SymElems of the right ring
and arity unchecked, apart from stripping trailing zeros, and is for
internal use only.  The public SymPoly1(...) constructor checks every
coefficient's ring (identity first) and arity.
"""

from __future__ import annotations

import operator
from functools import partial

from . import _symbasis
from .errors import NotSymmetricError
from .multipoly import (
    MultiPoly,
    _sparse_eval,
    _SparsePoly,
    elementary,
    is_symmetric,
    render_terms,
)
from .poly import (
    Poly,
    _dense_add,
    _dense_divmod,
    _dense_mul,
    _from_signed,
    _render_dense,
)
from .rings import Ring, RingValue, _check_rings, _power


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


class SymPoly1:
    """Polynomial in the outer variable X over symmetric elements."""

    __slots__ = ("ring", "arity", "coeffs")

    def __init__(self, ring: Ring, arity: int, coeffs=()):
        cs = []
        for c in coeffs:
            if not isinstance(c, SymElem):
                c = SymElem.constant(ring, arity, c)
            _check_rings(c.ring, ring)
            if c.arity != arity:
                raise ValueError(f"arity mismatch {c.arity} vs {arity}")
            cs.append(c)
        self._set(ring, arity, cs)

    @classmethod
    def _from_elems(cls, ring: Ring, arity: int, elems) -> SymPoly1:
        """A polynomial from ascending SymElems of this ring and arity,
        unchecked apart from stripping trailing zeros."""
        t = object.__new__(cls)
        t._set(ring, arity, list(elems))
        return t

    def _set(self, ring: Ring, arity: int, cs: list):
        while cs and cs[-1].is_zero:
            cs.pop()
        self.ring = ring
        self.arity = arity
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring: Ring, arity: int) -> SymPoly1:
        return cls(ring, arity)

    @classmethod
    def from_symelem(cls, s: SymElem) -> SymPoly1:
        return cls(s.ring, s.arity, (s,))

    @classmethod
    def x(cls, ring: Ring, arity: int) -> SymPoly1:
        return cls(ring, arity, (SymElem.zero(ring, arity), SymElem.one(ring, arity)))

    @classmethod
    def lift_poly(cls, f: Poly, arity: int) -> SymPoly1:
        """A plain polynomial in X with constant symmetric coefficients."""
        return cls(f.ring, arity, f.coeffs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> SymElem:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return SymElem.zero(self.ring, self.arity)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == SymElem.one(
            self.ring, self.arity
        )

    def _check(self, other: SymPoly1):
        _check_rings(self.ring, other.ring)
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch {self.arity} vs {other.arity}")

    def __add__(self, other: SymPoly1) -> SymPoly1:
        self._check(other)
        out = _dense_add(self.coeffs, other.coeffs, operator.add)
        return SymPoly1._from_elems(self.ring, self.arity, out)

    def __neg__(self) -> SymPoly1:
        return SymPoly1._from_elems(self.ring, self.arity, [-c for c in self.coeffs])

    def __sub__(self, other: SymPoly1) -> SymPoly1:
        return self + (-other)

    def __mul__(self, other: SymPoly1) -> SymPoly1:
        self._check(other)
        zero = SymElem.zero(self.ring, self.arity)
        out = _dense_mul(self.coeffs, other.coeffs, operator.add, operator.mul, zero)
        return SymPoly1._from_elems(self.ring, self.arity, out)

    def scale(self, s: SymElem) -> SymPoly1:
        return SymPoly1._from_elems(self.ring, self.arity, [s * c for c in self.coeffs])

    def __pow__(self, k: int) -> SymPoly1:
        return _power(self, k, SymPoly1(self.ring, self.arity, (1,)))

    def shift(self, k: int) -> SymPoly1:
        if self.is_zero:
            return self
        pad = (SymElem.zero(self.ring, self.arity),) * k
        return SymPoly1._from_elems(self.ring, self.arity, pad + self.coeffs)

    def divmod_monic(self, modulus: SymPoly1) -> tuple[SymPoly1, SymPoly1]:
        """Division in the outer variable by a monic polynomial."""
        self._check(modulus)
        if not modulus.is_monic():
            raise ValueError("divisor must be monic in the outer variable")
        quo, rem = _dense_divmod(
            self.coeffs,
            modulus.coeffs,
            operator.add,
            operator.mul,
            operator.neg,
            SymElem.zero(self.ring, self.arity),
        )
        return (
            SymPoly1._from_elems(self.ring, self.arity, quo),
            SymPoly1._from_elems(self.ring, self.arity, rem),
        )

    def mod_monic(self, modulus: SymPoly1) -> SymPoly1:
        return self.divmod_monic(modulus)[1]

    def expand(self) -> MultiPoly:
        """Multiply out with the outer X as an extra last variable.

        Only meaningful for small oracles; the result lives in
        arity + 1 variables with X mapped to the last one.
        """
        ring, n = self.ring, self.arity
        # e_1..e_n in the first n variables, then X
        images = [
            MultiPoly(ring, n + 1, {e + (0,): 1 for e in elementary(i, n, ring).terms})
            for i in range(1, n + 1)
        ] + [MultiPoly.variable(n + 1, n + 1, ring)]
        terms = {
            expo + (j,): v
            for j, c in enumerate(self.coeffs)
            for expo, v in c.terms.items()
        }
        lift = partial(MultiPoly.constant, ring, n + 1)
        return _sparse_eval(ring, terms, images, lift, operator.add, operator.mul)

    def __eq__(self, other):
        if not isinstance(other, SymPoly1):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.arity, self.coeffs))

    def __str__(self):
        return _render_dense(self.coeffs, "X", lambda c: (False, str(c)))

    def __repr__(self):
        return f"SymPoly1({self.ring.name}, n={self.arity}, {self})"


def sym_char_poly(f: Poly, n: int) -> SymPoly1:
    """The monic degree-n polynomial prod_i (X - f(X_i)) with symmetric
    coefficients: X^n - s_1 X^(n-1) + ... + (-1)^n s_n."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ring = f.ring
    coeffs = _from_signed(sym_ops_of(f, n), SymElem.one(ring, n), SymElem.zero(ring, n))
    return SymPoly1._from_elems(ring, n, coeffs)
