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

SymElem arithmetic and substitute run on payloads: they unwrap the
coefficients once, loop on the ring's _add/_mul/_neg, and wrap the
result once; substitute builds one power table per value, up to the
largest exponent present.  SymElem._from_payloads is the trusted
constructor behind them and behind decompose, sym_ops_of and
diagonal_tensor: it takes canonical payloads of the ring unchecked,
apart from dropping zeros, and is for internal use only.  The public
SymElem(...) constructor validates every exponent and coefficient.
"""

from __future__ import annotations

import operator

from . import _symbasis
from .errors import NotSymmetricError, RingMismatchError
from .multipoly import MultiPoly, elementary, is_symmetric, render_terms
from .poly import Poly
from .rings import Ring, RingValue


class SymElem:
    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring: Ring, arity: int, terms=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity or any(k < 0 for k in expo):
                raise ValueError(f"bad e-exponent vector {expo}")
            c = ring.value(c)
            if not c.is_zero:
                clean[expo] = c
        self.ring = ring
        self.arity = arity
        self.terms = clean

    @classmethod
    def _from_payloads(cls, ring: Ring, arity: int, payloads) -> SymElem:
        """An element from a map e-exponent tuple -> canonical payload of
        ring, unchecked apart from dropping zero payloads."""
        zero = ring._from_int(0)
        s = object.__new__(cls)
        s.ring = ring
        s.arity = arity
        s.terms = {
            expo: RingValue(ring, c) for expo, c in payloads.items() if c != zero
        }
        return s

    # constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ring: Ring, arity: int) -> SymElem:
        return cls(ring, arity)

    @classmethod
    def constant(cls, ring: Ring, arity: int, c) -> SymElem:
        return cls(ring, arity, {(0,) * arity: c})

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

    # structure ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> RingValue:
        """The coefficient of the empty e-monomial."""
        return self.terms.get((0,) * self.arity, self.ring.zero)

    def _check(self, other: SymElem):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"mixed rings {self.ring.name} and {other.ring.name}"
            )
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch {self.arity} vs {other.arity}")

    # arithmetic -----------------------------------------------------
    def __add__(self, other: SymElem) -> SymElem:
        self._check(other)
        add = self.ring._add
        out = {e: c.payload for e, c in self.terms.items()}
        for expo, c in other.terms.items():
            cur = out.get(expo)
            out[expo] = c.payload if cur is None else add(cur, c.payload)
        return SymElem._from_payloads(self.ring, self.arity, out)

    def __neg__(self) -> SymElem:
        neg = self.ring._neg
        return SymElem._from_payloads(
            self.ring, self.arity, {e: neg(c.payload) for e, c in self.terms.items()}
        )

    def __sub__(self, other: SymElem) -> SymElem:
        return self + (-other)

    def __mul__(self, other: SymElem) -> SymElem:
        self._check(other)
        add, mul = self.ring._add, self.ring._mul
        right = [(e, c.payload) for e, c in other.terms.items()]
        out: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            c1 = c1.payload
            for e2, c2 in right:
                expo = tuple(map(operator.add, e1, e2))
                p = mul(c1, c2)
                cur = out.get(expo)
                out[expo] = p if cur is None else add(cur, p)
        return SymElem._from_payloads(self.ring, self.arity, out)

    def scale(self, c) -> SymElem:
        c = self.ring.value(c).payload
        mul = self.ring._mul
        return SymElem._from_payloads(
            self.ring, self.arity, {e: mul(c, v.payload) for e, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> SymElem:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SymElem.one(self.ring, self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def substitute(self, values) -> RingValue:
        """Evaluate with e_i replaced by values[i-1]."""
        ring = self.ring
        values = [ring.value(v).payload for v in values]
        if len(values) != self.arity:
            raise ValueError(
                f"need {self.arity} values, got {len(values)}"
            )
        add, mul = ring._add, ring._mul
        # powers[i][k] = values[i]^k, up to the largest exponent present
        tops = [max(col) for col in zip(*self.terms)]
        powers = []
        for v, top in zip(values, tops):
            row = [ring._from_int(1)]
            for _ in range(top):
                row.append(mul(row[-1], v))
            powers.append(row)
        acc = ring._from_int(0)
        for expo, c in self.terms.items():
            t = c.payload
            for row, k in zip(powers, expo):
                if k:
                    t = mul(t, row[k])
            acc = add(acc, t)
        return RingValue(ring, acc)

    def expand(self) -> MultiPoly:
        """The symmetric MultiPoly this element denotes, multiplied out."""
        if self.arity < 1:
            raise ValueError("cannot expand an arity-0 element")
        n = self.arity
        acc = MultiPoly.zero(self.ring, n)
        for expo, c in self.terms.items():
            term = MultiPoly.constant(self.ring, n, c)
            for i, k in enumerate(expo):
                if k:
                    term = term * elementary(i + 1, n, self.ring) ** k
            acc = acc + term
        return acc

    def __eq__(self, other):
        if not isinstance(other, SymElem):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.arity, frozenset(self.terms.items())))

    def __str__(self):
        if self.arity == 0:
            return str(self.constant_value())
        return render_terms(self.ring, self.terms, lambda i: f"e{i + 1}")

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
    for expo, c in m.terms.items():
        if tuple(sorted(expo, reverse=True)) == expo:
            rep[expo] = c.payload
    return SymElem._from_payloads(m.ring, n, _symbasis.decompose_rep(rep, n, m.ring))


def sym_ops_of(f: Poly, n: int) -> list[SymElem]:
    """The symmetric operators s_1..s_n of f: signed coefficients of
    prod_i (Y - f(X_i)).  For f = X this is exactly (e_1, .., e_n)."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ring = f.ring
    fpays = [c.payload for c in f.coeffs]
    return [
        SymElem._from_payloads(ring, n, _symbasis.decompose_rep(rep, n, ring))
        for rep in _symbasis.sym_ops_reps(fpays, n, ring)
    ]


def diagonal_tensor(f: Poly, n: int) -> SymElem:
    """The diagonal tensor f(X_1)*...*f(X_n) in the elementary basis;
    equals the last symmetric operator of f."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ring = f.ring
    rep = _symbasis.diagonal_rep([c.payload for c in f.coeffs], n, ring)
    return SymElem._from_payloads(ring, n, _symbasis.decompose_rep(rep, n, ring))


class SymPoly1:
    """Polynomial in the outer variable X over symmetric elements."""

    __slots__ = ("ring", "arity", "coeffs")

    def __init__(self, ring: Ring, arity: int, coeffs=()):
        cs = []
        for c in coeffs:
            if not isinstance(c, SymElem):
                c = SymElem.constant(ring, arity, c)
            if c.ring != ring or c.arity != arity:
                raise ValueError("coefficient ring or arity mismatch")
            cs.append(c)
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
        return cls(
            f.ring,
            arity,
            [SymElem.constant(f.ring, arity, c) for c in f.coeffs],
        )

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
        if self.ring != other.ring or self.arity != other.arity:
            raise ValueError("ring or arity mismatch")

    def __add__(self, other: SymPoly1) -> SymPoly1:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SymPoly1(self.ring, self.arity, out)

    def __neg__(self) -> SymPoly1:
        return SymPoly1(self.ring, self.arity, [-c for c in self.coeffs])

    def __sub__(self, other: SymPoly1) -> SymPoly1:
        return self + (-other)

    def __mul__(self, other: SymPoly1) -> SymPoly1:
        self._check(other)
        if self.is_zero or other.is_zero:
            return SymPoly1.zero(self.ring, self.arity)
        out = [SymElem.zero(self.ring, self.arity)] * (
            len(self.coeffs) + len(other.coeffs) - 1
        )
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return SymPoly1(self.ring, self.arity, out)

    def scale(self, s: SymElem) -> SymPoly1:
        return SymPoly1(self.ring, self.arity, [s * c for c in self.coeffs])

    def __pow__(self, k: int) -> SymPoly1:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SymPoly1(self.ring, self.arity, (SymElem.one(self.ring, self.arity),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> SymPoly1:
        if self.is_zero:
            return self
        pad = (SymElem.zero(self.ring, self.arity),) * k
        return SymPoly1(self.ring, self.arity, pad + self.coeffs)

    def divmod_monic(self, modulus: SymPoly1) -> tuple[SymPoly1, SymPoly1]:
        """Division in the outer variable by a monic polynomial."""
        self._check(modulus)
        if not modulus.is_monic():
            raise ValueError("divisor must be monic in the outer variable")
        n = modulus.degree
        rem = list(self.coeffs)
        if len(rem) <= n:
            return SymPoly1.zero(self.ring, self.arity), self
        quo = [SymElem.zero(self.ring, self.arity)] * (len(rem) - n)
        for k in range(len(rem) - 1, n - 1, -1):
            c = rem[k]
            if c.is_zero:
                continue
            quo[k - n] = c
            for i in range(n + 1):
                rem[k - n + i] = rem[k - n + i] - c * modulus.coeff(i)
        return (
            SymPoly1(self.ring, self.arity, quo),
            SymPoly1(self.ring, self.arity, rem[:n]),
        )

    def mod_monic(self, modulus: SymPoly1) -> SymPoly1:
        return self.divmod_monic(modulus)[1]

    def expand(self) -> MultiPoly:
        """Multiply out with the outer X as an extra last variable.

        Only meaningful for small oracles; the result lives in
        arity + 1 variables with X mapped to the last one.
        """
        n = self.arity
        acc = MultiPoly.zero(self.ring, n + 1)
        for j, c in enumerate(self.coeffs):
            inner = c.expand() if n >= 1 else None
            if inner is None:
                block = MultiPoly.constant(self.ring, 1, c.constant_value())
            else:
                block = MultiPoly(
                    self.ring,
                    n + 1,
                    {expo + (0,): v for expo, v in inner.terms.items()},
                )
            xpow = MultiPoly(
                self.ring, n + 1, {(0,) * n + (j,): self.ring.one}
            )
            acc = acc + block * xpow
        return acc

    def __eq__(self, other):
        if not isinstance(other, SymPoly1):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.arity, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero:
                continue
            body = str(c)
            composite = " " in body or "+" in body or "-" in body[1:]
            neg = False
            if body.startswith("-") and not composite:
                neg = True
                body = body[1:]
            if composite:
                body = f"({body})"
            if j == 0:
                term = body
            else:
                power = "X" if j == 1 else f"X^{j}"
                term = power if body == "1" else f"{body}*{power}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f" - {term}" if neg else f" + {term}")
        return "".join(parts)

    def __repr__(self):
        return f"SymPoly1({self.ring.name}, n={self.arity}, {self})"


def sym_char_poly(f: Poly, n: int) -> SymPoly1:
    """The monic degree-n polynomial prod_i (X - f(X_i)) with symmetric
    coefficients: X^n - s_1 X^(n-1) + ... + (-1)^n s_n."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    ops = sym_ops_of(f, n)
    ring = f.ring
    coeffs = [SymElem.zero(ring, n)] * (n + 1)
    coeffs[n] = SymElem.one(ring, n)
    for i, s in enumerate(ops, start=1):
        coeffs[n - i] = -s if i % 2 else s
    return SymPoly1(ring, n, coeffs)
