"""Sparse multivariate polynomials in X1..Xn with the permutation action.

Terms map exponent tuples (fixed length n) to nonzero coefficients.
The monomial order used throughout is lexicographic with X1 > X2 > ...,
which is the order the symmetric decomposition algorithm relies on.

MultiPoly and symmetric.SymElem, whose exponent tuples count powers of
e_1..e_n, are the two kinds of _SparsePoly and share its body: term
validation, the ring and arity check, and add, multiply, negate and
scale with the ring's _add/_mul/_neg.  A _SparsePoly stores one form, a
map from exponent tuples to nonzero canonical payloads of its ring, and
terms wraps them in ring values each time it is read.  Each operation
runs on the stored payloads and builds its result through the trusted
_from_payloads, which takes canonical payloads of the ring unchecked,
apart from dropping zeros, and is for internal use only; the public
constructors validate every exponent and coefficient.  _sparse_eval
evaluates a map of payloads with one power table per value.  It takes
the algebra to work in as arguments, so MultiPoly.evaluate and
SymElem.substitute run it on payloads, and SymElem.expand,
SymPoly1.expand and the addition and section maps of quotients run it
on polynomials.  MultiPoly names its arithmetic and evaluate in its own
class body because perfbench/tracer.py spans those methods by reading
MultiPoly.__dict__; its arity is also nvars.
"""

from __future__ import annotations

import operator
from itertools import combinations

from .errors import _check_arity
from .poly import _render_sum, _signed_text
from .rings import Ring, RingValue, _check_rings, _power


class _SparsePoly:
    """A sparse polynomial over a ring: _payload_terms maps exponent
    tuples of one length, the arity, to nonzero canonical payloads.
    MultiPoly and SymElem are its two kinds and share this body."""

    __slots__ = ("ring", "arity", "_payload_terms")

    def _validate(self, ring: Ring, arity: int, terms, label: str):
        """Set the fields from a map exponent vector -> value, checking
        every exponent and coefficient and dropping zeros."""
        clean = {}
        zero = ring._from_int(0)
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity or any(e < 0 for e in expo):
                raise ValueError(f"bad {label} vector {expo}")
            c = ring.value(c).payload
            if c != zero:
                clean[expo] = c
        self.ring = ring
        self.arity = arity
        self._payload_terms = clean

    @classmethod
    def _from_payloads(cls, ring: Ring, arity: int, payloads):
        """An element from a map exponent tuple -> canonical payload of
        ring, unchecked apart from dropping zero payloads."""
        zero = ring._from_int(0)
        s = object.__new__(cls)
        s.ring = ring
        s.arity = arity
        s._payload_terms = {e: c for e, c in payloads.items() if c != zero}
        return s

    # constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ring: Ring, arity: int):
        return cls(ring, arity)

    @classmethod
    def constant(cls, ring: Ring, arity: int, c):
        return cls(ring, arity, {(0,) * arity: c})

    # structure ------------------------------------------------------
    @property
    def terms(self) -> dict[tuple, RingValue]:
        ring = self.ring
        return {e: RingValue(ring, c) for e, c in self._payload_terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._payload_terms

    def _check(self, other):
        _check_rings(self.ring, other.ring)
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch {self.arity} vs {other.arity}")

    # arithmetic on payloads -----------------------------------------
    def __add__(self, other):
        self._check(other)
        add = self.ring._add
        out = dict(self._payload_terms)
        for expo, c in other._payload_terms.items():
            cur = out.get(expo)
            out[expo] = c if cur is None else add(cur, c)
        return self._from_payloads(self.ring, self.arity, out)

    def __neg__(self):
        neg = self.ring._neg
        out = {e: neg(c) for e, c in self._payload_terms.items()}
        return self._from_payloads(self.ring, self.arity, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        add, mul = self.ring._add, self.ring._mul
        right = other._payload_terms.items()
        out: dict[tuple, object] = {}
        for e1, c1 in self._payload_terms.items():
            for e2, c2 in right:
                expo = tuple(map(operator.add, e1, e2))
                p = mul(c1, c2)
                cur = out.get(expo)
                out[expo] = p if cur is None else add(cur, p)
        return self._from_payloads(self.ring, self.arity, out)

    def scale(self, c):
        c = self.ring.value(c).payload
        mul = self.ring._mul
        out = {e: mul(c, v) for e, v in self._payload_terms.items()}
        return self._from_payloads(self.ring, self.arity, out)

    def __pow__(self, k: int):
        return _power(self, k, self.constant(self.ring, self.arity, 1))

    def _at(self, values) -> RingValue:
        """The value with the i-th variable (X_i of a MultiPoly, e_i of a
        SymElem) replaced by values[i-1]."""
        ring = self.ring
        values = [ring.value(v).payload for v in values]
        if len(values) != self.arity:
            raise ValueError(f"need {self.arity} values, got {len(values)}")
        terms = self._payload_terms
        acc = _sparse_eval(ring, terms, values, _same, ring._add, ring._mul)
        return RingValue(ring, acc)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.arity == other.arity
            and self._payload_terms == other._payload_terms
        )

    def __hash__(self):
        return hash((self.ring, self.arity, frozenset(self._payload_terms.items())))


class MultiPoly(_SparsePoly):
    __slots__ = ()

    def __init__(self, ring: Ring, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self._validate(ring, nvars, terms, "exponent")

    # perfbench/tracer.py spans these, reading them from this class's
    # own __dict__
    __add__ = _SparsePoly.__add__
    __sub__ = _SparsePoly.__sub__
    __neg__ = _SparsePoly.__neg__
    __mul__ = _SparsePoly.__mul__
    __pow__ = _SparsePoly.__pow__
    scale = _SparsePoly.scale
    evaluate = _SparsePoly._at

    @property
    def nvars(self) -> int:
        return self.arity

    @classmethod
    def variable(cls, i: int, nvars: int, ring: Ring) -> MultiPoly:
        """X_i, with 1 <= i <= nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        expo = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(ring, nvars, {expo: 1})

    # rendering ------------------------------------------------------
    def __str__(self):
        return render_terms(self.ring, self._payload_terms, lambda i: f"X{i + 1}")

    def __repr__(self):
        return f"MultiPoly({self.ring.name}, n={self.arity}, {self})"


def render_terms(ring: Ring, terms, varname) -> str:
    """Shared renderer for MultiPoly and the e-basis, from a map of
    payloads; descending lex."""
    return _render_sum(
        (
            *_signed_text(ring, terms[expo]),
            "*".join(
                varname(i) if e == 1 else f"{varname(i)}^{e}"
                for i, e in enumerate(expo)
                if e
            ),
        )
        for expo in sorted(terms, reverse=True)
    )


def apply_permutation(perm, m: MultiPoly) -> MultiPoly:
    """Relabel variables X_i -> X_perm(i); perm maps 0-based positions."""
    perm = tuple(perm)
    if sorted(perm) != list(range(m.nvars)):
        raise ValueError(f"not a permutation of 0..{m.nvars - 1}: {perm}")
    out = {}
    for expo, c in m._payload_terms.items():
        new = [0] * m.nvars
        for i, e in enumerate(expo):
            new[perm[i]] = e
        out[tuple(new)] = c
    return MultiPoly._from_payloads(m.ring, m.nvars, out)


def is_symmetric(m: MultiPoly) -> bool:
    """Fixed by the adjacent transpositions, which generate S_n."""
    for i in range(m.nvars - 1):
        perm = list(range(m.nvars))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if apply_permutation(perm, m) != m:
            return False
    return True


def elementary(i: int, n: int, ring: Ring) -> MultiPoly:
    """The i-th elementary symmetric polynomial in n variables; e_0 = 1.
    It has C(n, i) terms, so an n above ARITY_BOUND is refused first."""
    if not 0 <= i <= n:
        raise ValueError(f"elementary index {i} out of range 0..{n}")
    _check_arity(n)
    if i == 0:
        return MultiPoly.constant(ring, n, 1)
    terms = {}
    for subset in combinations(range(n), i):
        expo = [0] * n
        for k in subset:
            expo[k] = 1
        terms[tuple(expo)] = 1
    return MultiPoly(ring, n, terms)


# sparse evaluation ------------------------------------------------

def _same(c):
    return c


def _sparse_eval(ring: Ring, terms, values, lift, add, mul):
    """sum over the terms of lift(c) * prod_i values[i]^k_i, in whatever
    algebra lift maps payloads of ring into and add/mul work in: the
    payloads themselves, or polynomials with constant coefficients."""
    # powers[i][k] = values[i]^k, up to the largest exponent present
    one = lift(ring._from_int(1))
    powers = []
    for v, top in zip(values, map(max, zip(*terms))):
        row = [one, v]
        for _ in range(top - 1):
            row.append(mul(row[-1], v))
        powers.append(row)
    acc = lift(ring._from_int(0))
    for expo, c in terms.items():
        t = lift(c)
        for row, k in zip(powers, expo):
            if k:
                t = mul(t, row[k])
        acc = add(acc, t)
    return acc
