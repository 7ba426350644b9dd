"""Exact arithmetic over the supported coefficient rings.

A ring is one of: the integers ZZ, the rationals QQ, the residue ring
Zmod(m) for m >= 2, the prime field GF(p), a polynomial ring
Poly(base, var) over one of these, or the symmetric ring
symmetric.SymRing(base, n), the coefficient ring of SymPoly1.  Elements
are RingValue objects that pair a ring with a canonical payload:

    ZZ        arbitrary-precision int
    QQ        fractions.Fraction (lowest terms, positive denominator)
    Zmod/GF   int residue in [0, m)
    Poly(...) a poly.Poly over the base ring, no trailing zeros
    Sym(...)  a symmetric.SymElem over the base ring, of arity n

Equality of values is payload equality, which the canonical forms make
decidable.  All values are immutable; every operation returns a fresh
value, so sharing across threads is safe.

Every ring is interned by its constructor arguments: building one
twice returns the same object while the first is alive (ZZ and QQ live
for the whole process).  So two rings are equal only when they are the
same object, and every matching-ring check is an identity test.
Pickling rebuilds a ring from its arguments, which returns the live one.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from fractions import Fraction

from .errors import RingMismatchError

_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Common interface of the supported rings.

    Subclasses implement the payload-level operations; RingValue wraps
    them with operator syntax and matching-ring checks.  _add, _neg and
    _mul default to the payloads' own +, - and *, which is right for
    every ring but Zmod, so only ZmodRing overrides them.
    """

    is_field = False
    is_domain = False

    # payload-level primitives -------------------------------------
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)

    def _from_int(self, k: int):
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        raise NotImplementedError

    def _inv(self, a):
        """Multiplicative inverse payload, or None when there is none."""
        return None

    def _render(self, a) -> str:
        return str(a)

    def _sign_split(self, a):
        """(is_negative, payload to render), for polynomial output."""
        return False, a

    # value layer ---------------------------------------------------
    def value(self, x) -> RingValue:
        if isinstance(x, RingValue):
            if x.ring is not self:
                raise RingMismatchError(f"value of {x.ring.name} used in {self.name}")
            return x
        if isinstance(x, int):
            return RingValue(self, self._from_int(x))
        return RingValue(self, self._canon(x))

    def _canon(self, payload):
        raise TypeError(f"cannot build a {self.name} value from {payload!r}")

    @property
    def zero(self) -> RingValue:
        return self.value(0)

    @property
    def one(self) -> RingValue:
        return self.value(1)

    @property
    def name(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name

    # Rings are interned, so equality is object's identity test.  __ne__
    # stays defined because perfbench's tracer counts the != ring checks
    # by wrapping this method; inherited, they would go uncounted.
    def __ne__(self, other):
        return self is not other

    def __reduce__(self):
        return type(self), self._args


def _intern(cls, args, **attrs):
    """The live instance of cls built from args, or a new one carrying
    attrs and args.

    Callers validate their arguments first, so a rejected specification
    is never cached.  The lock makes interning atomic, so no two equal
    rings are ever alive at once, which identity equality relies on.
    """
    with _INTERN_LOCK:
        ring = _INTERNED.get((cls, args))
        if ring is None:
            ring = object.__new__(cls)
            vars(ring).update(attrs, _args=args)
            _INTERNED[(cls, args)] = ring
        return ring


def _check_rings(a: Ring, b: Ring):
    """Raise RingMismatchError unless a and b are the same ring."""
    if a is not b:
        raise RingMismatchError(f"mixed rings {a.name} and {b.name}")


def _power(base, k, one):
    """base**k by square-and-multiply from one; the __pow__ of every
    value and polynomial class.  It squares only while bits remain."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while True:
        if k & 1:
            result = result * base
        k >>= 1
        if not k:
            return result
        base = base * base


class RingValue:
    """An element of a ring, kept in canonical form.

    A ZZ or QQ value hashes as its payload, like the int it may equal.
    No hash can agree with == on ints elsewhere: a Zmod:12 value equals
    both 5 and 17, and Poly: constants equal ints.  Equal values of one
    ring always hash equally.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other) -> RingValue:
        if isinstance(other, RingValue):
            if other.ring is not self.ring:
                raise RingMismatchError(
                    f"mixed rings {self.ring.name} and {other.ring.name}"
                )
            return other
        if isinstance(other, int):
            return self.ring.value(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingValue(self.ring, self.ring._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingValue(
            self.ring, self.ring._add(self.payload, self.ring._neg(other.payload))
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, self.ring.one)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.value(other)
        if not isinstance(other, RingValue):
            return NotImplemented
        return self.ring is other.ring and self.payload == other.payload

    def __hash__(self):
        if type(self.ring) in (IntegerRing, RationalRing):
            return hash(self.payload)
        return hash((self.ring, self.payload))

    @property
    def is_zero(self) -> bool:
        return self.payload == self.ring._from_int(0)

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.payload)

    def try_inverse(self) -> RingValue | None:
        inv = self.ring._inv(self.payload)
        return None if inv is None else RingValue(self.ring, inv)

    def __str__(self):
        return self.ring._render(self.payload)

    def __repr__(self):
        return f"<{self.ring.name}: {self}>"


class IntegerRing(Ring):
    is_domain = True

    def __new__(cls):
        return _intern(cls, ())

    def _from_int(self, k):
        return k

    def _is_unit(self, a):
        return a in (1, -1)

    def _inv(self, a):
        return a if a in (1, -1) else None

    def _sign_split(self, a):
        return (a < 0), abs(a)

    @property
    def name(self):
        return "ZZ"


class RationalRing(Ring):
    is_field = True
    is_domain = True

    def __new__(cls):
        return _intern(cls, ())

    def _from_int(self, k):
        return Fraction(k)

    def _canon(self, payload):
        if isinstance(payload, Fraction):
            return payload
        return super()._canon(payload)

    def _is_unit(self, a):
        return a != 0

    def _inv(self, a):
        return None if a == 0 else 1 / a

    def _sign_split(self, a):
        return (a < 0), abs(a)

    @property
    def name(self):
        return "QQ"


class ZmodRing(Ring):
    """Integers modulo m, residues kept in [0, m)."""

    def __new__(cls, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        return _intern(cls, (modulus,), modulus=modulus, is_domain=is_prime(modulus))

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _neg(self, a):
        return -a % self.modulus

    def _mul(self, a, b):
        return a * b % self.modulus

    def _from_int(self, k):
        return k % self.modulus

    def _is_unit(self, a):
        return math.gcd(a, self.modulus) == 1

    def _inv(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    @property
    def name(self):
        return f"Zmod:{self.modulus}"


class PrimeField(ZmodRing):
    """The field with p elements, p prime (checked)."""

    is_field = True
    is_domain = True

    def __new__(cls, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"GF parameter must be prime, got {p!r}")
        return super().__new__(cls, p)

    def _is_unit(self, a):
        return a != 0

    @property
    def name(self):
        return f"GF:{self.modulus}"


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(m: int) -> ZmodRing:
    return ZmodRing(m)


def GF(p: int) -> PrimeField:
    return PrimeField(p)
