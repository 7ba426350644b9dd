"""Dense univariate polynomials over a ring, and polynomial base rings.

A Poly stores one form, its coefficients as canonical payloads of its
ring, ascending by degree with no trailing zeros, so equality is tuple
equality.  coeffs, coeff(i) and leading wrap payloads in ring values
each time they are read.  The degree of the zero polynomial is None, a
deliberate sentinel: call sites must handle the zero case explicitly
instead of arithmetic silently proceeding on -1.

MonicPoly is the subtype of Poly whose leading coefficient is exactly
one and whose degree is at least 1.  It adds the signed coefficient
view c_1..c_n defined by

    F = X^n - c_1 X^(n-1) + c_2 X^(n-2) - ... + (-1)^n c_n

which is the form consumed by the evaluation maps in norms.py.  Its
arithmetic is Poly's and returns plain Polys.

PolyRing(base, var) turns polynomials into ring elements, giving towers
such as Poly:ZZ:T whose values print as polynomials in T; the payload
of such a value is a Poly over the base.  A level's variable differs
from every lower level's, so a tower value prints as text that parses
back to it.

The dense kernels (_dense_add, _dense_mul and _dense_divmod) are the
one implementation of univariate add, multiply and monic division.
They work on ascending payload lists with the ring's _add/_mul/_neg
passed in.  symmetric.SymPoly1 is a Poly over symmetric.SymRing, whose
payloads are SymElems, so the same arithmetic, poly_divmod and render
serve it; every operation builds its result in the class named by the
_result hook, Poly for Poly and MonicPoly and SymPoly1 for SymPoly1.
The term-joining rules of _render_sum are shared with
multipoly.render_terms, and rings._power is the one square-and-multiply
behind every __pow__.  The constructor takes a coefficient that is
already a value of the same ring object as is and sends anything else
through ring.value, so foreign-ring values are still rejected.

Two trusted constructors, for internal use only, take canonical
payloads of the ring unchecked: Poly._from_payloads, behind the
kernels, strips trailing zeros; MonicPoly._from_monic_payloads, behind
the census and char_poly, takes an ascending tuple whose last entry is
the ring's one and strips and checks nothing.
"""

from __future__ import annotations

from .errors import UnsupportedRingError
from .rings import Ring, RingValue, _check_rings, _intern, _power


class Poly:
    __slots__ = ("ring", "_payload_coeffs")

    def __init__(self, ring: Ring, coeffs):
        cs = [
            c.payload if isinstance(c, RingValue) and c.ring is ring
            else ring.value(c).payload
            for c in coeffs
        ]
        zero = ring._from_int(0)
        while cs and cs[-1] == zero:
            cs.pop()
        self.ring = ring
        self._payload_coeffs = tuple(cs)

    @classmethod
    def _from_payloads(cls, ring: Ring, payloads) -> Poly:
        """A polynomial from ascending canonical payloads of ring,
        unchecked apart from stripping trailing zeros."""
        cs = list(payloads)
        zero = ring._from_int(0)
        while cs and cs[-1] == zero:
            cs.pop()
        p = object.__new__(cls)
        p.ring = ring
        p._payload_coeffs = tuple(cs)
        return p

    # constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ring: Ring) -> Poly:
        return cls(ring, ())

    @classmethod
    def constant(cls, ring: Ring, c) -> Poly:
        return cls(ring, (c,))

    @classmethod
    def gen(cls, ring: Ring) -> Poly:
        """The variable X."""
        return cls(ring, (0, 1))

    @classmethod
    def from_roots(cls, ring: Ring, roots) -> Poly:
        acc = cls.constant(ring, 1)
        for a in roots:
            acc = acc * cls(ring, (-ring.value(a), ring.one))
        return acc

    # structure ------------------------------------------------------
    @property
    def coeffs(self) -> tuple[RingValue, ...]:
        ring = self.ring
        return tuple(RingValue(ring, c) for c in self._payload_coeffs)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self._payload_coeffs) - 1 if self._payload_coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self._payload_coeffs

    @property
    def leading(self) -> RingValue:
        if not self._payload_coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return RingValue(self.ring, self._payload_coeffs[-1])

    def coeff(self, i: int) -> RingValue:
        if 0 <= i < len(self._payload_coeffs):
            return RingValue(self.ring, self._payload_coeffs[i])
        return self.ring.zero

    def is_monic(self) -> bool:
        return (
            bool(self._payload_coeffs)
            and self._payload_coeffs[-1] == self.ring._from_int(1)
        )

    # arithmetic -----------------------------------------------------
    def __add__(self, other: Poly) -> Poly:
        _check_rings(self.ring, other.ring)
        out = _dense_add(self._payload_coeffs, other._payload_coeffs, self.ring._add)
        return self._result._from_payloads(self.ring, out)

    def __neg__(self) -> Poly:
        out = map(self.ring._neg, self._payload_coeffs)
        return self._result._from_payloads(self.ring, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        _check_rings(self.ring, other.ring)
        ring = self.ring
        a, b = self._payload_coeffs, other._payload_coeffs
        out = _dense_mul(a, b, ring._add, ring._mul, ring._from_int(0))
        return self._result._from_payloads(ring, out)

    def scale(self, c) -> Poly:
        c = self.ring.value(c).payload
        mul = self.ring._mul
        out = [mul(c, a) for a in self._payload_coeffs]
        return self._result._from_payloads(self.ring, out)

    def __pow__(self, k: int) -> Poly:
        one = self._result._from_payloads(self.ring, (self.ring._from_int(1),))
        return _power(self, k, one)

    def __call__(self, x: RingValue) -> RingValue:
        x = self.ring.value(x)
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self._payload_coeffs == other._payload_coeffs

    def __hash__(self):
        return hash((self.ring, self._payload_coeffs))

    # rendering ------------------------------------------------------
    def render(self, var: str = "X") -> str:
        ring, zero = self.ring, self.ring._from_int(0)
        return _render_sum(
            (*_signed_text(ring, c), "" if i == 0 else var if i == 1 else f"{var}^{i}")
            for i, c in reversed(list(enumerate(self._payload_coeffs)))
            if c != zero
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"{type(self).__name__}({self.ring.name}, {self})"


# the class that Poly's arithmetic builds its results in: Poly for Poly
# and MonicPoly, and symmetric.SymPoly1 for itself
Poly._result = Poly


# dense kernels ------------------------------------------------------


def _dense_add(a, b, add):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return out


def _dense_mul(a, b, add, mul, zero):
    """The product, possibly with trailing zeros for the caller to strip."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def _dense_divmod(f, g, add, mul, neg, zero):
    """(quotient, remainder) of f by a monic g, by schoolbook division."""
    n = len(g) - 1
    neg_g = [neg(c) for c in g]
    rem = list(f)
    quo = [zero] * (len(rem) - n)
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k]
        if c == zero:
            continue
        quo[k - n] = c
        for i in range(n + 1):
            rem[k - n + i] = add(rem[k - n + i], mul(c, neg_g[i]))
    return quo, rem[:n]


def _from_signed(cs, one, zero) -> list:
    """Ascending coefficients of X^n - c_1 X^(n-1) + ... + (-1)^n c_n."""
    n = len(cs)
    coeffs = [zero] * n + [one]
    for i, c in enumerate(cs, start=1):
        coeffs[n - i] = -c if i % 2 else c
    return coeffs


def _render_sum(terms) -> str:
    """Join (negative, coefficient text, monomial) terms, leading term
    first; "0" when there are none.  A coefficient 1 before a monomial
    is dropped and a single negated coefficient lends its sign to the
    term."""
    parts = []
    for neg, text, monomial in terms:
        if not neg and text.startswith("-") and not _composite(text):
            neg = True
            text = text[1:]
        if not monomial:
            term = _wrap(text)
        elif text == "1":
            term = monomial
        else:
            term = f"{_wrap(text)}*{monomial}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f" - {term}" if neg else f" + {term}")
    return "".join(parts) or "0"


def _signed_text(ring: Ring, payload) -> tuple[bool, str]:
    """(is_negative, rendering of the rest) of a nonzero payload."""
    neg, body = ring._sign_split(payload)
    return neg, ring._render(body)


def _composite(text: str) -> bool:
    """A coefficient rendering of several terms, such as T + 1, not
    of a single one such as -T or -3."""
    return " " in text or "+" in text or "-" in text[1:]


def _wrap(text: str) -> str:
    """Parenthesize composite coefficient renderings inside a term."""
    return f"({text})" if _composite(text) else text


class MonicPoly(Poly):
    """A monic polynomial of degree >= 1."""

    __slots__ = ()

    def __init__(self, poly: Poly):
        if poly.degree is None or poly.degree < 1:
            raise ValueError("monic polynomial must have degree >= 1")
        if not poly.is_monic():
            raise ValueError(f"leading coefficient of {poly} is not one")
        self.ring = poly.ring
        self._payload_coeffs = poly._payload_coeffs

    @classmethod
    def _from_monic_payloads(cls, ring: Ring, payloads: tuple) -> MonicPoly:
        """A monic polynomial from an ascending tuple of canonical
        payloads of ring whose last is its one, unchecked: no stripping
        and no degree or leading-coefficient test."""
        m = object.__new__(cls)
        m.ring = ring
        m._payload_coeffs = payloads
        return m

    @classmethod
    def from_signed_coeffs(cls, ring: Ring, cs) -> MonicPoly:
        """Build X^n - c_1 X^(n-1) + ... + (-1)^n c_n from (c_1..c_n)."""
        cs = [ring.value(c) for c in cs]
        return cls(Poly(ring, _from_signed(cs, ring.one, ring.zero)))

    @classmethod
    def from_roots(cls, ring: Ring, roots) -> MonicPoly:
        if not roots:
            raise ValueError("need at least one root")
        return cls(Poly.from_roots(ring, roots))

    @property
    def poly(self) -> MonicPoly:
        """This polynomial itself; perfbench/oracle.py and the tests
        read F.poly."""
        return self

    @property
    def signed_coeffs(self) -> tuple[RingValue, ...]:
        """(c_1..c_n) with F = X^n - c_1 X^(n-1) + ... + (-1)^n c_n."""
        below = reversed(self.coeffs[:-1])
        return tuple(-a if i % 2 else a for i, a in enumerate(below, start=1))


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by a monic g; needs no base division."""
    _check_rings(f.ring, g.ring)
    if not g.is_monic():
        raise ValueError("divisor must be monic")
    ring = f.ring
    result = f._result
    if len(f._payload_coeffs) <= g.degree:
        return result._from_payloads(ring, ()), f
    add, mul, neg, zero = ring._add, ring._mul, ring._neg, ring._from_int(0)
    quo, rem = _dense_divmod(
        f._payload_coeffs, g._payload_coeffs, add, mul, neg, zero
    )
    return result._from_payloads(ring, quo), result._from_payloads(ring, rem)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return poly_divmod(f, g)[1]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field (zero when both inputs are zero)."""
    if not f.ring.is_field:
        raise UnsupportedRingError(f"gcd needs a field base, got {f.ring.name}")
    while not g.is_zero:
        g = g.scale(g.leading.try_inverse())
        f, g = g, poly_mod(f, g)
    return f if f.is_zero else f.scale(f.leading.try_inverse())


class PolyRing(Ring):
    """Polynomials over a base ring, used as coefficients (ring towers)."""

    def __new__(cls, base: Ring, var: str = "T"):
        if not var.isidentifier():
            raise ValueError(f"bad variable name {var!r}")
        if var == "X" or _looks_reserved(var):
            raise ValueError(f"variable name {var!r} is reserved")
        lower = base
        while isinstance(lower, PolyRing):
            if lower.var == var:
                raise ValueError(f"variable name {var!r} is already used in {base.name}")
            lower = lower.base
        # the zero payload, so that _from_int costs O(depth) calls, not 2^depth
        zero = Poly._from_payloads(base, ())
        return _intern(
            cls, (base, var), base=base, var=var, is_domain=base.is_domain, _zero=zero
        )

    def _from_int(self, k):
        if k == 0:
            return self._zero
        return Poly._from_payloads(self.base, (self.base._from_int(k),))

    def _canon(self, payload):
        if isinstance(payload, Poly) and payload.ring is self.base:
            return payload
        return super()._canon(payload)

    def _is_unit(self, a):
        if not self.base.is_domain:
            raise UnsupportedRingError(
                f"unit test in {self.name} needs an integral-domain base"
            )
        return a.degree == 0 and self.base._is_unit(a._payload_coeffs[0])

    def _inv(self, a):
        try:
            if not self._is_unit(a):
                return None
        except UnsupportedRingError:
            return None
        return Poly._from_payloads(self.base, (self.base._inv(a._payload_coeffs[0]),))

    def _render(self, a):
        return a.render(self.var)

    def gen(self) -> RingValue:
        """The tower variable as a ring element."""
        return RingValue(self, Poly.gen(self.base))

    def embed(self, v: RingValue) -> RingValue:
        """A base-ring element as a constant of the tower."""
        v = self.base.value(v)
        return RingValue(self, Poly.constant(self.base, v))

    @property
    def name(self):
        return f"Poly:{self.base.name}:{self.var}"


def _looks_reserved(var: str) -> bool:
    """X1.., e1.. style names would collide with the expression grammar."""
    return (
        len(var) >= 2
        and var[0] in ("X", "e")
        and var[1:].isdigit()
    ) or var == "e"


def tower_constants(ring: Ring) -> dict[str, RingValue]:
    """Named generators of every tower level of `ring`, as ring values."""
    env: dict[str, RingValue] = {}
    if isinstance(ring, PolyRing):
        env[ring.var] = ring.gen()
        for name, v in tower_constants(ring.base).items():
            env[name] = ring.embed(v)
    return env
