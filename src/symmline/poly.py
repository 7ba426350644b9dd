"""Dense univariate polynomials over a ring, and polynomial base rings.

A Poly stores its coefficients ascending by degree with no trailing
zeros, so equality is tuple equality.  The degree of the zero polynomial
is None, a deliberate sentinel: call sites must handle the zero case
explicitly instead of arithmetic silently proceeding on -1.

MonicPoly refines Poly (leading coefficient exactly one, degree >= 1)
and provides the signed coefficient view c_1..c_n defined by

    F = X^n - c_1 X^(n-1) + c_2 X^(n-2) - ... + (-1)^n c_n

which is the form consumed by the evaluation maps in norms.py.

PolyRing(base, var) turns polynomials into ring elements, giving towers
such as Poly:ZZ:T whose values print as polynomials in T.

The dense kernels (_dense_add, _dense_mul, _dense_divmod and the
descending-degree renderer _render_dense) are the one implementation of
univariate add, multiply, monic division and rendering.  They work on
ascending coefficient lists with the coefficient operations passed in:
Poly passes payloads and its ring's _add/_mul/_neg, unwrapping once and
wrapping the result once; symmetric.SymPoly1 passes SymElems and their
own +, * and str.  The term-joining rules of _render_sum are shared
with multipoly.render_terms, and rings._power is the one
square-and-multiply behind every __pow__.  The constructor takes a
coefficient that is already a value of the same ring object as is and
sends anything else through ring.value, so foreign-ring values are
still rejected.  Poly._from_payloads is the trusted constructor behind
the kernels: it takes canonical payloads of the ring unchecked, apart
from stripping trailing zeros, and is for internal use only.
Poly._monic_from_values is the trusted constructor behind the census:
it wraps a tuple of the ring's own values ending in its one as a
MonicPoly, checking nothing, and is for internal use only.
"""

from __future__ import annotations

from .errors import NotInvertibleError, UnsupportedRingError
from .rings import Ring, RingValue, _check_rings, _intern, _power


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        cs = [
            c if isinstance(c, RingValue) and c.ring is ring else ring.value(c)
            for c in coeffs
        ]
        zero = ring._from_int(0)
        while cs and cs[-1].payload == zero:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

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
        p.coeffs = tuple(RingValue(ring, c) for c in cs)
        return p

    @classmethod
    def _monic_from_values(cls, ring: Ring, values: tuple) -> MonicPoly:
        """A monic polynomial from an ascending tuple of canonical values
        of ring whose last is its one, unchecked: no coercion, no
        stripping and no degree or leading-coefficient test."""
        p = object.__new__(cls)
        p.ring = ring
        p.coeffs = values
        m = object.__new__(MonicPoly)
        m.poly = p
        return m

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
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> RingValue:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> RingValue:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def is_monic(self) -> bool:
        return (
            bool(self.coeffs)
            and self.coeffs[-1].payload == self.ring._from_int(1)
        )

    def _check(self, other: Poly):
        _check_rings(self.ring, other.ring)

    def _payloads(self) -> list:
        return [c.payload for c in self.coeffs]

    # arithmetic -----------------------------------------------------
    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        out = _dense_add(self._payloads(), other._payloads(), self.ring._add)
        return Poly._from_payloads(self.ring, out)

    def __neg__(self) -> Poly:
        neg = self.ring._neg
        return Poly._from_payloads(self.ring, [neg(c.payload) for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        ring = self.ring
        a, b = self._payloads(), other._payloads()
        out = _dense_mul(a, b, ring._add, ring._mul, ring._from_int(0))
        return Poly._from_payloads(ring, out)

    def scale(self, c) -> Poly:
        c = self.ring.value(c)
        return Poly(self.ring, [c * a for a in self.coeffs])

    def shift(self, k: int) -> Poly:
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return Poly(self.ring, (self.ring.zero,) * k + self.coeffs)

    def __pow__(self, k: int) -> Poly:
        return _power(self, k, Poly.constant(self.ring, 1))

    def __call__(self, x: RingValue) -> RingValue:
        x = self.ring.value(x)
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.ring is other.ring or self.ring == other.ring
        ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # rendering ------------------------------------------------------
    def render(self, var: str = "X") -> str:
        ring = self.ring
        return _render_dense(
            self.coeffs, var, lambda c: _signed_text(ring, c.payload)
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.ring.name}, {self})"


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


def _render_dense(coeffs, var: str, text) -> str:
    """Descending-degree rendering of ascending coefficients; text(c)
    gives (negative, rendering) of a nonzero coefficient c."""
    return _render_sum(
        (*text(c), "" if i == 0 else var if i == 1 else f"{var}^{i}")
        for i, c in reversed(list(enumerate(coeffs)))
        if not c.is_zero
    )


def _render_sum(terms) -> str:
    """Join (negative, coefficient text, monomial) terms, leading term
    first; "0" when there are none.  A coefficient 1 before a monomial
    is dropped and a single negated coefficient lends its sign to the
    term."""
    parts = []
    for neg, text, monomial in terms:
        if not neg and _bare_negative(text):
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


def _wrap(text: str) -> str:
    """Parenthesize composite coefficient renderings inside a term."""
    if " " in text or "+" in text or "-" in text[1:]:
        return f"({text})"
    return text


def _bare_negative(text: str) -> bool:
    """A single negated term such as -T or -3, not a composite sum."""
    return (
        text.startswith("-")
        and " " not in text
        and "+" not in text
        and "-" not in text[1:]
    )


class MonicPoly:
    """A monic polynomial of degree >= 1, wrapping a Poly."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        if poly.degree is None or poly.degree < 1:
            raise ValueError("monic polynomial must have degree >= 1")
        if not poly.is_monic():
            raise ValueError(f"leading coefficient of {poly} is not one")
        self.poly = poly

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
    def ring(self) -> Ring:
        return self.poly.ring

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def signed_coeffs(self) -> tuple[RingValue, ...]:
        """(c_1..c_n) with F = X^n - c_1 X^(n-1) + ... + (-1)^n c_n."""
        n = self.degree
        out = []
        for i in range(1, n + 1):
            a = self.poly.coeff(n - i)
            out.append(-a if i % 2 else a)
        return tuple(out)

    def __eq__(self, other):
        if isinstance(other, MonicPoly):
            return self.poly == other.poly
        if isinstance(other, Poly):
            return self.poly == other
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"MonicPoly({self.ring.name}, {self})"


def poly_divmod(f: Poly, g: MonicPoly | Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by a monic g; needs no base division."""
    gp = g.poly if isinstance(g, MonicPoly) else g
    f._check(gp)
    if not gp.is_monic():
        raise ValueError("divisor must be monic")
    ring = f.ring
    if len(f.coeffs) <= gp.degree:
        return Poly.zero(ring), f
    add, mul, neg, zero = ring._add, ring._mul, ring._neg, ring._from_int(0)
    quo, rem = _dense_divmod(f._payloads(), gp._payloads(), add, mul, neg, zero)
    return Poly._from_payloads(ring, quo), Poly._from_payloads(ring, rem)


def poly_mod(f: Poly, g: MonicPoly) -> Poly:
    return poly_divmod(f, g)[1]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field (zero when both inputs are zero)."""
    if not f.ring.is_field:
        raise UnsupportedRingError(f"gcd needs a field base, got {f.ring.name}")
    a, b = f, g
    while not b.is_zero:
        if b.degree == 0:
            a, b = b, Poly.zero(f.ring)
            continue
        bm = MonicPoly(b.scale(b.leading.try_inverse()))
        a, b = b, poly_mod(a, bm)
    if a.is_zero:
        return a
    return a.scale(a.leading.try_inverse())


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) over a field with u*f + v*g = d, d monic or zero."""
    if not f.ring.is_field:
        raise UnsupportedRingError(f"gcd needs a field base, got {f.ring.name}")
    ring = f.ring
    r0, r1 = f, g
    u0, u1 = Poly.constant(ring, 1), Poly.zero(ring)
    v0, v1 = Poly.zero(ring), Poly.constant(ring, 1)
    while not r1.is_zero:
        lead_inv = r1.leading.try_inverse()
        rm = MonicPoly(r1.scale(lead_inv)) if r1.degree >= 1 else None
        if rm is None:
            # degree-0 divisor: remainder is zero, quotient is r0/r1
            q = r0.scale(lead_inv)
            r = Poly.zero(ring)
        else:
            q_scaled, r = poly_divmod(r0, rm)
            q = q_scaled.scale(lead_inv)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    c = r0.leading.try_inverse()
    return r0.scale(c), u0.scale(c), v0.scale(c)


class QuotientElem:
    """A reduced residue class modulo a monic polynomial."""

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: MonicPoly, rep: Poly):
        rep = poly_mod(rep, modulus)
        self.modulus = modulus
        self.rep = rep

    def __eq__(self, other):
        if not isinstance(other, QuotientElem):
            return NotImplemented
        return self.modulus == other.modulus and self.rep == other.rep

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def __str__(self):
        return f"{self.rep} mod ({self.modulus})"

    def __repr__(self):
        return f"QuotientElem({self})"


def invert_mod(f: Poly, F: MonicPoly) -> QuotientElem:
    """Inverse of f modulo F over a field, via the extended Euclidean
    algorithm; raises NotInvertibleError when gcd(f, F) != 1."""
    _check_rings(f.ring, F.ring)
    if not f.ring.is_field:
        raise UnsupportedRingError(
            f"invert_mod needs a field base, got {f.ring.name};"
            " use the unit-norm membership test instead"
        )
    d, u, _ = poly_ext_gcd(f, F.poly)
    if d.is_zero or d.degree != 0:
        raise NotInvertibleError(f"gcd({f}, {F}) = {d} is not 1")
    return QuotientElem(F, u)


class PolyRing(Ring):
    """Polynomials over a base ring, used as coefficients (ring towers)."""

    def __new__(cls, base: Ring, var: str = "T"):
        if not var.isidentifier():
            raise ValueError(f"bad variable name {var!r}")
        if var == "X" or _looks_reserved(var):
            raise ValueError(f"variable name {var!r} is reserved")
        return _intern(cls, (base, var), base=base, var=var, is_domain=base.is_domain)

    def __getnewargs__(self):
        return (self.base, self.var)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _from_int(self, k):
        return Poly.constant(self.base, k)

    def _canon(self, payload):
        if isinstance(payload, Poly) and payload.ring == self.base:
            return payload
        return super()._canon(payload)

    def _is_unit(self, a):
        if not self.base.is_domain:
            raise UnsupportedRingError(
                f"unit test in {self.name} needs an integral-domain base"
            )
        return a.degree == 0 and a.coeffs[0].is_unit()

    def _inv(self, a):
        try:
            if not self._is_unit(a):
                return None
        except UnsupportedRingError:
            return None
        c = a.coeffs[0].try_inverse()
        return Poly.constant(self.base, c)

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

    def __eq__(self, other):
        return (
            type(other) is PolyRing
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("PolyRing", self.base, self.var))


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
