"""Ring homomorphisms between the supported rings.

The rules form a closed list rather than arbitrary callables so the
homomorphism laws stay testable: identity, reduction of integers modulo
m, reduction Zmod(m) -> Zmod(d) for d dividing m, and evaluation of the
top tower variable at a base-ring point.  Every rule fixes the image of
integers, so each is an algebra map over the initial ring.
"""

from __future__ import annotations

from .errors import RingMismatchError
from .poly import MonicPoly, Poly, PolyRing
from .rings import Ring, RingValue, ZmodRing, _check_rings


class RingHom:
    __slots__ = ("source", "target", "rule", "point")

    def __init__(self, source: Ring, target: Ring, rule: str, point=None):
        self.source = source
        self.target = target
        self.rule = rule
        self.point = point

    # constructors ---------------------------------------------------
    @classmethod
    def identity(cls, ring: Ring) -> RingHom:
        return cls(ring, ring, "identity")

    @classmethod
    def int_reduce(cls, target: ZmodRing) -> RingHom:
        """ZZ -> Zmod(m) or ZZ -> GF(p)."""
        from .rings import ZZ

        if not isinstance(target, ZmodRing):
            raise ValueError(f"int_reduce target must be modular, got {target.name}")
        return cls(ZZ, target, "int-reduce")

    @classmethod
    def mod_reduce(cls, source: ZmodRing, target: ZmodRing) -> RingHom:
        """Zmod(m) -> Zmod(d) for d | m."""
        if not isinstance(source, ZmodRing) or not isinstance(target, ZmodRing):
            raise ValueError("mod_reduce needs modular source and target")
        if source.modulus % target.modulus != 0:
            raise ValueError(
                f"{target.modulus} does not divide {source.modulus}"
            )
        return cls(source, target, "mod-reduce")

    @classmethod
    def eval_tower(cls, source: PolyRing, point) -> RingHom:
        """Poly(base, T) -> base sending T to the given base point."""
        if not isinstance(source, PolyRing):
            raise ValueError(f"eval_tower needs a polynomial ring, got {source.name}")
        point = source.base.value(point)
        return cls(source, source.base, "eval", point)

    # application ----------------------------------------------------
    def __call__(self, v: RingValue) -> RingValue:
        if not isinstance(v, RingValue):
            raise RingMismatchError(
                f"value not in the source ring {self.source.name}"
            )
        _check_rings(v.ring, self.source)
        if self.rule == "identity":
            return v
        if self.rule in ("int-reduce", "mod-reduce"):
            return self.target.value(v.payload % self.target.modulus)
        if self.rule == "eval":
            return v.payload(self.point)
        raise ValueError(f"unknown rule {self.rule!r}")

    def map_poly(self, f: Poly) -> Poly:
        _check_rings(f.ring, self.source)
        return Poly(self.target, [self(c) for c in f.coeffs])

    def map_monic(self, f: MonicPoly) -> MonicPoly:
        return MonicPoly(self.map_poly(f))

    def describe(self) -> str:
        if self.rule == "eval":
            return f"{self.source.name} -> {self.target.name}, {self.source.var} = {self.point}"
        return f"{self.source.name} -> {self.target.name} ({self.rule})"

    def __repr__(self):
        return f"RingHom({self.describe()})"
