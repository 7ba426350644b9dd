"""Rendering goldens: str() of every polynomial container over ZZ, QQ,
Zmod:12 and Poly:ZZ:T, pinned byte for byte.

The coefficients cover a plain 1, negative integers, fractions and tower
elements that render as a single negated term (-T) or as a composite sum
(T + 1, -T - 1), in leading and in later positions, next to the zero and
arity-0 cases.
"""

from fractions import Fraction

import pytest

from symmline.multipoly import MultiPoly
from symmline.poly import Poly, PolyRing
from symmline.rings import QQ, Zmod, ZZ
from symmline.symmetric import SymElem, SymPoly1

TOWER = PolyRing(ZZ, "T")
RINGS = {"ZZ": ZZ, "QQ": QQ, "Zmod:12": Zmod(12), "Poly:ZZ:T": TOWER}


def _coefficients(ring):
    cs = [1, -1, -3]
    if ring is QQ:
        cs += [Fraction(1, 2), Fraction(-1, 2)]
    if ring is TOWER:
        t = TOWER.gen()
        cs += [t, -t, t + 1, -t - 1]
    return [ring.value(c) for c in cs]


def _renderings(ring):
    cs = _coefficients(ring)
    out = {
        "poly zero": Poly.zero(ring),
        "poly all": Poly(ring, cs),
        "multipoly zero": MultiPoly.zero(ring, 2),
        "multipoly all": MultiPoly(ring, 2, {(i, 1): c for i, c in enumerate(cs)}),
        "symelem zero": SymElem.zero(ring, 2),
        "symelem arity 0 zero": SymElem.zero(ring, 0),
        "symelem all": SymElem(ring, 2, {(1, i): c for i, c in enumerate(cs)}),
        "sympoly1 zero": SymPoly1.zero(ring, 2),
        "sympoly1 arity 0 zero": SymPoly1.zero(ring, 0),
    }
    for k, c in enumerate(cs):
        const = SymElem.constant(ring, 2, c)
        e1c = SymElem(ring, 2, {(1, 0): c})
        out[f"poly {k}"] = Poly(ring, [c, c, 0, c])
        out[f"poly lead {k}"] = Poly(ring, [1, c])
        out[f"multipoly {k}"] = MultiPoly(
            ring, 2, {(2, 1): c, (1, 0): c, (0, 0): c}
        )
        out[f"multipoly lead {k}"] = MultiPoly(ring, 2, {(0, 1): 1, (1, 0): c})
        out[f"symelem {k}"] = SymElem(ring, 2, {(2, 1): c, (1, 0): c, (0, 0): c})
        out[f"symelem arity 0 {k}"] = SymElem(ring, 0, {(): c})
        out[f"sympoly1 {k}"] = SymPoly1(ring, 2, [const, e1c, 0, const])
        out[f"sympoly1 composite {k}"] = SymPoly1(
            ring, 2, [e1c + SymElem.one(ring, 2), const, e1c - const]
        )
        out[f"sympoly1 arity 0 {k}"] = SymPoly1(ring, 0, [c, 0, c])
    return {label: str(obj) for label, obj in out.items()}


GOLDEN = {
    "ZZ": {
        "poly zero": "0",
        "poly all": "-3*X^2 - X + 1",
        "multipoly zero": "0",
        "multipoly all": "-3*X1^2*X2 - X1*X2 + X2",
        "symelem zero": "0",
        "symelem arity 0 zero": "0",
        "symelem all": "-3*e1*e2^2 - e1*e2 + e1",
        "sympoly1 zero": "0",
        "sympoly1 arity 0 zero": "0",
        "poly 0": "X^3 + X + 1",
        "poly lead 0": "X + 1",
        "multipoly 0": "X1^2*X2 + X1 + 1",
        "multipoly lead 0": "X1 + X2",
        "symelem 0": "e1^2*e2 + e1 + 1",
        "symelem arity 0 0": "1",
        "sympoly1 0": "X^3 + e1*X + 1",
        "sympoly1 composite 0": "(e1 - 1)*X^2 + X + (e1 + 1)",
        "sympoly1 arity 0 0": "X^2 + 1",
        "poly 1": "-X^3 - X - 1",
        "poly lead 1": "-X + 1",
        "multipoly 1": "-X1^2*X2 - X1 - 1",
        "multipoly lead 1": "-X1 + X2",
        "symelem 1": "-e1^2*e2 - e1 - 1",
        "symelem arity 0 1": "-1",
        "sympoly1 1": "-X^3 - e1*X - 1",
        "sympoly1 composite 1": "(-e1 + 1)*X^2 - X + (-e1 + 1)",
        "sympoly1 arity 0 1": "-X^2 - 1",
        "poly 2": "-3*X^3 - 3*X - 3",
        "poly lead 2": "-3*X + 1",
        "multipoly 2": "-3*X1^2*X2 - 3*X1 - 3",
        "multipoly lead 2": "-3*X1 + X2",
        "symelem 2": "-3*e1^2*e2 - 3*e1 - 3",
        "symelem arity 0 2": "-3",
        "sympoly1 2": "-3*X^3 - 3*e1*X - 3",
        "sympoly1 composite 2": "(-3*e1 + 3)*X^2 - 3*X + (-3*e1 + 1)",
        "sympoly1 arity 0 2": "-3*X^2 - 3",
    },
    "QQ": {
        "poly zero": "0",
        "poly all": "-1/2*X^4 + 1/2*X^3 - 3*X^2 - X + 1",
        "multipoly zero": "0",
        "multipoly all": "-1/2*X1^4*X2 + 1/2*X1^3*X2 - 3*X1^2*X2 - X1*X2 + X2",
        "symelem zero": "0",
        "symelem arity 0 zero": "0",
        "symelem all": "-1/2*e1*e2^4 + 1/2*e1*e2^3 - 3*e1*e2^2 - e1*e2 + e1",
        "sympoly1 zero": "0",
        "sympoly1 arity 0 zero": "0",
        "poly 0": "X^3 + X + 1",
        "poly lead 0": "X + 1",
        "multipoly 0": "X1^2*X2 + X1 + 1",
        "multipoly lead 0": "X1 + X2",
        "symelem 0": "e1^2*e2 + e1 + 1",
        "symelem arity 0 0": "1",
        "sympoly1 0": "X^3 + e1*X + 1",
        "sympoly1 composite 0": "(e1 - 1)*X^2 + X + (e1 + 1)",
        "sympoly1 arity 0 0": "X^2 + 1",
        "poly 1": "-X^3 - X - 1",
        "poly lead 1": "-X + 1",
        "multipoly 1": "-X1^2*X2 - X1 - 1",
        "multipoly lead 1": "-X1 + X2",
        "symelem 1": "-e1^2*e2 - e1 - 1",
        "symelem arity 0 1": "-1",
        "sympoly1 1": "-X^3 - e1*X - 1",
        "sympoly1 composite 1": "(-e1 + 1)*X^2 - X + (-e1 + 1)",
        "sympoly1 arity 0 1": "-X^2 - 1",
        "poly 2": "-3*X^3 - 3*X - 3",
        "poly lead 2": "-3*X + 1",
        "multipoly 2": "-3*X1^2*X2 - 3*X1 - 3",
        "multipoly lead 2": "-3*X1 + X2",
        "symelem 2": "-3*e1^2*e2 - 3*e1 - 3",
        "symelem arity 0 2": "-3",
        "sympoly1 2": "-3*X^3 - 3*e1*X - 3",
        "sympoly1 composite 2": "(-3*e1 + 3)*X^2 - 3*X + (-3*e1 + 1)",
        "sympoly1 arity 0 2": "-3*X^2 - 3",
        "poly 3": "1/2*X^3 + 1/2*X + 1/2",
        "poly lead 3": "1/2*X + 1",
        "multipoly 3": "1/2*X1^2*X2 + 1/2*X1 + 1/2",
        "multipoly lead 3": "1/2*X1 + X2",
        "symelem 3": "1/2*e1^2*e2 + 1/2*e1 + 1/2",
        "symelem arity 0 3": "1/2",
        "sympoly1 3": "1/2*X^3 + 1/2*e1*X + 1/2",
        "sympoly1 composite 3": "(1/2*e1 - 1/2)*X^2 + 1/2*X + (1/2*e1 + 1)",
        "sympoly1 arity 0 3": "1/2*X^2 + 1/2",
        "poly 4": "-1/2*X^3 - 1/2*X - 1/2",
        "poly lead 4": "-1/2*X + 1",
        "multipoly 4": "-1/2*X1^2*X2 - 1/2*X1 - 1/2",
        "multipoly lead 4": "-1/2*X1 + X2",
        "symelem 4": "-1/2*e1^2*e2 - 1/2*e1 - 1/2",
        "symelem arity 0 4": "-1/2",
        "sympoly1 4": "-1/2*X^3 - 1/2*e1*X - 1/2",
        "sympoly1 composite 4": "(-1/2*e1 + 1/2)*X^2 - 1/2*X + (-1/2*e1 + 1)",
        "sympoly1 arity 0 4": "-1/2*X^2 - 1/2",
    },
    "Zmod:12": {
        "poly zero": "0",
        "poly all": "9*X^2 + 11*X + 1",
        "multipoly zero": "0",
        "multipoly all": "9*X1^2*X2 + 11*X1*X2 + X2",
        "symelem zero": "0",
        "symelem arity 0 zero": "0",
        "symelem all": "9*e1*e2^2 + 11*e1*e2 + e1",
        "sympoly1 zero": "0",
        "sympoly1 arity 0 zero": "0",
        "poly 0": "X^3 + X + 1",
        "poly lead 0": "X + 1",
        "multipoly 0": "X1^2*X2 + X1 + 1",
        "multipoly lead 0": "X1 + X2",
        "symelem 0": "e1^2*e2 + e1 + 1",
        "symelem arity 0 0": "1",
        "sympoly1 0": "X^3 + e1*X + 1",
        "sympoly1 composite 0": "(e1 + 11)*X^2 + X + (e1 + 1)",
        "sympoly1 arity 0 0": "X^2 + 1",
        "poly 1": "11*X^3 + 11*X + 11",
        "poly lead 1": "11*X + 1",
        "multipoly 1": "11*X1^2*X2 + 11*X1 + 11",
        "multipoly lead 1": "11*X1 + X2",
        "symelem 1": "11*e1^2*e2 + 11*e1 + 11",
        "symelem arity 0 1": "11",
        "sympoly1 1": "11*X^3 + 11*e1*X + 11",
        "sympoly1 composite 1": "(11*e1 + 1)*X^2 + 11*X + (11*e1 + 1)",
        "sympoly1 arity 0 1": "11*X^2 + 11",
        "poly 2": "9*X^3 + 9*X + 9",
        "poly lead 2": "9*X + 1",
        "multipoly 2": "9*X1^2*X2 + 9*X1 + 9",
        "multipoly lead 2": "9*X1 + X2",
        "symelem 2": "9*e1^2*e2 + 9*e1 + 9",
        "symelem arity 0 2": "9",
        "sympoly1 2": "9*X^3 + 9*e1*X + 9",
        "sympoly1 composite 2": "(9*e1 + 3)*X^2 + 9*X + (9*e1 + 1)",
        "sympoly1 arity 0 2": "9*X^2 + 9",
    },
    "Poly:ZZ:T": {
        "poly zero": "0",
        "poly all": "(-T - 1)*X^6 + (T + 1)*X^5 - T*X^4 + T*X^3 - 3*X^2 - X + 1",
        "multipoly zero": "0",
        "multipoly all": (
            "(-T - 1)*X1^6*X2 + (T + 1)*X1^5*X2 - T*X1^4*X2 + T*X1^3*X2 - 3*X1^2*X2"
            " - X1*X2 + X2"
        ),
        "symelem zero": "0",
        "symelem arity 0 zero": "0",
        "symelem all": (
            "(-T - 1)*e1*e2^6 + (T + 1)*e1*e2^5 - T*e1*e2^4 + T*e1*e2^3 - 3*e1*e2^2"
            " - e1*e2 + e1"
        ),
        "sympoly1 zero": "0",
        "sympoly1 arity 0 zero": "0",
        "poly 0": "X^3 + X + 1",
        "poly lead 0": "X + 1",
        "multipoly 0": "X1^2*X2 + X1 + 1",
        "multipoly lead 0": "X1 + X2",
        "symelem 0": "e1^2*e2 + e1 + 1",
        "symelem arity 0 0": "1",
        "sympoly1 0": "X^3 + e1*X + 1",
        "sympoly1 composite 0": "(e1 - 1)*X^2 + X + (e1 + 1)",
        "sympoly1 arity 0 0": "X^2 + 1",
        "poly 1": "-X^3 - X - 1",
        "poly lead 1": "-X + 1",
        "multipoly 1": "-X1^2*X2 - X1 - 1",
        "multipoly lead 1": "-X1 + X2",
        "symelem 1": "-e1^2*e2 - e1 - 1",
        "symelem arity 0 1": "-1",
        "sympoly1 1": "-X^3 - e1*X - 1",
        "sympoly1 composite 1": "(-e1 + 1)*X^2 - X + (-e1 + 1)",
        "sympoly1 arity 0 1": "-X^2 - 1",
        "poly 2": "-3*X^3 - 3*X - 3",
        "poly lead 2": "-3*X + 1",
        "multipoly 2": "-3*X1^2*X2 - 3*X1 - 3",
        "multipoly lead 2": "-3*X1 + X2",
        "symelem 2": "-3*e1^2*e2 - 3*e1 - 3",
        "symelem arity 0 2": "-3",
        "sympoly1 2": "-3*X^3 - 3*e1*X - 3",
        "sympoly1 composite 2": "(-3*e1 + 3)*X^2 - 3*X + (-3*e1 + 1)",
        "sympoly1 arity 0 2": "-3*X^2 - 3",
        "poly 3": "T*X^3 + T*X + T",
        "poly lead 3": "T*X + 1",
        "multipoly 3": "T*X1^2*X2 + T*X1 + T",
        "multipoly lead 3": "T*X1 + X2",
        "symelem 3": "T*e1^2*e2 + T*e1 + T",
        "symelem arity 0 3": "T",
        "sympoly1 3": "T*X^3 + T*e1*X + T",
        "sympoly1 composite 3": "(T*e1 - T)*X^2 + T*X + (T*e1 + 1)",
        "sympoly1 arity 0 3": "T*X^2 + T",
        "poly 4": "-T*X^3 - T*X - T",
        "poly lead 4": "-T*X + 1",
        "multipoly 4": "-T*X1^2*X2 - T*X1 - T",
        "multipoly lead 4": "-T*X1 + X2",
        "symelem 4": "-T*e1^2*e2 - T*e1 - T",
        "symelem arity 0 4": "-T",
        "sympoly1 4": "-T*X^3 - T*e1*X - T",
        "sympoly1 composite 4": "(-T*e1 + T)*X^2 - T*X + (-T*e1 + 1)",
        "sympoly1 arity 0 4": "-T*X^2 - T",
        "poly 5": "(T + 1)*X^3 + (T + 1)*X + (T + 1)",
        "poly lead 5": "(T + 1)*X + 1",
        "multipoly 5": "(T + 1)*X1^2*X2 + (T + 1)*X1 + (T + 1)",
        "multipoly lead 5": "(T + 1)*X1 + X2",
        "symelem 5": "(T + 1)*e1^2*e2 + (T + 1)*e1 + (T + 1)",
        "symelem arity 0 5": "T + 1",
        "sympoly1 5": "((T + 1))*X^3 + ((T + 1)*e1)*X + ((T + 1))",
        "sympoly1 composite 5": (
            "((T + 1)*e1 + (-T - 1))*X^2 + ((T + 1))*X + ((T + 1)*e1 + 1)"
        ),
        "sympoly1 arity 0 5": "(T + 1)*X^2 + (T + 1)",
        "poly 6": "(-T - 1)*X^3 + (-T - 1)*X + (-T - 1)",
        "poly lead 6": "(-T - 1)*X + 1",
        "multipoly 6": "(-T - 1)*X1^2*X2 + (-T - 1)*X1 + (-T - 1)",
        "multipoly lead 6": "(-T - 1)*X1 + X2",
        "symelem 6": "(-T - 1)*e1^2*e2 + (-T - 1)*e1 + (-T - 1)",
        "symelem arity 0 6": "-T - 1",
        "sympoly1 6": "((-T - 1))*X^3 + ((-T - 1)*e1)*X + ((-T - 1))",
        "sympoly1 composite 6": (
            "((-T - 1)*e1 + (T + 1))*X^2 + ((-T - 1))*X + ((-T - 1)*e1 + 1)"
        ),
        "sympoly1 arity 0 6": "(-T - 1)*X^2 + (-T - 1)",
    },
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_rendering_goldens(name):
    assert _renderings(RINGS[name]) == GOLDEN[name]
