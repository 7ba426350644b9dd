import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from symmline.errors import RingMismatchError, UnsupportedRingError
from symmline.poly import Poly, PolyRing
from symmline import rings
from symmline.rings import (
    GF,
    QQ,
    IntegerRing,
    PrimeField,
    RationalRing,
    Ring,
    Zmod,
    ZmodRing,
    ZZ,
    is_prime,
)
from symmline.sampling import random_value
from symmline.selftest import run_check
from symmline.symmetric import SymRing

ALL_RINGS = [ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T"), PolyRing(GF(5), "T")]


def test_mod6_addition():
    r = Zmod(6)
    assert r.value(4) + r.value(5) == r.value(3)


def test_zero_absorbs():
    rng = Random(1)
    for _ in range(20):
        x = random_value(ZZ, rng)
        assert ZZ.zero * x == ZZ.zero


def test_rational_sum_cross_checked():
    # 1/2 + 1/3 against integer arithmetic on numerators: (1*3 + 1*2) / 6
    a = QQ.value(Fraction(1, 2))
    b = QQ.value(Fraction(1, 3))
    num = 1 * 3 + 1 * 2
    den = 6
    assert a + b == QQ.value(Fraction(num, den))
    assert (a + b).payload == Fraction(5, 6)


def test_canonical_forms():
    assert Zmod(7).value(-1).payload == 6
    assert Zmod(12).value(25).payload == 1
    assert QQ.value(Fraction(2, -4)).payload == Fraction(-1, 2)
    tower = PolyRing(ZZ, "T")
    v = tower.value(Poly(ZZ, [1, 0, 0]))
    assert v.payload.coeffs == (ZZ.one,)


def test_unit_integers():
    assert ZZ.value(-1).is_unit()
    assert ZZ.value(1).is_unit()
    assert not ZZ.value(2).is_unit()
    assert not ZZ.zero.is_unit()


def test_units_mod12_exhaustive_search():
    # oracle: a is a unit iff some b has a*b = 1
    r = Zmod(12)
    for a in range(12):
        found = any((a * b) % 12 == 1 for b in range(12))
        assert r.value(a).is_unit() == found
    assert {a for a in range(12) if r.value(a).is_unit()} == {1, 5, 7, 11}


def test_unit_prime_field_zero():
    assert not GF(7).zero.is_unit()
    assert all(GF(7).value(a).is_unit() for a in range(1, 7))


def test_unit_tower_domain():
    tower = PolyRing(ZZ, "T")
    assert tower.value(-1).is_unit()
    assert not tower.gen().is_unit()
    assert not tower.value(2).is_unit()
    over_field = PolyRing(GF(5), "T")
    assert over_field.value(3).is_unit()


def test_unit_tower_composite_base_rejected():
    tower = PolyRing(Zmod(12), "T")
    with pytest.raises(UnsupportedRingError):
        tower.value(5).is_unit()


def test_ring_construction_validation():
    with pytest.raises(ValueError):
        Zmod(1)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        PolyRing(ZZ, "X")
    with pytest.raises(ValueError):
        PolyRing(ZZ, "e2")


def test_mixed_ring_operands_raise():
    with pytest.raises(RingMismatchError):
        ZZ.value(1) + Zmod(5).value(1)
    with pytest.raises(RingMismatchError):
        GF(5).value(1) * Zmod(5).value(1)  # distinct kinds on purpose


def test_ring_axioms_sampled():
    # 40 triples over each of six rings
    run_check("ring-axioms", 2, seed="test_ring_axioms_sampled")


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(2, 100):
        assert is_prime(n) == all(n % d for d in range(2, n))
    assert all(is_prime(p) for p in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**32 + 1)


def test_prime_field_tests_its_modulus_once(monkeypatch):
    # PrimeField checks primality and is a domain by class, so the
    # ZmodRing constructor does not test the modulus again
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(rings, "is_prime", counting)
    field = GF(1000003)
    assert calls == [1000003]
    assert field.is_domain and field.is_field
    calls.clear()
    assert Zmod(1000003).is_domain and not Zmod(1000004).is_domain
    assert calls == [1000003, 1000004]
    for bad in (4, 3.0, True):
        with pytest.raises(ValueError):
            GF(bad)


def test_value_powers_and_hash():
    v = Zmod(12).value(5)
    assert v**0 == Zmod(12).one
    assert v**2 == Zmod(12).value(1)
    assert hash(Zmod(12).value(17)) == hash(v)
    assert str(GF(5).value(7)) == "2"


def test_value_hash_agrees_with_eq():
    assert len({ZZ.value(5), 5}) == 1
    assert len({QQ.value(5), 5}) == 1
    assert hash(QQ.value(Fraction(1, 2))) == hash(Fraction(1, 2))
    for ring in (ZZ, QQ, Zmod(12), GF(7), PolyRing(ZZ, "T")):
        for k in (-13, -1, 0, 1, 5, 17):
            a, b = ring.value(k), ring.value(k)
            assert a == b and hash(a) == hash(b)
    assert hash(Zmod(12).value(5)) == hash(Zmod(12).value(17))
    t = PolyRing(ZZ, "T").gen()
    assert hash(t * t + 1) == hash(1 + t * t)


def test_ring_specs_are_interned():
    assert Zmod(12) is Zmod(12)
    assert Zmod(12) is ZmodRing(12)
    assert GF(7) is PrimeField(7)
    assert IntegerRing() is ZZ
    assert RationalRing() is QQ
    assert PolyRing(ZZ, "T") is PolyRing(ZZ, "T")
    assert PolyRing(GF(5), "T") is PolyRing(PrimeField(5), "T")
    assert SymRing(ZZ, 2) is SymRing(ZZ, 2)
    assert SymRing(ZZ, 2) != SymRing(ZZ, 3)
    assert SymRing(ZZ, 2) != SymRing(QQ, 2)
    assert GF(7) != Zmod(7)
    assert GF(7) is not Zmod(7)
    assert PolyRing(ZZ, "T") is not PolyRing(ZZ, "S")
    for ring in (
        Zmod(12), GF(7), PolyRing(GF(5), "T"), SymRing(ZZ, 2),
        PolyRing(ZZ, "T"), PolyRing(QQ, "S"), ZZ, QQ, IntegerRing(), RationalRing(),
    ):
        state = dict(vars(ring))
        assert pickle.loads(pickle.dumps(ring)) is ring
        assert copy.deepcopy(ring) is ring
        # a round trip must not overwrite the live ring's attributes
        assert all(vars(ring)[k] is v for k, v in state.items()), ring
    assert PolyRing(ZZ, "T").base is ZZ
    assert PolyRing(QQ, "S").base is QQ


def test_interned_ring_checks_still_compare():
    with pytest.raises(RingMismatchError):
        Zmod(12).value(Zmod(6).one)
    with pytest.raises(RingMismatchError):
        Zmod(12).one + Zmod(6).one
    with pytest.raises(RingMismatchError):
        GF(7).value(Zmod(7).one)
    other_zz = IntegerRing()
    assert other_zz is ZZ
    assert ZZ.value(other_zz.value(3)) == ZZ.value(3)
    assert ZZ.value(2) + other_zz.value(3) == ZZ.value(5)


def test_rejected_ring_specs_are_not_cached():
    cached = set(rings._INTERNED.keys())
    with pytest.raises(ValueError):
        ZmodRing(1)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PolyRing(ZZ, "X")
    assert (ZmodRing, (1,)) not in rings._INTERNED
    assert (PrimeField, (4,)) not in rings._INTERNED
    assert (PolyRing, (ZZ, "X")) not in rings._INTERNED
    assert set(rings._INTERNED.keys()) <= cached


def test_ring_equality_is_identity_only():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    ring_classes = list(subclasses(Ring))
    assert {IntegerRing, RationalRing, ZmodRing, PrimeField, PolyRing, SymRing} <= set(
        ring_classes
    )
    for cls in ring_classes:
        own = {"__eq__", "__hash__", "__reduce__"} & set(vars(cls))
        assert not own, (cls, own)
    assert {"__eq__", "__hash__", "__ne__", "__reduce__"} & set(vars(Ring)) == {
        "__ne__", "__reduce__",
    }
    assert ZZ != QQ and not ZZ != IntegerRing()
