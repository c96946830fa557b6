from fractions import Fraction

import pytest

from heckelab.rings import QQ, ZZ, IntegersMod, PrimeField, RationalField

# (ring, modulus or None, name, residue_char, localization prime or None)
RINGS = [
    (ZZ, None, "Z", None, None),
    (QQ, None, "Q", None, None),
    (RationalField(3), None, "Q(loc 3)", None, 3),
    (PrimeField(5), 5, "F5", 5, None),
    (IntegersMod(3, 2), 9, "Z/9", 3, None),
    (IntegersMod(2, 3), 8, "Z/8", 2, None),
]


@pytest.mark.parametrize("ring, modulus, name, residue_char, loc", RINGS,
                         ids=[row[2] for row in RINGS])
def test_ring_operations_match_int_and_fraction_arithmetic(ring, modulus, name, residue_char,
                                                          loc):
    # every operation of the shared base against Python int / Fraction
    # arithmetic, reduced mod l^k by hand
    rational = isinstance(ring, RationalField)
    reduce = (lambda a: a % modulus) if modulus else (Fraction if rational else int)
    ints = range(-10, 11)
    values = [reduce(n) for n in ints]
    if rational:
        values += [Fraction(n, d) for n in (-7, 1, 4) for d in (2, 3, 9)]
    for n in ints:
        assert ring.from_int(n) == reduce(n)
        assert ring.coeff_str(n) == str(reduce(n))
    for a in values:
        assert ring.neg(a) == reduce(-a)
        assert ring.is_zero(a) == (reduce(a) == 0)
        assert ring.coeff_str(a) == str(reduce(a))
        if not rational:
            assert ring.is_integral(a)
        elif loc is None:
            assert ring.is_integral(a) == (a.denominator == 1)
        else:
            assert ring.is_integral(a) == (a.denominator % loc != 0)
        for b in values:
            assert ring.add(a, b) == reduce(a + b)
            assert ring.mul(a, b) == reduce(a * b)
    if modulus:
        assert ring.is_zero(modulus) and ring.coeff_str(modulus + 1) == "1"
    kind = Fraction if rational else int
    assert type(ring.zero) is kind and ring.zero == 0
    assert type(ring.one) is kind and ring.one == 1
    assert type(ring.add(ring.one, ring.one)) is kind
    assert ring.name == str(ring) == name
    assert ring.residue_char == residue_char
