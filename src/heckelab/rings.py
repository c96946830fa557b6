"""Coefficient rings for Hecke elements: Z, Q, F_l, Z/l^k.

All structure constants are computed over Z and mapped into the chosen
ring by ``from_int``; the rational field optionally designates a prime l
whose localization Z_(l) plays the integral subring in lattice checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError
from .localfield import is_prime
from .matgrp import _check_budget, _check_budget_power
from .record import FrozenRecord, _set


def _prime(l: int) -> int:
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    return l


class CoefficientRing:
    """The ring operations, written once through ``from_int``: each ring
    maps an integer, or a sum or product of its elements, to its canonical
    element, and supplies ``name`` and ``residue_char``."""

    __slots__ = ()

    def add(self, a, b):
        return self.from_int(a + b)

    def mul(self, a, b):
        return self.from_int(a * b)

    def neg(self, a):
        return self.from_int(-a)

    def is_zero(self, a) -> bool:
        return self.from_int(a) == 0

    def is_integral(self, a) -> bool:
        return True

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def coeff_str(self, a) -> str:
        return str(self.from_int(a))

    def __str__(self):
        return self.name


class IntegerRing(CoefficientRing, FrozenRecord):
    """The initial ring Z; coefficients are Python ints."""

    __slots__ = ()
    name = "Z"
    residue_char = None

    def from_int(self, n: int) -> int:
        return n


class RationalField(CoefficientRing, FrozenRecord):
    """Q, with an optional designated prime l giving the integral subring.

    With ``localized_at = l`` the integral subring is Z_(l) (denominators
    prime to l); without it the integral subring is Z itself.
    """

    __slots__ = ("localized_at",)
    residue_char = None

    def __init__(self, localized_at: int | None = None):
        if localized_at is not None and not is_prime(localized_at):
            raise ValueError("localization prime must be prime")
        _set(self, "localized_at", localized_at)

    @property
    def name(self) -> str:
        if self.localized_at is None:
            return "Q"
        return f"Q(loc {self.localized_at})"

    def from_int(self, n) -> Fraction:
        return Fraction(n)

    def is_integral(self, a) -> bool:
        a = Fraction(a)
        if self.localized_at is None:
            return a.denominator == 1
        return a.denominator % self.localized_at != 0


class IntegersMod(CoefficientRing, FrozenRecord, fields=("l", "k")):
    """Z/l^k; coefficients are ints in [0, l^k).  The modulus l^k is
    formed once, when the ring is built."""

    __slots__ = ("l", "k", "modulus")

    def __init__(self, l: int, k: int = 1):
        if k < 1:
            raise ValueError("exponent must be >= 1")
        _set(self, "l", _prime(l))
        _set(self, "k", k)
        _set(self, "modulus", l**k)

    @property
    def name(self) -> str:
        return f"Z/{self.modulus}"

    @property
    def residue_char(self) -> int:
        return self.l

    def from_int(self, n: int) -> int:
        return n % self.modulus


class PrimeField(IntegersMod, fields=("l",), compare=("l", "k")):
    """F_l, the ring Z/l^k at k = 1 under its own name; coefficients are
    ints in [0, l).  Equality compares classes, so F_l != Z/l."""

    __slots__ = ()
    k = 1

    def __init__(self, l: int):
        _set(self, "l", _prime(l))
        _set(self, "modulus", l)

    @property
    def name(self) -> str:
        return f"F{self.l}"


ZZ = IntegerRing()
QQ = RationalField()


def parse_ring(text: str, budget: int):
    """Ring from a config string: Z, Q, Q@l, Fl, or Z/l^k.

    Its sizes are charged to the budget before it is built, as a field
    model's are: the isqrt(l) steps of the trial division behind is_prime(l)
    (isqrt(n) to factor a modulus n), and the l^k elements of a finite ring,
    compared by exponent so that a huge one is refused at once.
    """
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Q@"):
        l = int(text[2:])
        _check_budget(math.isqrt(max(l, 0)), budget)
        return RationalField(localized_at=l)
    if text.startswith("F"):
        l = int(text[1:])
        _check_budget(l, budget)  # l >= isqrt(l)
        return PrimeField(l)
    if text.startswith("Z/"):
        body = text[2:]
        if "^" in body:
            l, k = (int(part) for part in body.split("^"))
            _check_budget_power(l, k, budget)  # l^k >= isqrt(l) once k >= 1
            return IntegersMod(l, k)
        n = int(body)
        _check_budget(n, budget)  # n >= isqrt(n)
        if n >= 2:
            # the least divisor > 1 is prime; trial division stops at sqrt(n)
            l = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
            k = 0
            while n % l == 0:
                n //= l
                k += 1
            if n != 1:
                raise ParseError("modulus must be a prime power")
            return IntegersMod(l, k)
    raise ParseError(f"unknown coefficient ring {text!r}")
