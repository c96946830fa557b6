"""Coefficient rings for Hecke elements: Z, Q, F_l, Z/l^k.

All structure constants are computed over Z and mapped into the chosen
ring by ``from_int``; the rational field optionally designates a prime l
whose localization Z_(l) plays the integral subring in lattice checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .localfield import is_prime


@dataclass(frozen=True)
class IntegerRing:
    """The initial ring Z; coefficients are Python ints."""

    name = "Z"
    residue_char = None

    def from_int(self, n: int) -> int:
        return n

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_integral(self, a) -> bool:
        return True

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coeff_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class RationalField:
    """Q, with an optional designated prime l giving the integral subring.

    With ``localized_at = l`` the integral subring is Z_(l) (denominators
    prime to l); without it the integral subring is Z itself.
    """

    localized_at: int | None = None

    residue_char = None

    def __post_init__(self):
        if self.localized_at is not None and not is_prime(self.localized_at):
            raise ValueError("localization prime must be prime")

    @property
    def name(self) -> str:
        if self.localized_at is None:
            return "Q"
        return f"Q(loc {self.localized_at})"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_integral(self, a) -> bool:
        a = Fraction(a)
        if self.localized_at is None:
            return a.denominator == 1
        return a.denominator % self.localized_at != 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coeff_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class IntegersMod:
    """Z/l^k; coefficients are ints in [0, l^k)."""

    l: int
    k: int = 1

    def __post_init__(self):
        if not is_prime(self.l):
            raise ValueError(f"{self.l} is not prime")
        if self.k < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.l**self.k

    @property
    def name(self) -> str:
        return f"Z/{self.modulus}"

    @property
    def residue_char(self) -> int:
        return self.l

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_zero(self, a) -> bool:
        return a % self.modulus == 0

    def is_integral(self, a) -> bool:
        return True

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coeff_str(self, a) -> str:
        return str(a % self.modulus)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PrimeField(IntegersMod):
    """F_l, the ring Z/l^k at k = 1 under its own name; coefficients are
    ints in [0, l).  Equality compares classes, so F_l != Z/l."""

    k: int = field(default=1, init=False, repr=False)

    @property
    def name(self) -> str:
        return f"F{self.l}"


ZZ = IntegerRing()
QQ = RationalField()


def parse_ring(text: str):
    """Ring from a config string: Z, Q, Q@l, Fl, or Z/l^k."""
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Q@"):
        return RationalField(localized_at=int(text[2:]))
    if text.startswith("F"):
        return PrimeField(int(text[1:]))
    if text.startswith("Z/"):
        body = text[2:]
        if "^" in body:
            l, k = body.split("^")
            return IntegersMod(int(l), int(k))
        n = int(body)
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
