"""Exact arithmetic in dense models of non-Archimedean local fields.

Two models are provided:

* ``mixed`` characteristic: F = Q_p(pi) with the Eisenstein relation
  pi^e = p.  Elements are polynomials of degree < e in pi with rational
  coefficients, multiplied modulo pi^e - p.  The valuation of
  sum a_i pi^i is min_i (e*v_p(a_i) + i), normalized so v(pi) = 1.

* ``equal`` characteristic: F = F_q((t)) modelled densely by the rational
  function field F_q(t), q = p^f.  Elements are reduced fractions of
  polynomials; the valuation is the order of vanishing at t = 0 of the
  numerator minus that of the denominator.

Both models expose the valuation ring o = {v >= 0}, finite residue rings
o/pi^N, a canonical (deterministic, coordinate-wise) lift o/pi^N -> o, and
``ClosePair`` which realizes a ring isomorphism o_F/pi^N -> o_F'/pi'^N
sending the uniformizer class to the uniformizer class.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    IncompatiblePair,
    InvariantViolated,
    MixedRings,
    NegativeValuation,
    ParseError,
    PrecisionExceeded,
    Singular,
)
from .record import FrozenRecord, _set

INF = float("inf")

DEFAULT_BUDGET = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise InvariantViolated("p-adic valuation of the integer 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# finite fields F_{p^f}, elements encoded as integers in [0, p^f)
# ---------------------------------------------------------------------------


class GF:
    """The field F_{p^f}.

    Elements are integers in [0, q) whose base-p digits are the coefficients
    of a residue polynomial modulo a fixed irreducible monic polynomial of
    degree f (the lexicographically smallest one, so the encoding is
    deterministic).  For f = 1 this is plain arithmetic mod p; for f > 1
    products and inverses are reads of the log and antilog tables of
    ``_power_tables``, built once per field.
    """

    def __init__(self, p: int, f: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("f must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = self._find_irreducible() if f > 1 else (0, 1)
        self._inv = {}
        if f > 1:
            self._exp, self._log = self._power_tables()

    def _digits(self, a: int):
        p, f = self.p, self.f
        return tuple((a // p**i) % p for i in range(f))

    def _encode(self, digits) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _find_irreducible(self):
        """The first monic irreducible degree-f polynomial over F_p, low
        coefficients in ``itertools.product`` order, by Rabin's test; x
        divides those with a zero constant term, which are not tested."""
        p, f = self.p, self.f
        for tail in itertools.product(range(p), repeat=f):
            if tail[0] and _is_irreducible(tail + (1,), p):
                return tail + (1,)
        raise InvariantViolated(f"no irreducible polynomial of degree {f} over F_{p}")

    def _power_tables(self):
        """exp[i] = g^i for 0 <= i < 2(q - 1) and log[g^i] = i (log[0] is
        unused), for g the least primitive element in the integer encoding.

        F_q^* is cyclic of order q - 1, so g is primitive iff g^((q-1)/r)
        != 1 for every prime r dividing q - 1; the constants lie in F_p^*,
        of order below q - 1, so the search starts at x.  ``times`` is
        Horner's rule on the digits of its second factor, a x being a shift
        with x^f = -(m_0 + m_1 x + .. + m_(f-1) x^(f-1)) for the modulus m.
        The q - 2 products by g that list the powers are each two reads of
        tables of about sqrt(q) products by g: for c = hi x^h + lo, c g =
        (hi x^h) g + lo g, added digit by digit.  The tables hold 3q - 2
        integers; wherever a config names a field, q is charged to the
        budget first (``cli.RunConfig._model``)."""
        p, f, q = self.p, self.f, self.q
        low = [(-c) % p for c in self.modulus[:f]]

        def times(a, b):
            acc = [0] * f
            for d in reversed(b):
                top = acc[-1]
                acc = [(x + top * c + d * y) % p for x, c, y in zip([0] + acc[:-1], low, a)]
            return acc

        def power(a, e):
            out = [1] + [0] * (f - 1)
            while e:
                if e & 1:
                    out = times(out, a)
                a, e = times(a, a), e >> 1
            return out

        n, r, primes = q - 1, 2, []
        while r * r <= n:
            if n % r == 0:
                primes.append(r)
                while n % r == 0:
                    n //= r
            r += 1
        primes += [n] if n > 1 else []
        one = [1] + [0] * (f - 1)
        g = next(g for g in range(p, q)
                 if all(power(self._digits(g), (q - 1) // r) != one for r in primes))
        g_digits, split = self._digits(g), p ** (f // 2)  # split = x^h encoded
        by_low = [times(self._digits(lo), g_digits) for lo in range(split)]
        by_high = [times(self._digits(hi * split), g_digits) for hi in range(q // split)]
        weights = [p**i for i in range(f)]
        exp, code = [1], 1
        for _ in range(q - 2):
            hi, lo = divmod(code, split)
            code = sum((u + v) % p * w for u, v, w in zip(by_high[hi], by_low[lo], weights))
            exp.append(code)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        return array("l", exp + exp), array("l", log)

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.f == 1:
            return (a + b) % p
        da, db = self._digits(a), self._digits(b)
        return self._encode(tuple((x + y) % p for x, y in zip(da, db)))

    def neg(self, a: int) -> int:
        p = self.p
        if self.f == 1:
            return (-a) % p
        return self._encode(tuple((-x) % p for x in self._digits(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """a^-1: pow(a, -1, p) for f = 1, memoized, as ``ResidueRing.reduce``
        asks for the same inverses (inv(1) above all) again and again;
        otherwise g^(q - 1 - log a), one table read."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        if self.f > 1:
            return self._exp[self.q - 1 - self._log[a]]
        if a not in self._inv:
            self._inv[a] = pow(a, -1, self.p)
        return self._inv[a]

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"


def _is_irreducible(poly, p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980): monic P of degree f over F_p
    is irreducible iff x^(p^f) = x mod P and gcd(x^(p^(f/r)) - x, P) = 1 for
    each prime r | f.  As (sum a_i x^i)^p = sum a_i x^(i p) over F_p, each
    x^(p^i) mod P is the one before with its exponents times p, reduced."""
    k, f, frobenius = gf(p), len(poly) - 1, [(0, 1)]  # frobenius[i] = x^(p^i) mod P
    for _ in range(f):
        spread = [0] * (p * len(frobenius[-1]))
        spread[::p] = frobenius[-1]
        frobenius.append(poly_divmod(k, spread, poly)[1])
    return frobenius[f] == (0, 1) and all(
        poly_gcd(k, poly_add(k, frobenius[f // r], (0, p - 1)), poly) == (1,)
        for r in range(2, f + 1) if f % r == 0 and is_prime(r)
    )


@lru_cache(maxsize=None)
def gf(p: int, f: int = 1) -> GF:
    """The shared F_(p^f).  The cache is process-global and unbounded: each
    (p, f) asked for keeps one GF, with its irreducible modulus and its
    memo of inverses (at most q - 1 entries), for the life of the process."""
    return GF(p, f)


# ---------------------------------------------------------------------------
# polynomials over GF(q): low-first tuples of encoded elements, no top zeros
# ---------------------------------------------------------------------------


def poly_trim(c):
    c = tuple(c)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_add(k: GF, a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return poly_trim(k.add(x, y) for x, y in zip(a, b))


def poly_neg(k: GF, a):
    return tuple(k.neg(x) for x in a)


def poly_mul(k: GF, a, b, N=None):
    """a b, or a b mod t^N when N is given: no product of coefficients at
    t^N or above is formed, and none with a zero factor."""
    size = len(a) + len(b) - 1
    if N is not None:
        size = min(size, N)
    if size <= 0:
        return ()
    out = [0] * size
    add, mul = k.add, k.mul
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return poly_trim(out)

def poly_divmod(k: GF, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = k.inv(b[-1])
    while len(a) >= len(b) and poly_trim(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coeff = k.mul(a[-1], inv_lead)
        quot[shift] = coeff
        for i, c in enumerate(b):
            a[shift + i] = k.sub(a[shift + i], k.mul(coeff, c))
        a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(k: GF, a, b):
    a, b = poly_trim(a), poly_trim(b)
    if len(a) == 1 or len(b) == 1:
        return (1,) if a or b else ()
    while b:
        a, b = b, poly_divmod(k, a, b)[1]
    if a:
        inv = k.inv(a[-1])
        a = tuple(k.mul(c, inv) for c in a)  # monic normalization
    return a


def poly_ord0(a):
    """Order of vanishing at t = 0; INF for the zero polynomial."""
    if not a:
        return INF
    i = 0
    while a[i] == 0:
        i += 1
    return i


# ---------------------------------------------------------------------------
# field models
# ---------------------------------------------------------------------------

MIXED = "MixedChar"
EQUAL = "EqualChar"


class FieldModel(FrozenRecord):
    """A dense model of a local field: see the module docstring.

    kind is MIXED (F = Q_p(pi), pi^e = p, residue degree fixed at 1) or
    EQUAL (F = F_{p^f}(t) inside F_{p^f}((t))).
    """

    __slots__ = ("kind", "p", "e", "f")

    def __init__(self, kind: str, p: int, e: int = 1, f: int = 1):
        if kind not in (MIXED, EQUAL):
            raise ValueError(f"unknown model kind {kind!r}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or f < 1:
            raise ValueError("e and f must be >= 1")
        if kind == MIXED and f != 1:
            raise ValueError("mixed-characteristic model has residue degree 1")
        if kind == EQUAL and e != 1:
            raise ValueError("equal-characteristic model stores e = 1")
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "e", e)
        _set(self, "f", f)

    @staticmethod
    def mixed(p: int, e: int = 1) -> "FieldModel":
        return FieldModel(MIXED, p, e=e)

    @staticmethod
    def equal(p: int, f: int = 1) -> "FieldModel":
        return FieldModel(EQUAL, p, f=f)

    @property
    def q(self) -> int:
        """Residue field size."""
        return self.p**self.f

    @property
    def gf(self) -> GF:
        return gf(self.p, self.f)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        if self.kind == MIXED:
            return FieldElement(self, (0,) * self.e)
        return FieldElement(self, ((), (1,)))

    def one(self) -> "FieldElement":
        """One element shared by every caller: elements are immutable."""
        return _pi_pow(self, 0)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == MIXED:
            return FieldElement(self, (n,) + (0,) * (self.e - 1))
        return FieldElement(self, (poly_trim((n % self.p,)), (1,)))

    def from_fraction(self, x: Fraction) -> "FieldElement":
        x = Fraction(x)
        if self.kind == MIXED:
            nums = (x.numerator,) + (0,) * (self.e - 1)
            return FieldElement(self, _mixed_normalize(nums, x.denominator), _canonical=True)
        # equal characteristic: only p-integral rationals make sense
        if x.denominator % self.p == 0:
            raise MixedRings(f"{x} has no image in {self}: {self.p} divides its denominator")
        num = x.numerator % self.p
        den_inv = pow(x.denominator % self.p, -1, self.p)
        return self.from_int(num * den_inv)

    def uniformizer(self) -> "FieldElement":
        return _pi_pow(self, 1)

    def pi_pow(self, k: int) -> "FieldElement":
        """pi^k for any integer k, exact (cached)."""
        return _pi_pow(self, k)

    def residue_ring(self, N: int) -> "ResidueRing":
        return residue_ring(self, N)

    def parse(self, text: str, budget: int = DEFAULT_BUDGET) -> "FieldElement":
        return _parse_element(self, text, budget)

    def __str__(self):
        if self.kind == MIXED:
            return f"Q_{self.p}(pi), pi^{self.e} = {self.p}"
        return f"F_{self.q}((t))"


class FieldElement:
    """An exact element of a field model; immutable and hashable.

    Three slots and no wrapper: ``model``, ``num`` and ``den``.  Mixed
    model: ``num`` is the e-tuple of integer numerators of the rational
    coordinates of 1, pi, ..., pi^(e-1) over the one positive common
    denominator ``den``, normalized by one ``math.gcd(den, *num)`` so that
    the joint gcd is 1 and the pair is canonical (one gcd per operation
    instead of one per coordinate keeps Fraction overhead off the hot
    paths).  Equal model: ``num`` and ``den`` are a reduced fraction of
    low-first coefficient tuples over GF(q), den monic.  ``data`` is the pair (num, den), formed on demand;
    equality compares the slots and the hash is hash((model, data)).
    """

    __slots__ = ("model", "num", "den")

    def __init__(self, model: FieldModel, data, _canonical=False):
        self.model = model
        if model.kind == MIXED:
            if _canonical:
                self.num, self.den = data
                return
            items = tuple(data)
            if len(items) != model.e:
                raise ParseError(f"{model} needs {model.e} coordinates, got {len(items)}")
            if all(isinstance(c, int) for c in items):
                self.num, self.den = _mixed_normalize(items, 1)
            else:
                fracs = [Fraction(c) for c in items]
                den = math.lcm(*(f.denominator for f in fracs))
                nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
                self.num, self.den = _mixed_normalize(nums, den)
        else:
            num, den = data
            if not _canonical:
                num, den = _ratfun_reduce(model.gf, poly_trim(num), poly_trim(den))
            self.num, self.den = num, den

    @property
    def data(self):
        """The canonical pair (num, den); read-only."""
        return self.num, self.den

    @property
    def coords(self):
        """Mixed model only: the rational coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.model != self.model:
                raise MixedRings(f"elements of {self.model} and {other.model}")
            return other
        if isinstance(other, int):
            return self.model.from_int(other)
        if isinstance(other, Fraction):
            return self.model.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.model
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if m.kind == MIXED:
            if d1 == d2:
                return FieldElement(
                    m, _mixed_normalize(tuple(a + b for a, b in zip(n1, n2)), d1),
                    _canonical=True,
                )
            g = math.gcd(d1, d2)
            den = d1 // g * d2
            m1, m2 = den // d1, den // d2
            nums = tuple(a * m1 + b * m2 for a, b in zip(n1, n2))
            return FieldElement(m, _mixed_normalize(nums, den), _canonical=True)
        k = m.gf
        if d1 == (1,) and d2 == (1,):
            return FieldElement(m, (poly_add(k, n1, n2), (1,)), _canonical=True)
        num = poly_add(k, poly_mul(k, n1, d2), poly_mul(k, n2, d1))
        return FieldElement(m, (num, poly_mul(k, d1, d2)))

    __radd__ = __add__

    def __neg__(self):
        m = self.model
        if m.kind == MIXED:
            return FieldElement(m, (tuple(-a for a in self.num), self.den), _canonical=True)
        return FieldElement(m, (poly_neg(m.gf, self.num), self.den), _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.model
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if m.kind == MIXED:
            prod = _mixed_product(n1, n2, m.e, m.p)
            return FieldElement(m, _mixed_normalize(prod, d1 * d2), _canonical=True)
        k = m.gf
        if d1 == (1,) and d2 == (1,):
            return FieldElement(m, (poly_mul(k, n1, n2), (1,)), _canonical=True)
        return FieldElement(m, (poly_mul(k, n1, n2), poly_mul(k, d1, d2)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """The exact inverse.  Equal model: swap numerator and denominator.

        Mixed model: a rational n/d (every coordinate but the first zero;
        this covers every element of Q_p at e = 1, the determinants +-1 and
        1 of the Cartan witnesses and of SL, and the lifts of o/pi) inverts
        in closed form to d/n, whose data ((sign(n) d, 0, ..., 0), |n|) is
        already canonical since gcd(n, d) = 1.

        Every other element x = a/den, a = sum n_i pi^i, by one integer
        solve.  Let M be the e x e integer matrix M[i][j] = n_(i-j) for
        i >= j and p n_(i-j+e) otherwise: its column j holds the
        coordinates of a pi^j, folded by pi^e = p, so M is the matrix of
        multiplication by a in the basis 1, pi, ..., pi^(e-1).  Why this
        gives the inverse, and its canonical data:

        * M is invertible.  pi^e - p is Eisenstein at p, hence irreducible
          over Q, so Q(pi) = Q[x]/(x^e - p) is a field; a != 0 there, so
          multiplication by a is injective and det M != 0.
        * M y = e_0 says a * (sum y_j pi^j) = 1, so y holds the coordinates
          of a^-1, and x^-1 = den a^-1 = den y.
        * ``bareiss_solve`` returns y = X/D with integer X and D != 0; all
          of its divisions are exact (see there), so no Fraction is formed.
        * _mixed_normalize(den X, D) is the unique pair with a positive
          denominator and joint gcd one, hence the canonical ``data`` of
          x^-1, whatever route computed it.
        """
        m = self.model
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num, den = self.num, self.den
        if m.kind == EQUAL:
            return FieldElement(m, (den, num))
        if not any(num[1:]):
            n = num[0]
            return FieldElement(
                m, ((den if n > 0 else -den,) + num[1:], abs(n)), _canonical=True
            )
        e, p = m.e, m.p
        mat = [[num[i - j] if i >= j else p * num[i - j + e] for j in range(e)]
               for i in range(e)]
        X, D = bareiss_solve(mat, [[1]] + [[0]] * (e - 1))
        inv_num = tuple(den * row[0] for row in X)
        return FieldElement(m, _mixed_normalize(inv_num, D), _canonical=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.model.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- valuation and predicates ---------------------------------------------

    def val(self):
        """The normalized valuation, in Z for nonzero elements, INF for 0."""
        m = self.model
        if m.kind == MIXED:
            den = self.den
            vden = _vp_int(den, m.p) if den % m.p == 0 else 0
            best = INF
            for i, a in enumerate(self.num):
                if a:
                    v = m.e * (_vp_int(a, m.p) - vden) + i
                    if v < best:
                        best = v
            return best
        num = self.num
        return poly_ord0(num) - poly_ord0(self.den) if num else INF

    def is_zero(self) -> bool:
        if self.model.kind == MIXED:
            return not any(self.num)
        return not self.num

    def is_integral(self) -> bool:
        return self.val() >= 0

    def is_unit(self) -> bool:
        return self.val() == 0

    def residue(self, N: int) -> "ResidueElement":
        return self.model.residue_ring(N).reduce(self)

    # -- structural ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.model == other.model and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.model, (self.num, self.den)))

    def __repr__(self):
        return f"<{self} over {self.model}>"

    def __str__(self):
        m = self.model
        if m.kind == MIXED:
            return _format_terms(self.coords, "pi")
        num, den = self.num, self.den
        num_s = _format_terms(num, "t")
        if den == (1,):
            return num_s
        return f"({num_s})/({_format_terms(den, 't')})"


def _mixed_product(n1, n2, e: int, p: int):
    """The e integer coordinates of (sum n1_i pi^i)(sum n2_j pi^j) folded
    by pi^e = p: the mixed model's one product kernel."""
    prod = [0] * (2 * e - 1)
    for i, a in enumerate(n1):
        if a:
            for j, b in enumerate(n2):
                prod[i + j] += a * b
    # fold pi^(e+j) = p * pi^j
    for i in range(2 * e - 2, e - 1, -1):
        prod[i - e] += prod[i] * p
    return tuple(prod[:e])


def mixed_dot(model: "FieldModel", xs, ys) -> "FieldElement":
    """Fused inner product sum x_i y_i in the mixed model.

    Accumulates integer numerators over a running common denominator and
    normalizes once, instead of once per term; this is the hot loop of all
    matrix products.
    """
    e, p = model.e, model.p
    acc = [0] * e
    den_acc = 1
    for x, y in zip(xs, ys):
        prod = _mixed_product(x.num, y.num, e, p)
        d = x.den * y.den
        if d == den_acc:
            for i in range(e):
                acc[i] += prod[i]
        else:
            g = math.gcd(den_acc, d)
            m_old, m_new = d // g, den_acc // g
            for i in range(e):
                acc[i] = acc[i] * m_old + prod[i] * m_new
            den_acc = den_acc * m_old
    return FieldElement(model, _mixed_normalize(tuple(acc), den_acc), _canonical=True)


def _mixed_normalize(nums, den: int):
    """Canonical (nums, den): positive denominator, joint gcd one."""
    if den < 0:
        den = -den
        nums = tuple(-x for x in nums)
    g = math.gcd(den, *nums)
    if g > 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


@lru_cache(maxsize=None)
def _pi_pow(model: "FieldModel", k: int) -> "FieldElement":
    """pi^k in closed form.  Mixed: pi^k = p^a pi^r for k = a e + r, 0 <= r
    < e, a coordinate p^a at pi^r (denominator p^-a when a < 0).  Equal:
    t^k, a numerator t^k or a denominator t^-k.  The cache is
    process-global and unbounded: it keeps every (model, k) asked for,
    with the model, for the life of the process."""
    if model.kind == MIXED:
        a, r = divmod(k, model.e)
        nums = [0] * model.e
        nums[r] = model.p ** max(a, 0)
        return FieldElement(model, (tuple(nums), model.p ** max(-a, 0)), _canonical=True)
    mono = (0,) * abs(k) + (1,)
    return FieldElement(model, (mono, (1,)) if k >= 0 else ((1,), mono), _canonical=True)


def _ratfun_reduce(k: GF, num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    if den == (1,):
        return num, den
    g = poly_gcd(k, num, den)
    if len(g) > 1:
        num = poly_divmod(k, num, g)[0]
        den = poly_divmod(k, den, g)[0]
    lead_inv = k.inv(den[-1])
    num = tuple(k.mul(c, lead_inv) for c in num)
    den = tuple(k.mul(c, lead_inv) for c in den)
    return num, den


def bareiss_solve(M, B):
    """Solve M X = D B over the integers by fraction-free elimination.

    M is an n x n and B an n x r integer matrix, both lists of rows.
    Returns (X, D): an n x r integer matrix X and D = +-det M != 0 with
    M X = D B, so M^-1 B = X / D.  Raises Singular when det M = 0.

    Bareiss's elimination (Math. Comp. 22, 1968) on the rows of [M | B]:
    step k replaces entry (i, j), i, j > k, by (a_ij a_kk - a_ik a_kj) /
    a_(k-1)(k-1).  By Sylvester's identity the result is the
    (k+1) x (k+1) minor of rows 0..k, i and columns 0..k, j of the
    row-permuted [M | B], an integer, so every division is exact.  A zero
    pivot is swapped with a lower row that is nonzero in its column; when
    there is none, the first k+1 columns are dependent and det M = 0.  The
    last pivot D is then det M up to the sign of the row swaps.  Back
    substitution on the triangular rows U | B' stays integral: X = D M^-1 B
    = +-adj(M) B is an integer matrix, so X_i = (D B'_i - sum_(j>i) U_ij
    X_j) / U_ii divides exactly.
    """
    n = len(M)
    r = len(B[0]) if n else 0
    A = [list(row) + list(rhs) for row, rhs in zip(M, B)]
    width = n + r
    prev = 1
    for k in range(n):
        if not A[k][k]:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                raise Singular("matrix has determinant zero")
            A[k], A[swap] = A[swap], A[k]
        rk = A[k]
        pivot = rk[k]
        for ri in A[k + 1:]:
            f = ri[k]
            ri[k] = 0
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pivot - f * rk[j]) // prev
        prev = pivot
    D = prev
    X = [[0] * r for _ in range(n)]
    for i in range(n - 1, -1, -1):
        ri = A[i]
        for c in range(r):
            acc = D * ri[n + c]
            for j in range(i + 1, n):
                acc -= ri[j] * X[j][c]
            X[i][c] = acc // ri[i]
    return X, D


def _format_terms(coeffs, var: str) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            parts.append(v if c == 1 else f"{c}*{v}")
    return " + ".join(parts) if parts else "0"


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:(?P<var>pi|t)(?:\^(?P<pow>\d+))?)?\s*$"
)


def _parse_element(model: FieldModel, text: str, budget: int) -> FieldElement:
    """An element string of either model (README, "Element syntax"): a sum
    of terms, or over F_q((t)) also "(sum)/(sum)"."""
    text = text.strip()
    if model.kind == EQUAL and text.startswith("("):
        mt = re.fullmatch(r"\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)", text)
        if not mt:
            raise ParseError(f"cannot parse field element {text!r}")
        den = _parse_terms(model, mt.group("den"), budget)
        if den.is_zero():
            raise ParseError(f"zero denominator in {text!r}")
        return _parse_terms(model, mt.group("num"), budget) / den
    return _parse_terms(model, text, budget)


def _parse_terms(model: FieldModel, text: str, budget: int) -> FieldElement:
    """The sum of the '+'/'-' separated terms c*x^k of ``text``, x the
    model's variable (pi or t), one term parser for both models.  The
    coefficient c is read as a Fraction, as ``from_fraction`` takes it;
    over F_p((t)) it must be p-integral.  Over F_q((t)) with f > 1 it is
    what ``__str__`` prints there, the integer code of an element of GF(q)
    (its base-p digits, see ``GF``), so it must be an integer below q in
    absolute value, and -c is that element negated.  The power is checked
    per model before anything is built: below e for Q_p(pi), and for
    F_q((t)) charged to the budget as the k + 1 coefficients of t^k."""
    var = "pi" if model.kind == MIXED else "t"
    out = model.zero()
    for term, sign in _split_terms(text):
        mt = _TERM_RE.match(term)
        if not mt or (mt.group("coeff") is None and mt.group("var") is None):
            raise ParseError(f"cannot parse term {term!r} in {text!r}")
        if mt.group("var") not in (None, var):
            raise ParseError(f"unexpected variable in {text!r}")
        try:  # a zero denominator, or more digits than int() converts
            coeff = sign * Fraction(mt.group("coeff") or 1)
            power = int(mt.group("pow") or 1) if mt.group("var") else 0
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot read term {term!r}: {exc}") from None
        if model.kind == MIXED:
            if power >= model.e:
                raise ParseError(f"pi^{power} exceeds degree {model.e - 1}")
        elif power >= budget:
            raise BudgetExceeded(f"t^{power} has {power + 1} coefficients, "
                                 f"over budget {budget}")
        elif model.f > 1:
            if coeff.denominator != 1 or abs(coeff) >= model.q:
                raise ParseError(f"coefficient {coeff} is no GF({model.q}) code, an integer "
                                 f"below {model.q}, in {text!r}")
        elif coeff.denominator % model.p == 0:
            raise ParseError(f"coefficient {coeff} is not {model.p}-integral in {text!r}")
        if model.f == 1:
            value = model.from_fraction(coeff)
        else:
            value = FieldElement(model, ((abs(coeff.numerator),), (1,)))
            value = -value if coeff < 0 else value
        # x^k by squaring: pi_pow would cache every t^k a text asks for
        out = out + value * model.uniformizer() ** power
    return out


def _split_terms(text: str):
    """Yield (term, sign) pairs from a '+/-' separated expression."""
    text = text.strip()
    if not text:
        raise ParseError("empty element string")
    out = []
    sign = 1
    buf = []
    for ch in text:
        if ch in "+-" and buf and buf[-1] not in "*^/":
            out.append(("".join(buf), sign))
            sign = 1 if ch == "+" else -1
            buf = []
        elif ch in "+-" and not buf:
            sign = -sign if ch == "-" else sign
        else:
            buf.append(ch)
    out.append(("".join(buf), sign))
    return [(t.strip(), s) for t, s in out if t.strip()]


# ---------------------------------------------------------------------------
# residue rings o/pi^N
# ---------------------------------------------------------------------------


class ResidueRing:
    """The finite ring o/pi^N of a field model, N >= 0.

    Mixed model: coordinates are integer classes, the pi^i coefficient
    living modulo p^ceil((N-i)/e).  Equal model: a polynomial of degree < N
    over F_q.  N = 0 gives the zero ring (used for the spherical level).
    """

    def __init__(self, model: FieldModel, N: int):
        if N < 0:
            raise ValueError("precision must be >= 0")
        self.model = model
        self.N = N
        self._tables = None
        self._names = {}  # coords -> the element's string, formed once
        if model.kind == MIXED:
            self.caps = tuple(
                max(0, -((- (N - i)) // model.e)) for i in range(model.e)
            )
            self.moduli = tuple(model.p**k for k in self.caps)
        else:
            self.caps = (N,)
            self.moduli = (model.q,) * N
        self.size = 1
        for mod in self.moduli:
            self.size *= mod

    # -- constructors ----------------------------------------------------------

    def zero(self) -> "ResidueElement":
        return ResidueElement(self, (0,) * self._width())

    def one(self) -> "ResidueElement":
        coords = [0] * self._width()
        if coords:
            coords[0] = 1 % self.moduli[0]
        return ResidueElement(self, tuple(coords))

    def uniformizer(self) -> "ResidueElement":
        return self.reduce(self.model.uniformizer())

    def from_int(self, n: int) -> "ResidueElement":
        return self.reduce(self.model.from_int(n))

    def _width(self) -> int:
        return self.model.e if self.model.kind == MIXED else self.N

    def elements(self):
        """All ring elements in a fixed deterministic order."""
        for coords in itertools.product(*(range(mod) for mod in self.moduli)):
            yield ResidueElement(self, coords)

    def tables(self, budget: int) -> "RingTables":
        """The ring in index arithmetic (see ``RingTables``), built once.

        The budget is charged the size^2 entries of the add and mul tables
        before anything is built, on every call.  Rings are process-global
        (``residue_ring``), so the tables live as long as the ring does:
        for the life of the process.
        """
        if self.size * self.size > budget:
            raise BudgetExceeded(
                f"tables of o/pi^{self.N} ({self.size}^2 entries) exceed budget {budget}"
            )
        if self._tables is None:
            elements = tuple(self.elements())
            index = {x.coords: i for i, x in enumerate(elements)}
            self._tables = RingTables(
                elements,
                index,
                [[index[(x + y).coords] for y in elements] for x in elements],
                [[index[(x * y).coords] for y in elements] for x in elements],
                [index[(-x).coords] for x in elements],
            )
        return self._tables

    # -- reduction and canonical lift -------------------------------------------

    def reduce(self, x: FieldElement) -> "ResidueElement":
        if x.model != self.model:
            raise MixedRings(f"element of {x.model} reduced in o/pi^{self.N} of {self.model}")
        if x.val() < 0:
            raise NegativeValuation(f"v({x}) < 0, not in the valuation ring")
        if self.N == 0:
            return self.zero()
        m = self.model
        if m.kind == MIXED:
            nums, den = x.num, x.den
            coords = []
            for a, mod in zip(nums, self.moduli):
                if mod == 1:
                    coords.append(0)
                else:
                    # x integral and normalized force den prime to p
                    coords.append((a * pow(den % mod, -1, mod)) % mod)
            return ResidueElement(self, tuple(coords))
        num, den = x.num, x.den
        if den == (1,):  # every canonical lift: no series inverse, no product
            series = num[: self.N]
        else:
            series = poly_mul(m.gf, num, _series_inverse(m.gf, den, self.N), self.N)
        return ResidueElement(self, tuple(series) + (0,) * (self.N - len(series)))

    def lift(self, r: "ResidueElement") -> FieldElement:
        """Canonical lift: least non-negative coordinate representatives."""
        if r.ring is not self:
            raise MixedRings("residue element of a different ring")
        m = self.model
        if m.kind == MIXED:
            return FieldElement(m, tuple(r.coords))
        return FieldElement(m, (poly_trim(r.coords), (1,)), _canonical=True)


class RingTables(FrozenRecord):
    """o/pi^N in index arithmetic.

    ``elements`` lists the ring in ``ResidueRing.elements()`` order, which
    is lexicographic in ``coords``: index 0 is zero, and i < j iff
    elements[i].coords < elements[j].coords.  ``index`` maps coords to
    the index.  ``add[i][j]``, ``mul[i][j]`` and ``neg[i]`` are the indices
    of elements[i] + elements[j], elements[i] * elements[j] and
    -elements[i].
    """

    __slots__ = ("elements", "index", "add", "mul", "neg")

    def __init__(self, elements: tuple, index: dict, add: list, mul: list, neg: list):
        _set(self, "elements", elements)
        _set(self, "index", index)
        _set(self, "add", add)
        _set(self, "mul", mul)
        _set(self, "neg", neg)


@lru_cache(maxsize=None)
def residue_ring(model: FieldModel, N: int) -> ResidueRing:
    """The shared o/pi^N of a model.  Residues compare their rings by
    identity, so each (model, N) must have exactly one ring: the cache is
    process-global and unbounded, and keeps every ring asked for, with its
    model, its tables and the string of every element formatted (at most
    one per element of the ring), for the life of the process."""
    return ResidueRing(model, N)


def _series_inverse(k: GF, den, N: int):
    """Power-series inverse of den mod t^N; requires den(0) != 0."""
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator vanishes at t = 0")
    inv0 = k.inv(den[0])
    out = [inv0]
    for n in range(1, N):
        acc = 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc = k.add(acc, k.mul(den[j], out[n - j]))
        out.append(k.neg(k.mul(inv0, acc)))
    return poly_trim(out)


class ResidueElement:
    """An element of o/pi^N in canonical coordinates; immutable, hashable."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: ResidueRing, coords):
        self.ring = ring
        self.coords = tuple(coords)
        if len(self.coords) != ring._width():
            raise ParseError(f"o/pi^{ring.N} of {ring.model} needs {ring._width()} coordinates, "
                             f"got {len(self.coords)}")

    def _check(self, other):
        if not isinstance(other, ResidueElement) or other.ring is not self.ring:
            raise MixedRings("residue elements of different rings")

    def __add__(self, other):
        self._check(other)
        r = self.ring
        if r.model.kind == MIXED:
            return ResidueElement(
                r,
                tuple(
                    (a + b) % mod
                    for a, b, mod in zip(self.coords, other.coords, r.moduli)
                ),
            )
        k = r.model.gf
        return ResidueElement(r, tuple(k.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        r = self.ring
        if r.model.kind == MIXED:
            return ResidueElement(r, tuple((-a) % mod for a, mod in zip(self.coords, r.moduli)))
        k = r.model.gf
        return ResidueElement(r, tuple(k.neg(a) for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        r = self.ring
        m = r.model
        if m.kind == MIXED:
            prod = _mixed_product(self.coords, other.coords, m.e, m.p)
            return ResidueElement(r, tuple(c % mod for c, mod in zip(prod, r.moduli)))
        out = poly_mul(m.gf, self.coords, other.coords, r.N)
        return ResidueElement(r, out + (0,) * (r.N - len(out)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def val(self):
        """Valuation as seen at this precision: an int < N, or N meaning
        'congruent to zero mod pi^N'."""
        r = self.ring
        if self.is_zero():
            return r.N
        m = r.model
        if m.kind == EQUAL:
            return poly_ord0(self.coords)
        best = r.N
        for i, c in enumerate(self.coords):
            if c:
                best = min(best, m.e * _vp_int(c, m.p) + i)
        return best

    def is_unit(self) -> bool:
        # in the zero ring (N = 0) every element is trivially a unit
        return self.ring.N == 0 or self.val() == 0

    def lift(self) -> FieldElement:
        return self.ring.lift(self)

    def sort_key(self):
        return self.coords

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElement)
            and other.ring is self.ring
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.ring), self.coords))

    def __str__(self):
        names = self.ring._names
        name = names.get(self.coords)
        if name is None:
            var = "pi" if self.ring.model.kind == MIXED else "t"
            name = names[self.coords] = f"{_format_terms(self.coords, var)}@{self.ring.N}"
        return name

    __repr__ = __str__


# ---------------------------------------------------------------------------
# m-close pairs and the isomorphism lambda_N
# ---------------------------------------------------------------------------


class ClosePair(FrozenRecord):
    """A matched pair of field models with closeness level N.

    Carries the coordinate-wise ring isomorphism
    lambda_N : o_F/pi^N -> o_F'/pi'^N with lambda_N(pi class) = pi' class.
    Identical models pair at any level; distinct models must share p, have
    residue degree 1, and every mixed-characteristic side needs e >= N
    (otherwise o/pi^N and F_p[t]/t^N are non-isomorphic rings).
    """

    __slots__ = ("model_f", "model_f2", "N")

    def __init__(self, model_f: FieldModel, model_f2: FieldModel, N: int):
        if N < 1:
            raise IncompatiblePair("closeness level must be >= 1")
        if model_f != model_f2:
            if model_f.p != model_f2.p:
                raise IncompatiblePair("residue characteristics differ")
            for side in (model_f, model_f2):
                if side.f != 1:
                    raise IncompatiblePair("cross pairs require residue degree 1")
                if side.kind == MIXED and side.e < N:
                    raise IncompatiblePair(
                        f"mixed side needs ramification e >= N: e={side.e}, N={N}"
                    )
        _set(self, "model_f", model_f)
        _set(self, "model_f2", model_f2)
        _set(self, "N", N)

    @property
    def identity(self) -> bool:
        return self.model_f == self.model_f2

    def inverse(self) -> "ClosePair":
        return ClosePair(self.model_f2, self.model_f, self.N)

    def apply(self, r: ResidueElement) -> ResidueElement:
        """lambda at the element's own precision N' <= N."""
        return self._map(r, self.model_f, self.model_f2)

    def apply_inverse(self, r: ResidueElement) -> ResidueElement:
        return self._map(r, self.model_f2, self.model_f)

    def _map(self, r: ResidueElement, src: FieldModel, dst: FieldModel) -> ResidueElement:
        if r.ring.model != src:
            raise MixedRings(f"residue element of {r.ring.model}, not of the source {src}")
        n = r.ring.N
        if n > self.N:
            raise PrecisionExceeded(f"element precision {n} exceeds pair level {self.N}")
        target = dst.residue_ring(n)
        if src == dst:
            return ResidueElement(target, r.coords)
        # distinct models: both sides are F_p[t]/t^n, and the first n
        # coordinates of either are its uniformizer digits (a mixed side has
        # e >= n, so its coordinates past n are 0 and the rest live mod p)
        return ResidueElement(target, r.coords[:n] + (0,) * (target._width() - n))

    def __str__(self):
        return f"({self.model_f}) ~ ({self.model_f2}) at level {self.N}"
