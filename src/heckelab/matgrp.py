"""Split matrix groups GL_n, SL_n over a local-field model.

Provides the hyperspecial maximal compact K = G(o) and its congruence
filtration K_m, the Cartan factorization g = a * n_tau * b computed by
Smith normal form over the valuation ring, the diagonal cocharacter
section tau -> n_tau = diag(pi^a_1, ..., pi^a_n), and the finite quotients
K/K_m and K_m/K_(m+c) as ``ClassGroup``, the one owner of their codes,
ring tables and moves, which other modules reach only through its methods.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import (
    BudgetExceeded,
    InvariantViolated,
    MixedRings,
    NonUnitDet,
    NotDominant,
    NotInK,
    ParseError,
    SLTraceNonzero,
    Singular,
)
from .localfield import (
    DEFAULT_BUDGET,
    INF,
    MIXED,
    FieldElement,
    FieldModel,
    ResidueElement,
    ResidueRing,
    _mixed_product,
    _series_inverse,
    _vp_int,
    mixed_dot,
    poly_add,
    poly_mul,
    poly_neg,
    poly_ord0,
    poly_trim,
)
from .record import FrozenRecord, _set

GL = "GL"
SL = "SL"


class GroupSpec(FrozenRecord):
    """One of the split families GL_n / SL_n over a field model.

    n = 1 is admitted for GL only, as a degenerate test case.
    """

    __slots__ = ("family", "n", "model")

    def __init__(self, family: str, n: int, model: FieldModel):
        if family not in (GL, SL):
            raise ValueError(f"unknown family {family!r}")
        if family == SL and n < 2:
            raise ValueError("SL needs n >= 2")
        if n < 1:
            raise ValueError("n must be >= 1")
        _set(self, "family", family)
        _set(self, "n", n)
        _set(self, "model", model)

    def identity(self) -> "GroupElement":
        one, zero = self.model.one(), self.model.zero()
        rows = tuple(
            tuple(one if i == j else zero for j in range(self.n)) for i in range(self.n)
        )
        return GroupElement(self, rows)

    def parse_matrix(self, rows_of_strings, budget: int = DEFAULT_BUDGET) -> "GroupElement":
        """The element whose rows hold ints or element strings (a t^k term
        is charged to ``budget``, see ``FieldModel.parse``)."""
        conv = tuple(
            tuple(
                self.model.from_int(x) if isinstance(x, int) else self.model.parse(str(x), budget)
                for x in row
            )
            for row in rows_of_strings
        )
        return GroupElement(self, conv)

    def n_of_tau(self, tau: "CartanDatum") -> "GroupElement":
        """The cocharacter section: diag(pi^a_1, ..., pi^a_n), with its
        determinant pi^(a_1 + .. + a_n) given, so none is computed (for SL
        the coordinates sum to 0, and it is the model's one)."""
        if len(tau.coords) != self.n:
            raise ValueError(f"cocharacter length {len(tau.coords)} != n = {self.n}")
        if self.family == SL and sum(tau.coords) != 0:
            raise SLTraceNonzero(f"{tau} does not sum to zero")
        zero = self.model.zero()
        rows = tuple(
            tuple(
                self.model.pi_pow(tau.coords[i]) if i == j else zero
                for j in range(self.n)
            )
            for i in range(self.n)
        )
        return GroupElement(self, rows, _det=self.model.pi_pow(sum(tau.coords)))


class CartanDatum(FrozenRecord):
    """A dominant cocharacter: integers a_1 >= a_2 >= ... >= a_n.  Its
    string is formed once, on first use."""

    __slots__ = ("coords", "_str")

    def __init__(self, coords: tuple):
        coords = tuple(int(a) for a in coords)
        for x, y in zip(coords, coords[1:]):
            if x < y:
                raise NotDominant(f"{coords} is not weakly decreasing")
        _set(self, "coords", coords)
        _set(self, "_str", None)

    @property
    def norm(self) -> int:
        """max(|a_1|, |a_n|), the window size of the cocharacter."""
        if not self.coords:
            return 0
        return max(abs(self.coords[0]), abs(self.coords[-1]))

    @property
    def spread(self) -> int:
        """a_1 - a_n, controls all conjugation precision losses."""
        if not self.coords:
            return 0
        return self.coords[0] - self.coords[-1]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __add__(self, other: "CartanDatum") -> "CartanDatum":
        return CartanDatum(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def sort_key(self):
        return self.coords

    def __str__(self):
        if self._str is None:
            _set(self, "_str", "(" + ",".join(str(a) for a in self.coords) + ")")
        return self._str


def zero_tau(n: int) -> CartanDatum:
    return CartanDatum((0,) * n)


def dominant_window(family: str, n: int, bound: int, budget: int = DEFAULT_BUDGET):
    """All dominant cocharacters with norm <= bound (SL: summing to zero).
    The budget is charged the (2 bound + 1)^n candidate tuples."""
    _check_budget_power(2 * bound + 1, n, budget)
    out = []
    for coords in itertools.product(range(bound, -bound - 1, -1), repeat=n):
        if any(x < y for x, y in zip(coords, coords[1:])):
            continue
        if family == SL and sum(coords) != 0:
            continue
        out.append(CartanDatum(coords))
    return sorted(out, key=lambda t: t.sort_key())


class GroupElement:
    """An invertible n x n matrix over the field model; immutable.

    The entries are kept as one row-major tuple, ``entries``, and ``rows``
    forms the n row tuples on demand: one tuple where n + 1 were kept, so
    a 2 x 2 element spends 72 bytes on tuples where it spent 168
    (``sys.getsizeof``, 64-bit CPython), and every element that a cache or
    a caller keeps is that much smaller.  For the SL family the determinant is required to be exactly
    1; the element then keeps the model's shared one as its determinant.
    """

    __slots__ = ("group", "entries", "_det")

    def __init__(self, group: GroupSpec, rows, _det=None):
        self.group = group
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != group.n or any(len(r) != group.n for r in rows):
            raise ParseError(f"{group.family}_{group.n} needs a {group.n} x {group.n} matrix")
        self.entries = sum(rows, ())
        d = _cofactor_det(rows, group.model.zero()) if _det is None else _det
        if d.is_zero():
            raise Singular("matrix has determinant zero")
        if group.family == SL:
            one = group.model.one()
            if d != one:
                raise Singular(f"SL element must have determinant 1, got {d}")
            d = one  # the shared one, not a copy per element
        self._det = d

    @property
    def rows(self) -> tuple:
        n, entries = self.group.n, self.entries
        return tuple(entries[i:i + n] for i in range(0, n * n, n))

    def det(self) -> FieldElement:
        return self._det

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        """The product, its determinant the product of the two.  When a
        factor is diagonal, D = diag(d_1, .., d_n), the sum sum_k a_ik
        b_kj has one term that can be nonzero: (A D)_ij = a_ij d_j and (D
        B)_ij = d_i b_ij.  So the other factor's columns (D on the right)
        or rows (D on the left) are scaled, n^2 field products and no sum.
        The data of a field element is canonical (``FieldElement``), so
        the entries are the ones the full sums give."""
        if other.group != self.group:
            raise MixedRings(f"{self.group.family}_{self.group.n}({self.group.model}) times "
                             f"{other.group.family}_{other.group.n}({other.group.model})")
        n, a, b = self.group.n, self.entries, other.entries
        starts = range(0, n * n, n)
        if _is_diagonal(b, n):
            d = b[::n + 1]
            rows = tuple(tuple(x * y for x, y in zip(a[i:i + n], d)) for i in starts)
        elif _is_diagonal(a, n):
            rows = tuple(tuple(x * y for y in b[i:i + n]) for x, i in zip(a[::n + 1], starts))
        else:
            cols = [b[j::n] for j in range(n)]
            rows = tuple(tuple(_dot(a[i:i + n], col) for col in cols) for i in starts)
        return GroupElement(self.group, rows, _det=self._det * other._det)

    def inverse(self) -> "GroupElement":
        det_inv = self._det.inverse()
        inv_rows = _cofactor_inverse(self.rows, det_inv, self.group.model.zero())
        return GroupElement(self.group, inv_rows, _det=det_inv)

    # -- membership in the congruence filtration -------------------------------

    def in_k(self) -> bool:
        """Membership in K = G(o): integral entries, unit determinant."""
        if not all(x.is_integral() for x in self.entries):
            return False
        return self._det.is_unit()

    def in_km(self, m: int) -> bool:
        """Membership in K_m = Ker(G(o) -> G(o/pi^m)); K_0 = K."""
        if m == 0:
            return self.in_k()
        if not self.in_k():
            return False
        one, step = self.group.model.one(), self.group.n + 1
        for k, x in enumerate(self.entries):
            delta = x - one if k % step == 0 else x  # the diagonal is every (n + 1)-th entry
            if delta.val() < m:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group == self.group
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.group, self.entries))

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"

    __repr__ = __str__

    def serialize(self):
        return [[str(x) for x in row] for row in self.rows]


def _is_diagonal(entries, n: int) -> bool:
    """Whether every entry off the diagonal of the row-major ``entries``
    of an n x n matrix is zero; the diagonal is every (n + 1)-th entry."""
    step = n + 1
    return all(x.is_zero() for k, x in enumerate(entries) if k % step)


def _dot(row, col):
    model = row[0].model
    if model.kind == "MixedChar":
        return mixed_dot(model, row, col)
    acc = row[0] * col[0]
    for x, y in zip(row[1:], col[1:]):
        acc = acc + x * y
    return acc


def _cofactor_det(rows, zero):
    """Determinant by cofactor expansion along the first row.

    The one determinant of the package: ``rows`` hold field elements or
    residues mod pi^N alike, and ``zero`` is the zero of their ring.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = zero
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = rows[0][j] * _cofactor_det(minor, zero)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _cofactor_inverse(rows, det_inv, zero):
    """Inverse of a matrix of field elements as the adjugate times
    ``det_inv``, the inverse determinant; ``zero`` is the field's zero."""
    n = len(rows)
    if n == 1:
        return ((det_inv,),)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            val = _cofactor_det(minor, zero) * det_inv
            out[j][i] = val if (i + j) % 2 == 0 else -val
    return tuple(tuple(r) for r in out)


def _k_element(spec: GroupSpec, rows, det) -> GroupElement:
    """The matrix ``rows`` over o, of exact unit determinant ``det``, as an
    element of ``spec``.

    For SL column 0 is scaled by det^-1 (a Cartan witness, of det +-1,
    takes its fix from ``_smith`` instead): the result has determinant
    exactly one, which GroupElement checks again, and when det = 1 mod pi^N
    its residue mod pi^N is that of ``rows``, because det^-1 = 1 mod pi^N.
    """
    if spec.family == GL:
        return GroupElement(spec, rows, _det=det)
    s = det.inverse()
    return GroupElement(spec, tuple((row[0] * s,) + tuple(row[1:]) for row in rows))


# ---------------------------------------------------------------------------
# Cartan factorization by Smith normal form over the valuation ring
# ---------------------------------------------------------------------------


class CartanFactorization(FrozenRecord):
    """g = a * n_tau * b with a, b in K and tau dominant."""

    __slots__ = ("a", "tau", "b")

    def __init__(self, a: GroupElement, tau: CartanDatum, b: GroupElement):
        _set(self, "a", a)
        _set(self, "tau", tau)
        _set(self, "b", b)

    def n_tau(self) -> GroupElement:
        return self.a.group.n_of_tau(self.tau)

    def product(self) -> GroupElement:
        return self.a @ self.n_tau() @ self.b


# An elimination's operation acts on the rows of W[0] = A^T (a column of A
# is a row of A^T) or W[1] = B, as a tuple (kind, w, i, j, x): _SWAP swaps
# rows i and j of W[w], _ADD adds x times row j to row i, _SCALE multiplies
# row i by x (j unused).  x lies in the ring the elimination ran over.
_SWAP, _ADD, _SCALE = range(3)


# The rings ``_smith`` eliminates over.  Each gives ``val`` (INF at zero),
# ``is_zero``, ``sub``, ``mul``, ``zero`` and ``minus_one``;
# ``divider(pivot, d)``, for a pivot of valuation d, returns x -> x / pivot
# for x of valuation >= d; ``unit(pivot, d)`` is pivot pi^-d; and
# ``residue(x, ring)`` is the coords of x in the ``ResidueRing`` ``ring``.


class _Field:
    """The valuation ring o inside F, on exact field elements: the ring of
    ``cartan``'s elimination.  The arithmetic is the elements' own, looked
    up at each call; a quotient inverts the pivot once and checks that it
    is integral."""

    __slots__ = ("zero", "minus_one")
    val = operator.methodcaller("val")
    is_zero = operator.methodcaller("is_zero")
    sub = operator.sub
    mul = operator.mul

    def __init__(self, model: FieldModel):
        self.zero = model.zero()
        self.minus_one = model.from_int(-1)

    @staticmethod
    def divider(pivot, d):
        inv = pivot.inverse()

        def divide(x):
            f = x * inv
            if not f.is_integral():
                raise InvariantViolated(f"SNF multiplier {f} is not integral")
            return f

        return divide

    @staticmethod
    def unit(pivot, d):
        return pivot.shift(-d)

    @staticmethod
    def residue(x, ring):
        return ring.reduce(x).coords


class _MixedTruncation:
    """o/pi^N of Q_p(pi), pi^e = p, on coordinate tuples: x = sum c_i pi^i
    with c_i an integer in [0, p^cap_i), the coords of ``ResidueRing``;
    products are folded by pi^e = p (``_mixed_product``).

    For v(x) >= d, x pi^-d is a rotation of the coordinates.  Write d = s e
    + r, 0 <= r < e.  Then e v_p(c_i) + i >= d, so p^s divides every c_i
    and p^(s+1) every c_i with i < r (a representative in [0, p^cap_i) of
    a multiple of p^j is one, or is 0): x pi^-r moves c_i to i - r for i >=
    r and c_i / p to i - r + e for i < r (pi^(i-r) = pi^(i-r+e) / p), and
    then every coordinate is divided by p^s.  A unit u is inverted from x =
    c_0^-1 mod p^cap_0: u x - 1 = (c_0 x - 1) + (u - c_0) x, the first term
    0 mod p^cap_0, that is mod pi^N, and x a unit, so v(u x - 1) >= v(u -
    c_0).  Newton steps x <- x (2 - u x) follow, each of which squares u x
    - 1, until that bound reaches N."""

    __slots__ = ("N", "e", "p", "moduli", "zero", "minus_one", "_ring")

    def __init__(self, ring: ResidueRing):
        model = ring.model
        self.N, self.e, self.p, self.moduli, self._ring = ring.N, model.e, model.p, ring.moduli, ring
        self.zero = (0,) * model.e
        self.minus_one = (-1 % ring.moduli[0],) + self.zero[1:]

    def reduce(self, x: FieldElement) -> tuple:
        return self._ring.reduce(x).coords

    @staticmethod
    def residue(x, ring):
        return tuple(c % mod for c, mod in zip(x, ring.moduli))

    @staticmethod
    def is_zero(x):
        return not any(x)

    def val(self, x):
        e, p, best = self.e, self.p, INF
        for i, c in enumerate(x):
            if c:
                v = e * _vp_int(c, p) + i
                if v < best:
                    best = v
        return best

    def sub(self, x, y):
        return tuple((a - b) % mod for a, b, mod in zip(x, y, self.moduli))

    def mul(self, x, y):
        return tuple(c % mod for c, mod in zip(_mixed_product(x, y, self.e, self.p), self.moduli))

    def unit(self, x, d):
        s, r = divmod(d, self.e)
        p = self.p
        if r:
            x = x[r:] + tuple(c // p for c in x[:r])
        if s:
            ps = p**s
            x = tuple(c // ps for c in x)
        return x

    def divider(self, pivot, d):
        u, mul, unit = self.unit(pivot, d), self.mul, self.unit
        inv, two = (pow(u[0], -1, self.moduli[0]),) + self.zero[1:], (2,) + self.zero[1:]
        reached = self.val((0,) + u[1:])
        while reached < self.N:
            inv = mul(inv, self.sub(two, mul(u, inv)))
            reached *= 2
        return lambda x: mul(unit(x, d), inv)


class _EqualTruncation:
    """o/pi^N of F_q((t)) on coordinate tuples: a polynomial over GF(q) of
    degree below N, low-first with no top zeros (``poly_trim``); products
    are truncated at t^N.  For v(x) >= d, x t^-d drops the d low
    coordinates, and a unit is inverted as a power series
    (``_series_inverse``)."""

    __slots__ = ("N", "k", "zero", "minus_one", "_ring")
    val = staticmethod(poly_ord0)
    is_zero = operator.not_

    def __init__(self, ring: ResidueRing):
        self.N, self.k, self._ring = ring.N, ring.model.gf, ring
        self.zero = ()
        self.minus_one = (self.k.neg(1),)

    def reduce(self, x: FieldElement) -> tuple:
        return poly_trim(self._ring.reduce(x).coords)

    @staticmethod
    def residue(x, ring):
        x = x[:ring.N]
        return x + (0,) * (ring.N - len(x))

    def sub(self, x, y):
        return poly_add(self.k, x, poly_neg(self.k, y))

    def mul(self, x, y):
        return poly_mul(self.k, x, y, self.N)

    @staticmethod
    def unit(x, d):
        return x[d:]

    def divider(self, pivot, d):
        inv, mul = _series_inverse(self.k, pivot[d:], self.N), self.mul
        return lambda x: mul(x[d:], inv)


def _smith(spec: GroupSpec, M, ring, rng):
    """The Smith-normal-form elimination of the n x n matrix M (a list of
    row lists, changed in place) over ``ring``, as (ds, ops, sign): ds the
    pivot valuations in the order eliminated, ops carrying two identity
    matrices to the witnesses A^T and B of M = A diag(pi^ds reversed) B
    (``_replay``), and sign = det A = +-1.  The one loop of ``_eliminate``
    and ``truncated_elimination``.

    Pivots on a minimal-valuation entry of the trailing submatrix
    (lexicographically smallest position on ties; ``rng`` randomizes the
    tie-break, used by the witness-independence harness), so every
    multiplier f is integral, and each diagonal entry ends as pi^d_k times
    a unit u_k; the d_k reversed are tau.  A changes only by column swaps
    and by adding a multiple of one column to another, so det A is -1 to
    the number of its swaps, exactly.  For SL the ops end with the fix of
    both witnesses to determinant one: column 0 of A and row 0 of B scaled
    by sign, which cancels across the diagonal n_tau.

    A pivot is inverted only when it divides something: the first time an
    entry below it or to its right is nonzero.  So the last pivot, and
    every pivot whose row and column are already clear (all of them when
    g = n_tau), costs no inverse.  Only M is computed, no witness.

    No entry whose value is already known is formed.  The row step that
    clears M[i][k] writes zero there, since M[i][k] - f M[k][k] = 0 by the
    choice of f, and updates only columns k+1..n-1.  When the column step
    runs, column k below the pivot is already zero, so clearing M[k][j]
    changes no entry but M[k][j] itself, which becomes zero: only f and its
    op are formed.  No entry of row or column k is read again, and the
    pivot M[k][k] is never written after it is chosen, so its valuation
    d_k is the one ``_pick_pivot`` returned.  ``tests/oracles.py`` keeps
    the elimination that forms every entry, and the tests check that both
    give the same (tau, ops, sign).
    """
    n = spec.n
    val, is_zero, sub, mul, zero = ring.val, ring.is_zero, ring.sub, ring.mul, ring.zero
    ops = []
    ds = []
    swaps = 0  # of A's columns, whose parity is the sign of det A

    for k in range(n):
        pi, pj, d = _pick_pivot(M, k, rng, val)
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            ops.append((_SWAP, 0, k, pi, None))  # A <- A * swap
            swaps += 1
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            ops.append((_SWAP, 1, k, pj, None))
        ds.append(d)
        pivot_row = M[k]
        divide = None
        for i in range(k + 1, n):
            row = M[i]
            if is_zero(row[k]):
                continue
            if divide is None:
                divide = ring.divider(pivot_row[k], d)
            f = divide(row[k])  # integral: the pivot has minimal valuation
            for c in range(k + 1, n):
                row[c] = sub(row[c], mul(f, pivot_row[c]))
            row[k] = zero
            ops.append((_ADD, 0, k, i, f))  # column k of A += f column i
        for j in range(k + 1, n):
            if is_zero(pivot_row[j]):
                continue
            if divide is None:
                divide = ring.divider(pivot_row[k], d)
            f = divide(pivot_row[j])
            pivot_row[j] = zero
            ops.append((_ADD, 1, k, j, f))  # row k of B += f row j

    # normalize the diagonal to exact pi powers
    for k, d in enumerate(ds):
        ops.append((_SCALE, 1, k, None, ring.unit(M[k][k], d)))

    # reverse so the exponents are weakly decreasing (dominant)
    for k in range(n // 2):
        ops += [(_SWAP, 0, k, n - 1 - k, None), (_SWAP, 1, k, n - 1 - k, None)]
    sign = -1 if (swaps + n // 2) % 2 else 1
    if spec.family == SL and sign < 0:
        # column 0 of A times det(A)^-1 = sign, row 0 of B times det(A)
        minus_one = ring.minus_one
        ops += [(_SCALE, 0, 0, None, minus_one), (_SCALE, 1, 0, None, minus_one)]
    return ds, ops, sign


def _eliminate(g: GroupElement, rng=None):
    """The Smith-normal-form elimination of g over o, on exact field
    elements (``_smith``), as (tau, ops, sign): ops carry two identity
    matrices to the witnesses A^T and B of g = A n_tau B.  Each diagonal
    unit M[k][k] pi^-d_k is formed by ``FieldElement.shift``, whose data
    are those of the product by pi_pow(-d_k).  Only ``cartan`` needs ops in
    o; every other caller reads them mod a power of pi
    (``truncated_elimination``)."""
    ds, ops, sign = _smith(g.group, [list(row) for row in g.rows], _Field(g.group.model), rng)
    return CartanDatum(tuple(ds[::-1])), ops, sign


def content(g: GroupElement) -> tuple:
    """(a, delta) with a = min v(g_ij), the least valuation of an entry, and
    delta = v(det g) - n a >= 0, that of det(pi^-a g) (det g is cached on
    g; for SL it is 1).  pi^-a g is integral, and lies in K iff delta = 0."""
    a = min(x.val() for x in g.entries)
    return a, g.det().val() - g.group.n * a


def truncated_elimination(g: GroupElement, a: int, delta: int, P: int, rng=None):
    """The elimination of g that ``_eliminate(g, rng)`` runs, read mod pi^P
    (P >= 1): (tau, ops, sign, ring), ops over ring = o/pi^M, M = P +
    delta, for (a, delta) = ``content(g)``.  It eliminates k = pi^-a g,
    each entry (``FieldElement.shift``) reduced into o/pi^M once, and runs
    no field product or inverse.

    Claim: the pivots and tau are the exact elimination's, with ``rng``
    after the same tie-break draws, and each multiplier and unit of ops is
    congruent mod pi^P to the exact one in its place.  Proof:
    - k has the pivot positions, multipliers and units of g: every entry's
      valuation drops by a, which cancels in each quotient x / pivot, and
      its tau is g's minus (a, .., a).
    - The exact pivot valuations d_k of k are >= 0 (k is integral) and sum
      to v(det k) = delta, so each d_k <= delta < M.
    - By induction on the steps, the trailing entries are known mod pi^M.
      An entry of valuation below M reads exactly and one of valuation M
      or more reads as zero, so the least valuation d_k is read exactly,
      at the same positions: the same candidates and the same draw.
    - A multiplier f = (x pi^-d) (pivot pi^-d)^-1, v(x) >= d = d_k, is
      known mod pi^(M - d), and M - d >= M - delta = P; so is the unit
      pivot pi^-d.
    - An update y - f z, v(z) >= d (the pivot is least), is known mod pi^M:
      the error of f times z, and that of z times f, lie in pi^M.
    An exact op whose entry is 0 mod pi^M has no twin here; its f = 0 mod
    pi^P.  The swaps are the same, so is sign.  The entries of the
    witnesses that ``_replay`` makes of ops are integer polynomials in the
    multipliers and units (the SL fix scales by sign = +-1), so mod pi^P
    they are those of ``cartan(g, rng)``'s witnesses.  Pivot valuations
    that do not sum to delta, or a zero pivot, raise InvariantViolated: an
    M too small shows so.

    The proof needs only M >= P + max d_k = P + a_1 - a_n; delta bounds
    that before any pivot is known, and equals it at n = 2, where the first
    pivot of k has valuation 0.
    """
    spec = g.group
    ring = spec.model.residue_ring(P + delta)
    ring = _MixedTruncation(ring) if spec.model.kind == MIXED else _EqualTruncation(ring)
    reduce = ring.reduce
    M = [[reduce(x.shift(-a)) for x in row] for row in g.rows]
    ds, ops, sign = _smith(spec, M, ring, rng)
    if sum(ds) != delta:
        raise InvariantViolated(f"pivot valuations {ds} of a truncated elimination do not "
                                f"sum to v(det) = {delta}")
    return CartanDatum(tuple(d + a for d in reversed(ds))), ops, sign, ring


def _replay(ops, n: int, one, zero, add, mul, scalar):
    """The rows of (A^T, B) that ``ops`` of ``_smith`` make of two n x n
    identity matrices, in the ring whose one, zero, sum and product are
    ``one``, ``zero``, ``add`` and ``mul``; ``scalar`` carries each f and
    unit of ops into that ring, once."""
    W = [[[one if i == j else zero for j in range(n)] for i in range(n)] for _ in range(2)]
    for kind, w, i, j, x in ops:
        rows = W[w]
        if kind == _SWAP:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == _ADD:
            f = scalar(x)
            rows[i] = [add(a, mul(f, b)) for a, b in zip(rows[i], rows[j])]
        else:
            u = scalar(x)
            rows[i] = [mul(u, a) for a in rows[i]]
    return W


def cartan(g: GroupElement, rng=None) -> CartanFactorization:
    """Smith-normal-form factorization over the valuation ring: the
    operations of ``_eliminate`` replayed on exact identity matrices.

    All transforms are unimodular, so the witnesses land in K; for SL both
    are repaired to determinant one by the sign fix of ``_smith``.  For
    GL, det a = sign is known exactly and no determinant is taken; for SL,
    GroupElement checks det a = det b = 1.
    """
    spec = g.group
    model = spec.model
    tau, ops, sign = _eliminate(g, rng)
    a_t, b = _replay(ops, spec.n, model.one(), model.zero(), operator.add, operator.mul,
                     lambda x: x)
    a_rows = tuple(zip(*a_t))
    a = GroupElement(spec, a_rows, _det=model.from_int(sign) if spec.family == GL else None)
    return CartanFactorization(a, tau, GroupElement(spec, b))


def residue_witnesses(g: GroupElement, N: int, rng=None):
    """(tau, a mod pi^N, b mod pi^N) for the witnesses a, b of g = a n_tau b
    that ``cartan(g, rng)`` builds, with no exact witness formed: the
    operations of ``truncated_elimination`` at P = N replayed
    (``_replay``) on residues of o/pi^N, each f and unit of ops projected
    into o/pi^N once.

    Proof.  ``cartan`` replays the exact operations on exact identity
    matrices, so each entry of a and b is a polynomial with integer
    coefficients in the f and units of ops (the SL fix scales by sign =
    +-1), all of them integral.  Reduction o -> o/pi^N is a ring
    homomorphism, so it carries each entry to the same polynomial in the
    residues of the f and units, and those are the projections of the
    truncated ones (``truncated_elimination``: congruent mod pi^N, and an
    exact op with no truncated twin acts as the identity mod pi^N).  So
    the two residue matrices are reduce_group(a, N) and reduce_group(b,
    N), entry for entry."""
    ring = g.group.model.residue_ring(N)
    tau, ops, _, source = truncated_elimination(g, *content(g), N, rng)
    project = source.residue
    a_t, b = _replay(ops, g.group.n, ring.one(), ring.zero(), operator.add, operator.mul,
                     lambda x: ResidueElement(ring, project(x, ring)))
    return tau, ResidueMatrix(ring, tuple(zip(*a_t))), ResidueMatrix(ring, b)


def _pick_pivot(M, k, rng, val):
    """The position (i, j) of the pivot in the trailing submatrix from row
    and column k on, and its valuation (``val``)."""
    n = len(M)
    best = None
    candidates = []
    for i in range(k, n):
        for j in range(k, n):
            v = val(M[i][j])
            if best is None or v < best:
                best = v
                candidates = [(i, j)]
            elif v == best:
                candidates.append((i, j))
    if best is None or best == INF:
        raise InvariantViolated("zero submatrix in SNF")
    if rng is not None and len(candidates) > 1:
        return candidates[rng.randrange(len(candidates))] + (best,)
    return candidates[0] + (best,)


# ---------------------------------------------------------------------------
# residue matrices and the reduction/lift pair
# ---------------------------------------------------------------------------


class ResidueMatrix:
    """An n x n matrix over a residue ring o/pi^N; immutable, hashable.
    The hash and the string are computed once, on first use."""

    __slots__ = ("ring", "rows", "_hash", "_str")

    def __init__(self, ring: ResidueRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        self._hash = self._str = None

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if other.ring is not self.ring:
            raise MixedRings(f"residue matrices mod pi^{self.ring.N} of {self.ring.model} times "
                             f"mod pi^{other.ring.N} of {other.ring.model}")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return ResidueMatrix(self.ring, tuple(rows))

    def map_entries(self, func, target_ring: ResidueRing) -> "ResidueMatrix":
        return ResidueMatrix(target_ring, tuple(tuple(func(x) for x in row) for row in self.rows))

    def sort_key(self):
        return tuple(x.coords for row in self.rows for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueMatrix)
            and other.ring is self.ring
            and other.rows == self.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), tuple(x.coords for row in self.rows for x in row)))
        return self._hash

    def __str__(self):
        if self._str is None:
            self._str = "[" + "; ".join(", ".join(map(str, row)) for row in self.rows) + "]"
        return self._str

    __repr__ = __str__

    def serialize(self):
        return [[str(x) for x in row] for row in self.rows]


def reduce_group(g: GroupElement, N: int) -> ResidueMatrix:
    """The reduction K -> G(o/pi^N), a group homomorphism."""
    if not g.in_k():
        raise NotInK("reduction is defined on K = G(o) only")
    ring = g.group.model.residue_ring(N)
    return ResidueMatrix(ring, tuple(tuple(x.residue(N) for x in row) for row in g.rows))


def lift_group(r: ResidueMatrix, spec: GroupSpec) -> GroupElement:
    """Canonical section of reduce_group, landing in K.

    Entries are lifted coordinate-wise; for SL the first column is rescaled
    by det^-1 (a unit congruent to 1 mod pi^N) so the determinant is exactly
    one while the residue class is unchanged.  Both checks read the exact
    determinant d of the lifted rows: reduction is a ring homomorphism and
    the lift a section of it, so d mod pi^N = det r, and d is a unit (and
    = 1 mod pi^N) iff det r is (and = 1).
    """
    N = r.ring.N
    if N == 0:
        return spec.identity()
    rows = [[x.lift() for x in row] for row in r.rows]
    d = _cofactor_det(rows, spec.model.zero())
    if not d.is_unit():
        raise NonUnitDet("cannot lift: determinant is not a unit")
    if spec.family == SL and (d - spec.model.one()).val() < N:
        raise NonUnitDet("cannot lift to SL: residue determinant is not 1")
    return _k_element(spec, rows, d)


# ---------------------------------------------------------------------------
# enumeration of K/K_m and K_m/K_(m+c)
# ---------------------------------------------------------------------------


def _check_budget(count: int, budget: int):
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} elements exceeds budget {budget}")


def _check_budget_power(base: int, exponent: int, budget: int):
    """_check_budget(base**exponent, budget) without forming a power above
    base * budget, so a huge exponent is refused at once."""
    count = 1
    for _ in range(exponent if base > 1 else 0):
        count *= base
        if count > budget:
            raise BudgetExceeded(
                f"enumeration of {base}^{exponent} elements exceeds budget {budget}"
            )


# A residue matrix in index arithmetic is its code: the row-major tuple of
# the indices of its entries in the ring's ``RingTables``.


def _subgroup_generators(members, op, e):
    """Generators of the subgroup of a finite group that ``members`` lists,
    with ``op(a, b)`` the product of two indices and ``e`` the identity.

    A member is kept when it lies outside the subgroup the kept ones
    generate, which then at least doubles: at most log2 |members| are
    kept.  That subgroup is closed by right products with the kept members
    alone; in a finite group every inverse is a positive power, so the
    closure is the subgroup they generate."""
    gens, reached, seen = [], [e], {e}
    for x in members:
        if x in seen:
            continue
        gens.append(x)
        for a in reached:  # grows while it is read, until the subgroup is closed
            for g in gens:
                c = op(a, g)
                if c not in seen:
                    seen.add(c)
                    reached.append(c)
    return gens


def _class_count(spec: GroupSpec, m: int, c: int) -> int:
    """|K_m/K_(m+c)| in closed form: ``kernel_count`` at m >= 1 (and 1 at
    c = 0); at m = 0 the order of G(o/pi^c), |GL_n(F_q)| q^(n^2 (c - 1))
    for GL (reduction mod pi is onto, with kernel 1 + pi M_n(o/pi^c)), and
    for SL that divided by |(o/pi^c)^*| = (q - 1) q^(c - 1), the image of
    the determinant."""
    if m >= 1 or c == 0:
        return kernel_count(spec, m, c)
    q, n = spec.model.q, spec.n
    order = q ** (n * n * (c - 1)) * math.prod(q**n - q**i for i in range(n))
    return order if spec.family == GL else order // ((q - 1) * q ** (c - 1))


def _class_moves(spec: GroupSpec, m: int, ring: ResidueRing, tables):
    """The moves S that generate the classes of G(R), R = o/pi^(m+c) the
    ring of ``tables``, that are 1 mod pi^m (see ``_congruence_classes``).

    A move is the right multiplication by one generator, on codes: a pair
    (adds, scales) in which entry a of a code c becomes add[c[a]][row[c[b]]]
    for each (a, b, row) in adds (column j += w column k, row by row) and
    row[c[a]] for each (a, row) in scales (column j *= u), ``row`` being
    the row of the mul table of w or u (``_apply_move``).  With P = pi^m R, W generators of the additive group P and U
    generators of the unit group 1 + P (of R^* at m = 0), both from
    ``_subgroup_generators`` and closed under inverses:
    - x_ij(w) = 1 + w e_ij for i != j and w in W: column j += w column i;
    - GL: diag(1, .., u, .., 1) with u in U, at position 0 alone when m = 0
      and at every position when m >= 1;
    - SL, m >= 1: h_i(u) = diag(.., u, u^-1, ..) at positions i, i + 1.
    Returns the moves and the index of the inverse of each, which is a
    move too: x_ij(w)^-1 = x_ij(-w), and u^-1 is in U.
    """
    n = spec.n
    add, mul, index = tables.add, tables.mul, tables.index
    one = index[ring.one().coords]
    ideal = [i for i, x in enumerate(tables.elements) if x.val() >= m]
    if m == 0:
        unit_group = [i for i in ideal if tables.elements[i].is_unit()]
    else:
        unit_group = sorted(add[one][i] for i in ideal)

    def inv(u):
        return mul[u].index(one)

    def closed(gens, inverse):
        return list(dict.fromkeys(gens + [inverse(g) for g in gens]))

    ws = closed(_subgroup_generators(ideal, lambda a, b: add[a][b], 0), tables.neg.__getitem__)
    us = closed(_subgroup_generators(unit_group, lambda a, b: mul[a][b], one), inv)
    keys = [("x", i, j, w) for i in range(n) for j in range(n) if i != j for w in ws]
    if spec.family == GL:
        keys += [("d", i, i, u) for i in (range(n) if m else range(1)) for u in us]
    elif m:
        keys += [("h", i, i + 1, u) for i in range(n - 1) for u in us]
    offsets = range(0, n * n, n)
    moves, inverse = [], []
    position = {key: s for s, key in enumerate(keys)}
    for kind, i, j, v in keys:
        if kind == "x":
            moves.append((tuple((r + j, r + i, mul[v]) for r in offsets), ()))
            inverse.append(position[kind, i, j, tables.neg[v]])
        else:
            scales = [(r + i, mul[v]) for r in offsets]
            if kind == "h":
                scales += [(r + j, mul[inv(v)]) for r in offsets]
            moves.append(((), tuple(scales)))
            inverse.append(position[kind, i, j, inv(v)])
    return moves, inverse


def _apply_move(move, code, add):
    """The code of the class with code ``code`` times the move ``move`` (a
    pair (adds, scales), see ``_class_moves``); ``add`` is the ring's add
    table."""
    adds, scales = move
    out = list(code)
    for a, b, row in adds:
        out[a] = add[code[a]][row[code[b]]]
    for a, row in scales:
        out[a] = row[code[a]]
    return tuple(out)


class ClassGroup(FrozenRecord, fields=("spec", "m", "c", "tables", "codes", "matrices",
                                        "moves", "move_inverse", "words", "table", "budget")):
    """The finite group G = K_m/K_(m+c) (K/K_c at m = 0) that
    ``_congruence_classes`` builds, in index arithmetic over ``tables``, the
    ``RingTables`` of R = o/pi^(m+c), ``ring``.

    Class x has the code codes[x] and the ``ResidueMatrix`` matrices[x], in
    increasing ``sort_key`` order; ``index`` maps a code back to its class
    (the one way in from outside) and ``e`` is the identity.  ``key`` is
    (spec, m, c), which determines the group and its class order (the
    closure is sorted, and the budget changes no class): two groups of one
    key number their classes alike.  ``moves`` are the right
    multiplications by the generators S of ``_class_moves``, and
    move_inverse[s] is the move inverse to s.  words[x] is a shortest tuple
    s_1, .., s_k with x = s_1 .. s_k (the breadth-first parent pointers),
    and table[s][x] = x s the move table: the closure records it only when
    the budget admits its |G| |S| entries, else it is None and the first
    product, inverse or map check raises BudgetExceeded.  Products,
    inverses and canonical lifts are read off these; nothing per pair is
    stored.

    The moves generate G, with P = pi^m R:
    - m = 0: R is local with maximal ideal pi R.  For g in GL_n(R) some
      entry of column 1 is a unit (else det g would lie in pi R); adding
      that row to row 1 if need be makes g_11 a unit, and row and column
      operations with g_11 as pivot clear row and column 1.  By induction
      (Gaussian elimination) g = e diag(d_1, .., d_n) e' with e, e' in the
      group E generated by the x_ij(w), w in R, and each diag(.., d, d^-1,
      ..) lies in E (Whitehead: diag(u, u^-1) = x_12(u) x_21(-u^-1) x_12(u)
      x_12(-1) x_21(1) x_12(-1)), so g lies in E diag(det g, 1, .., 1).
      So SL_n(R) = E, and GL_n(R) is generated by E and diag(u, 1, .., 1),
      u in R^*.
    - m >= 1 (Iwahori factorization K_m = U-_m T_m U+_m): g = 1 mod P has
      unit pivots g_kk = 1 mod P and multipliers in P, so elimination gives
      g = v d u with v lower and u upper unitriangular, entries in P, and
      d diagonal with entries in 1 + P; v and u are products of x_ij(p),
      p in P.  For SL, prod d_i = 1 and d = prod_i h_i(d_1 .. d_i).
    - x_ij(a + b) = x_ij(a) x_ij(b), diag(u v) = diag(u) diag(v) and h_i(u
      v) = h_i(u) h_i(v), so generators of the groups P and 1 + P (R^* at
      m = 0) suffice.
    Breadth-first right products with the moves from the identity reach
    every product of moves, so the closure is G, and y's word walked from x
    is x y.  The moves are closed under inverses, so x^-1 is x's word
    reversed, each move inverted, walked from e.
    """

    __slots__ = ("spec", "m", "c", "tables", "codes", "matrices", "moves", "move_inverse",
                 "words", "table", "budget", "key", "ring", "index", "e", "_inverses", "_lifts")

    def __init__(self, spec: GroupSpec, m: int, c: int, tables, codes: list, matrices: list,
                 moves: list, move_inverse: list, words: list, table: list | None, budget: int):
        _set(self, "spec", spec)
        _set(self, "m", m)
        _set(self, "c", c)
        _set(self, "tables", tables)
        _set(self, "codes", codes)
        _set(self, "matrices", matrices)
        _set(self, "moves", moves)
        _set(self, "move_inverse", move_inverse)
        _set(self, "words", words)
        _set(self, "table", table)
        _set(self, "budget", budget)
        _set(self, "key", (spec, m, c))
        _set(self, "ring", spec.model.residue_ring(m + c))
        _set(self, "index", {code: x for x, code in enumerate(codes)})
        _set(self, "e", words.index(()))
        _set(self, "_inverses", None)
        _set(self, "_lifts", {})

    def _steps(self):
        """The move table; BudgetExceeded when the closure did not record it."""
        if self.table is None:
            _check_budget(len(self.codes) * len(self.moves), self.budget)
        return self.table

    def mul(self, a: int, b: int) -> int:
        """The class a b: b's word s_1 .. s_k walked from a along the move
        table, a s_1 .. s_k, k table reads."""
        steps = self.table or self._steps()
        for s in self.words[b]:
            a = steps[s][a]
        return a

    @property
    def inverses(self) -> list:
        """inverses[x] is the class x^-1: for x = s_1 .. s_k, the word
        s_k^-1 .. s_1^-1 walked from the identity; formed once."""
        if self._inverses is None:
            steps, move_inverse, out = self._steps(), self.move_inverse, []
            for word in self.words:
                x = self.e
                for s in reversed(word):
                    x = steps[move_inverse[s]][x]
                out.append(x)
            _set(self, "_inverses", out)
        return self._inverses

    def lift(self, x: int) -> GroupElement:
        """The canonical lift of class x into K (``lift_group``), formed once."""
        if x not in self._lifts:
            self._lifts[x] = lift_group(self.matrices[x], self.spec)
        return self._lifts[x]

    def witness_classes(self, ops, source) -> tuple:
        """The classes ([a], [b]^-1) of the witnesses a, b of g = a n_tau b
        that ``ops`` of an elimination make, their f and units in the ring
        ``source`` (o/pi^M of ``truncated_elimination``, M >= m + c, or o
        itself): their codes replayed (``_replay``) in the ring tables of
        R, each f and unit carried into R once (``source.residue``), read
        in ``index``, and [b]^-1 read off ``inverses``.  A code that is no
        class, which the integral ops of an elimination cannot give at m =
        0, raises InvariantViolated."""
        tables, ring = self.tables, self.ring
        index, add, mul, residue = tables.index, tables.add, tables.mul, source.residue
        a_t, b = _replay(
            ops, self.spec.n, index[ring.one().coords], 0,
            lambda x, y: add[x][y], lambda x, y: mul[x][y],
            lambda x: index[residue(x, ring)],
        )
        xi = self.index.get(tuple(x for col in zip(*a_t) for x in col))
        bi = self.index.get(tuple(x for row in b for x in row))
        if xi is None or bi is None:
            raise InvariantViolated(
                f"a replayed Cartan witness is no class of K_{self.m}/K_{self.m + self.c}")
        return xi, self.inverses[bi]

    def scaled_class(self, g: GroupElement, a: int) -> int:
        """The class of k = pi^-a g, for g in pi^a K_m: each entry of k
        (formed by ``FieldElement.shift``, no field product) reduced into
        R once and read in ``index``.

        Reduction K_m -> G(o/pi^(m+c)) is a group homomorphism with kernel
        K_(m+c) whose image is the classes (``_congruence_classes``), so the
        class of k in K_m/K_(m+c) is the one whose code is k's entries
        reduced.  A g outside pi^a K_m gives a code that is no class, which
        raises InvariantViolated (or an entry outside o, NegativeValuation)."""
        tables, ring = self.tables, self.ring
        index, entries = tables.index, g.entries
        if a:
            entries = [x.shift(-a) for x in entries]
        x = self.index.get(tuple(index[ring.reduce(y).coords] for y in entries))
        if x is None:
            raise InvariantViolated(
                f"pi^{-a} g is no class of K_{self.m}/K_{self.m + self.c}")
        return x

    def power_pairs(self, shape) -> list:
        """The sorted index pairs (x(u), y(u)) over the matrices u in M_n(R)
        with y(u) a class, where x(u)_ij = pi^sx u_ij and y(u)_ij = pi^sy
        u_ij for (sx, sy) = shape[i n + j], one of sx, sy zero at each
        entry.  That x(u) is then a class too is the caller's proof (for
        Gamma_tau, ``HeckeAlgebra._gamma``).

        One pass over the classes y finds them: where sy = 0, u_ij = y_ij
        and x_ij = pi^sx y_ij; where sy > 0, sx = 0 and x_ij = u_ij runs
        over the q^sy preimages of y_ij under pi^sy, or none (no u gives y).
        So each u with y(u) a class is met once, at y(u).  Pairs are
        distinct (each u_ij is x_ij or y_ij), and each x is looked up in
        ``index`` once."""
        tables, ring, codes = self.tables, self.ring, self.codes
        mul, q = tables.mul, self.spec.model.q
        pi, pi_pows = tables.index[ring.uniformizer().coords], [tables.index[ring.one().coords]]
        for _ in range(max(max(s) for s in shape)):
            pi_pows.append(mul[pi_pows[-1]][pi])
        preimages = [[[] for _ in tables.elements] for _ in pi_pows]  # [s][v]: u with pi^s u = v
        for s, p in enumerate(pi_pows):
            for u, v in enumerate(mul[p]):
                preimages[s][v].append(u)
        # picks[k][t] maps y_ij to x_ij = pi^sx u at entry k, u its t-th
        # preimage under pi^sy: one pick per entry is one u for each y kept
        picks, ys = [], range(len(codes))
        for k, (sx, sy) in enumerate(shape):
            row, pre = mul[pi_pows[sx]], preimages[sy]
            picks.append([[row[us[t]] if us else None for us in pre] for t in range(q**sy)])
            if sy:  # keep the y whose y_ij lies in the image of pi^sy
                ys = [yi for yi in ys if pre[codes[yi][k]]]
        columns = list(zip(*map(codes.__getitem__, ys)))  # columns[k][r] = codes[ys[r]][k]
        out = []
        for chosen in itertools.product(*picks):
            xs = zip(*[map(pick.__getitem__, col) for pick, col in zip(chosen, columns)])
            out.extend(zip(map(self.index.__getitem__, xs), ys))
        return sorted(out)

    def class_map(self, other: "ClassGroup", ring_map, name: str) -> list:
        """lam[x] = the class of ``other`` whose code is that of x mapped
        entry by entry through ``ring_map``, a map of the elements of R to
        those of the ring of ``other`` (lambda_m of a close pair), checked
        by ``check_isomorphism`` (``name`` in its message)."""
        index2 = other.tables.index
        images = [index2[ring_map(r).coords] for r in self.tables.elements]
        lam = [other.index.get(tuple(map(images.__getitem__, code))) for code in self.codes]
        self.check_isomorphism(lam, other, name)
        return lam

    def check_isomorphism(self, lam: list, other: "ClassGroup", name: str):
        """Raise InvariantViolated unless the class map x -> lam[x] (``name``
        in the message) is a group isomorphism onto ``other``: a bijection
        onto its classes with lam(e) = e' and lam(x s) = lam(x) lam(s) for
        every class x and every move s, |G| |S| checks.

        Those imply lam(x y) = lam(x) lam(y) for all classes x, y.  The
        moves generate G, so y = s_1 .. s_k (its word); induct on k.  At k
        = 0, lam(x e) = lam(x) = lam(x) e' = lam(x) lam(e).  For y = y' s,
        lam(x y' s) = lam(x y') lam(s) = lam(x) lam(y') lam(s) = lam(x)
        lam(y' s): the outer steps are the check at (x y', s) and at (y',
        s), the middle one the induction hypothesis at y'.
        """
        size = len(other.codes)
        if len(lam) != size or set(lam) != set(range(size)):
            raise InvariantViolated(f"{name} is not a bijection of the classes of K/K_m")
        if lam[self.e] != other.e:
            raise InvariantViolated(
                f"{name} is not multiplicative on K/K_m: it moves the identity class"
            )
        for s, row in enumerate(self._steps()):
            lam_s = lam[row[self.e]]  # the class of the move itself, e s = s
            for x, xs in enumerate(row):
                if lam[xs] != other.mul(lam[x], lam_s):
                    raise InvariantViolated(
                        f"{name} is not multiplicative on K/K_m at class {x}, move {s}"
                    )


def _congruence_classes(spec: GroupSpec, m: int, c: int, budget: int) -> ClassGroup:
    """The ``ClassGroup`` of the classes of G(o/pi^(m+c)) that are 1 mod
    pi^m (det = 1 for SL), by breadth-first closure from the identity under
    the moves of ``_class_moves``, sorted once at the end.

    They are in bijection with K_m/K_(m+c).  Reduction K_m -> G(o/pi^(m+c))
    is a group homomorphism with kernel K_(m+c), and its image lies in the
    classes that are 1 mod pi^m.  The image is all of them: ``lift_group``
    sends such a class r to an element of K that reduces to r, and that
    element is 1 mod pi^m, so it lies in K_m.  At m = 0 the classes are
    all of G(o/pi^c), that is K/K_c.  The moves generate it (the proof is
    in ``ClassGroup``), and the closure must have the closed-form size of
    ``_class_count``, else InvariantViolated: a move missing from S shows
    as a short closure.

    The budget is charged q^(c n^2), a bound on the classes taken by
    exponent, before the ring is built, and then the |o/pi^(m+c)|^2
    entries of its tables (``ResidueRing.tables``).  That second charge
    grows with m, not with the classes: GL2/Q_2 at c = 1 has 16 classes at
    every m >= 1, yet m = 9 needs the 1024^2 tables of o/pi^10 and exceeds
    the default budget while m = 4 passes.  (For m >= c, K_m/K_(m+c) is
    abelian, additive in M_n(o/pi^c), and would need no such ring.)  The
    matrices share one tuple per distinct row.  Indices are ordered as the
    coords of their elements, and ``sort_key`` is the row-major tuple of
    entry coords, so sorting codes is sorting by ``sort_key``.  At m + c =
    0 the ring is the zero ring, whose one element is 1: no move, and one
    class, K/K_0 = 1.
    """
    n = spec.n
    _check_budget_power(spec.model.q, c * n * n, budget)
    order = _class_count(spec, m, c)
    ring = spec.model.residue_ring(m + c)
    tables = ring.tables(budget)
    moves, inverse = _class_moves(spec, m, ring, tables)
    add, one = tables.add, tables.index[ring.one().coords]
    identity = tuple(one if i == j else 0 for i in range(n) for j in range(n))
    mismatch = (f"closure of {spec.family}_{n} mod pi^{m + c} at level {m} does not "
                f"have the closed-form {order} classes")
    table = [[0] * order for _ in moves] if order * len(moves) <= budget else None
    found, codes, words = {identity: 0}, [identity], [()]
    for x, code in enumerate(codes):  # grows while it is read
        for s, move in enumerate(moves):
            out = _apply_move(move, code, add)
            y = found.get(out)
            if y is None:
                if len(codes) == order:
                    raise InvariantViolated(mismatch)
                y = found[out] = len(codes)
                codes.append(out)
                words.append(words[x] + (s,))
            if table is not None:
                table[s][x] = y
    if len(codes) != order:
        raise InvariantViolated(mismatch)
    ranked = sorted(range(order), key=codes.__getitem__)
    rank = {x: r for r, x in enumerate(ranked)}
    entry, offsets = tables.elements.__getitem__, range(0, n * n, n)
    rows = {k: tuple(map(entry, k)) for k in {x[r:r + n] for x in codes for r in offsets}}
    return ClassGroup(
        spec,
        m,
        c,
        tables,
        [codes[x] for x in ranked],
        [ResidueMatrix(ring, tuple(rows[codes[x][r:r + n]] for r in offsets)) for x in ranked],
        moves,
        inverse,
        [words[x] for x in ranked],
        None if table is None else [[rank[row[x]] for x in ranked] for row in table],
        budget,
    )


def enumerate_residue_matrices(spec: GroupSpec, m: int, budget: int = DEFAULT_BUDGET):
    """Invertible matrices over o/pi^m (det = 1 for SL), sorted canonically:
    the classes of K/K_m of ``_congruence_classes(spec, 0, m, budget)``."""
    return list(_congruence_classes(spec, 0, m, budget).matrices)


def enumerate_residue(spec: GroupSpec, m: int, budget: int = DEFAULT_BUDGET):
    """Coset representatives of K/K_m, lifted canonically into K."""
    return [lift_group(r, spec) for r in enumerate_residue_matrices(spec, m, budget)]


def kernel_count(spec: GroupSpec, m: int, c: int) -> int:
    """|K_m/K_(m+c)| for m >= 1: q^(c n^2) for GL, q^(c (n^2-1)) for SL."""
    q = spec.model.q
    dim = spec.n**2 if spec.family == GL else spec.n**2 - 1
    return q ** (c * dim)


def iter_kernel(spec: GroupSpec, m: int, c: int, budget: int = DEFAULT_BUDGET):
    """Yield exact coset representatives of K_m/K_(m+c), one per class:
    the canonical lifts of ``_congruence_classes``.  The budget is charged
    the |o/pi^(m+c)|^2 ring-table entries as well as q^(c n^2), so a deep
    level m raises BudgetExceeded however few classes there are."""
    for r in _congruence_classes(spec, m, c, budget).matrices:
        yield lift_group(r, spec)
