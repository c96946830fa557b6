"""Split matrix groups GL_n, SL_n over a local-field model.

Provides the hyperspecial maximal compact K = G(o) and its congruence
filtration K_m, the Cartan factorization g = a * n_tau * b computed by
Smith normal form over the valuation ring (and the type tau alone from the
valuations of minors), the diagonal cocharacter section tau -> n_tau =
diag(pi^a_1, ..., pi^a_n), and exact enumeration of the finite quotients
K/K_m and K_m/K_(m+c).
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
    FieldElement,
    FieldModel,
    ResidueElement,
    ResidueRing,
    mixed_dot,
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
        """The cocharacter section: diag(pi^a_1, ..., pi^a_n)."""
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
        return GroupElement(self, rows)


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

    For the SL family the determinant is required to be exactly 1; the
    element then keeps the model's shared one as its determinant.
    """

    __slots__ = ("group", "rows", "_det")

    def __init__(self, group: GroupSpec, rows, _det=None):
        self.group = group
        self.rows = tuple(tuple(row) for row in rows)
        if len(self.rows) != group.n or any(len(r) != group.n for r in self.rows):
            raise ParseError(f"{group.family}_{group.n} needs a {group.n} x {group.n} matrix")
        self._det = _det
        d = self.det()
        if d.is_zero():
            raise Singular("matrix has determinant zero")
        if group.family == SL:
            one = group.model.one()
            if d != one:
                raise Singular(f"SL element must have determinant 1, got {d}")
            self._det = one  # the shared one, not a copy per element

    def det(self) -> FieldElement:
        if self._det is None:
            self._det = _cofactor_det(self.rows, self.group.model.zero())
        return self._det

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise MixedRings(f"{self.group.family}_{self.group.n}({self.group.model}) times "
                             f"{other.group.family}_{other.group.n}({other.group.model})")
        n = self.group.n
        rows = tuple(
            tuple(
                _dot(self.rows[i], tuple(other.rows[k][j] for k in range(n)))
                for j in range(n)
            )
            for i in range(n)
        )
        return GroupElement(self.group, rows, _det=self.det() * other.det())

    def inverse(self) -> "GroupElement":
        det_inv = self.det().inverse()
        inv_rows = _cofactor_inverse(self.rows, det_inv, self.group.model.zero())
        return GroupElement(self.group, inv_rows, _det=det_inv)

    # -- membership in the congruence filtration -------------------------------

    def in_k(self) -> bool:
        """Membership in K = G(o): integral entries, unit determinant."""
        if not all(x.is_integral() for row in self.rows for x in row):
            return False
        return self.det().is_unit()

    def in_km(self, m: int) -> bool:
        """Membership in K_m = Ker(G(o) -> G(o/pi^m)); K_0 = K."""
        if m == 0:
            return self.in_k()
        if not self.in_k():
            return False
        one = self.group.model.one()
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                delta = x - one if i == j else x
                if delta.val() < m:
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group == self.group
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.group, self.rows))

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"

    __repr__ = __str__

    def serialize(self):
        return [[str(x) for x in row] for row in self.rows]


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
    takes its fix from ``_eliminate`` instead): the result has determinant
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
# row i by x (j unused).
_SWAP, _ADD, _SCALE = range(3)


def _eliminate(g: GroupElement, rng=None):
    """The Smith-normal-form elimination of g over the valuation ring, as
    (tau, ops, sign): ops carry two identity matrices to the witnesses A^T
    and B of g = A n_tau B (``_replay``), and sign = det A = +-1.

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
    g = n_tau), costs no field inverse.  Only M is computed, no witness.
    """
    spec = g.group
    model = spec.model
    n = spec.n
    M = [list(row) for row in g.rows]
    ops = []
    swaps = 0  # of A's columns, whose parity is the sign of det A

    for k in range(n):
        pi, pj = _pick_pivot(M, k, rng)
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            ops.append((_SWAP, 0, k, pi, None))  # A <- A * swap
            swaps += 1
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            ops.append((_SWAP, 1, k, pj, None))
        pivot_inv = None
        for i in range(k + 1, n):
            if M[i][k].is_zero():
                continue
            if pivot_inv is None:
                pivot_inv = M[k][k].inverse()
            f = M[i][k] * pivot_inv  # integral: pivot has minimal valuation
            if not f.is_integral():
                raise InvariantViolated(f"SNF row multiplier {f} is not integral")
            for c in range(k, n):
                M[i][c] = M[i][c] - f * M[k][c]
            ops.append((_ADD, 0, k, i, f))  # column k of A += f column i
        for j in range(k + 1, n):
            if M[k][j].is_zero():
                continue
            if pivot_inv is None:
                pivot_inv = M[k][k].inverse()
            f = M[k][j] * pivot_inv
            if not f.is_integral():
                raise InvariantViolated(f"SNF column multiplier {f} is not integral")
            for r in range(k, n):
                M[r][j] = M[r][j] - f * M[r][k]
            ops.append((_ADD, 1, k, j, f))  # row k of B += f row j

    # normalize the diagonal to exact pi powers
    ds = []
    for k in range(n):
        d = M[k][k].val()
        if d == float("inf"):
            raise InvariantViolated("singular input slipped through to the SNF diagonal")
        ds.append(int(d))
        ops.append((_SCALE, 1, k, None, M[k][k] * model.pi_pow(-ds[-1])))

    # reverse so the exponents are weakly decreasing (dominant)
    for k in range(n // 2):
        ops += [(_SWAP, 0, k, n - 1 - k, None), (_SWAP, 1, k, n - 1 - k, None)]
    sign = -1 if (swaps + n // 2) % 2 else 1
    if spec.family == SL and sign < 0:
        # column 0 of A times det(A)^-1 = sign, row 0 of B times det(A)
        minus_one = model.from_int(-1)
        ops += [(_SCALE, 0, 0, None, minus_one), (_SCALE, 1, 0, None, minus_one)]
    return CartanDatum(tuple(ds[::-1])), ops, sign


def _replay(ops, n: int, one, zero, add, mul, scalar):
    """The rows of (A^T, B) that ``ops`` of ``_eliminate`` make of two n x n
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
    are repaired to determinant one by the sign fix of ``_eliminate``.  For
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


def cartan_type(g: GroupElement) -> CartanDatum:
    """The tau of g in K n_tau K, from the valuations of minors alone.

    Let d_k(g) be the least valuation of a k x k minor of g, d_0 = 0, so
    d_n = v(det g).  Then a_n + ... + a_(n-k+1) = d_k(g).

    Proof.  By Cauchy-Binet a k x k minor of h g (or g h) is a sum of
    products of a k x k minor of h and one of g.  For h in M_n(o) the
    minors of h are integral, so d_k(h g) >= d_k(g) and d_k(g h) >=
    d_k(g); applied to k1^-1 and k2^-1 as well this gives d_k(k1 g k2) =
    d_k(g) for k1, k2 in K.  Hence d_k(g) = d_k(n_tau).  A k x k minor of
    the diagonal n_tau is nonzero only on equal row and column sets S,
    where it is pi^(sum of a_i over S), and the least such sum takes the k
    smallest a_i.  Nothing here asks g to be integral.  (Equivalently: for
    integral g the d_k are the determinantal divisors of its Smith normal
    form over o, and pi^c g scales every k x k minor by pi^(kc) and adds c
    to every a_i, which carries the formula to all of GL_n(F).)  So
    a_(n-k+1) = d_k - d_(k-1), with no witness and no field inverse.
    """
    n = g.group.n
    zero = g.group.model.zero()
    rows = g.rows
    d = [0]
    for k in range(1, n):
        d.append(min(
            _cofactor_det([[rows[i][j] for j in cols] for i in rs], zero).val()
            for rs in itertools.combinations(range(n), k)
            for cols in itertools.combinations(range(n), k)
        ))
    d.append(g.det().val())
    return CartanDatum(tuple(int(d[n - i] - d[n - i - 1]) for i in range(n)))


def _pick_pivot(M, k, rng):
    n = len(M)
    best = None
    candidates = []
    for i in range(k, n):
        for j in range(k, n):
            v = M[i][j].val()
            if best is None or v < best:
                best = v
                candidates = [(i, j)]
            elif v == best:
                candidates.append((i, j))
    if best is None or best == float("inf"):
        raise InvariantViolated("zero submatrix in SNF")
    if rng is not None and len(candidates) > 1:
        return candidates[rng.randrange(len(candidates))]
    return candidates[0]


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

    @staticmethod
    def identity(ring: ResidueRing, n: int) -> "ResidueMatrix":
        one, zero = ring.one(), ring.zero()
        return ResidueMatrix(
            ring, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

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

    def det(self) -> ResidueElement:
        return _cofactor_det(self.rows, self.ring.zero())

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


class ClassClosure(FrozenRecord):
    """The classes of ``_congruence_classes`` in index arithmetic, over
    ``tables``, the ``RingTables`` of o/pi^(m+c).

    ``codes[x]`` is the code of class x and ``matrices[x]`` its
    ``ResidueMatrix``, in increasing ``sort_key`` order.  ``moves`` and
    ``inverse`` are those of ``_class_moves``, and ``words[x]`` is a
    shortest tuple of moves s_1, .., s_k with x = s_1 .. s_k (the
    breadth-first parent pointers), so that x y is y's word walked from x
    along ``table``, table[s][x] = x s (None unless the budget admits it).
    """

    __slots__ = ("tables", "codes", "matrices", "moves", "inverse", "words", "table")

    def __init__(self, tables, codes: list, matrices: list, moves: list, inverse: list,
                 words: list, table: list | None):
        _set(self, "tables", tables)
        _set(self, "codes", codes)
        _set(self, "matrices", matrices)
        _set(self, "moves", moves)
        _set(self, "inverse", inverse)
        _set(self, "words", words)
        _set(self, "table", table)


def _congruence_classes(spec: GroupSpec, m: int, c: int, budget: int) -> ClassClosure:
    """The classes of G(o/pi^(m+c)) that are 1 mod pi^m (det = 1 for SL),
    by breadth-first closure from the identity under the moves of
    ``_class_moves``, sorted once at the end.

    They are in bijection with K_m/K_(m+c).  Reduction K_m -> G(o/pi^(m+c))
    is a group homomorphism with kernel K_(m+c), and its image lies in the
    classes that are 1 mod pi^m.  The image is all of them: ``lift_group``
    sends such a class r to an element of K that reduces to r, and that
    element is 1 mod pi^m, so it lies in K_m.  At m = 0 the classes are
    all of G(o/pi^c), that is K/K_c.

    The moves generate this group, G say, in R = o/pi^(m+c), P = pi^m R:
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
    every product of moves, so the closure is G.  It must have the closed-
    form size of ``_class_count``, else InvariantViolated: a move missing
    from S shows as a short closure.

    The budget is charged q^(c n^2), a bound on the classes taken by
    exponent, before the ring is built, and then the |o/pi^(m+c)|^2
    entries of its tables (``ResidueRing.tables``).  That second charge
    grows with m, not with the classes: GL2/Q_2 at c = 1 has 16 classes at
    every m >= 1, yet m = 9 needs the 1024^2 tables of o/pi^10 and exceeds
    the default budget while m = 4 passes.  (For m >= c, K_m/K_(m+c) is
    abelian, additive in M_n(o/pi^c), and would need no such ring.)  The
    closure keeps O(|G|) codes,
    words and matrices (which share one tuple per distinct row), and the
    |G| |S| move-table entries it meets only when the budget admits them.
    Indices are ordered as the coords of their elements, and ``sort_key``
    is the row-major tuple of entry coords, so sorting codes is sorting by
    ``sort_key``.  At m + c = 0 the ring is the zero ring, whose one
    element is 1: no move, and one class, K/K_0 = 1.
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
    return ClassClosure(
        tables,
        [codes[x] for x in ranked],
        [ResidueMatrix(ring, tuple(rows[codes[x][r:r + n]] for r in offsets)) for x in ranked],
        moves,
        inverse,
        [words[x] for x in ranked],
        None if table is None else [[rank[row[x]] for x in ranked] for row in table],
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
