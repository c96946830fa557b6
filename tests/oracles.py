"""Slow reference implementations that the tests compare the library against.

Each one computes its object straight from the definition, sharing no code
path with the fast route it checks.
"""

import itertools
import operator
from fractions import Fraction

from heckelab.errors import InvariantViolated, Singular
from heckelab.hecke import DoubleCosetLabel, HeckeAlgebra
from heckelab.localfield import FieldElement, poly_divmod, poly_gcd, poly_mul, poly_trim
from heckelab.matgrp import (
    _ADD,
    _SCALE,
    _SWAP,
    DEFAULT_BUDGET,
    SL,
    CartanDatum,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    _cofactor_det,
    _eliminate,
    _Field,
    _replay,
    _subgroup_generators,
    cartan,
    iter_kernel,
    lift_group,
    reduce_group,
)


def _q_poly_divmod(a, b):
    """Division with remainder in Q[x]; low-first Fraction lists."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(a))
    while len(a) - 1 >= db and a:
        c = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] = c
        for i in range(db + 1):
            a[shift + i] -= c * b[i]
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _q_poly_invmod(a, modulus):
    """Inverse of a modulo an irreducible polynomial over Q (extended gcd)."""
    r0, r1 = list(modulus), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(c != 0 for c in r1):
        q, r = _q_poly_divmod(r0, r1)
        # s_next = s0 - q*s1
        s_next = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    s_next[i + j] -= qc * sc
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    # r0 is a nonzero constant c with s0*a = c mod modulus
    const = r0[0]
    if not (all(c == 0 for c in r0[1:]) and const != 0):
        raise InvariantViolated("polynomial gcd with the irreducible modulus is not a unit")
    return [c / const for c in s0]


def _polymod_intcoeffs(a, m, p):
    """Remainder of a modulo monic m, coefficients in Z/p, low-first tuples."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while a and a[-1] % p == 0:
        a.pop()
    return tuple(c % p for c in a)


def gf_product_by_digits(k, a, b):
    """a b in k = GF(p^f): the schoolbook product of the digit polynomials,
    reduced by the field's modulus.  Reference oracle for GF.mul."""
    p, f = k.p, k.f
    da, db = k._digits(a), k._digits(b)
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    rem = _polymod_intcoeffs(tuple(prod), k.modulus, p)
    return k._encode(rem + (0,) * (f - len(rem)))


def poly_divmod_by_trim(k, a, b):
    """(q, r) with a = q b + r and deg r < deg b over k = GF(q), by the
    long division that tests the whole remainder for zero (a trimmed copy)
    on every step and subtracts every coefficient of b, zeros and the top
    one included.  Reference oracle for localfield.poly_divmod."""
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


def irreducible_by_trial_division(p, f):
    """The first monic polynomial of degree f over F_p, low coefficients in
    ``itertools.product`` order, that no monic polynomial of degree 1 to
    f // 2 divides.  Reference oracle for GF._find_irreducible."""
    for tail in itertools.product(range(p), repeat=f):
        poly = tail + (1,)
        if all(
            _polymod_intcoeffs(poly, div + (1,), p) != ()
            for d in range(1, f // 2 + 1)
            for div in itertools.product(range(p), repeat=d)
        ):
            return poly
    raise InvariantViolated(f"no irreducible polynomial of degree {f} over F_{p}")


def inverse_by_extended_gcd(x):
    """x^-1 in the mixed model by the extended gcd of its coordinate
    polynomial with the Eisenstein polynomial pi^e - p, in Fractions.
    Reference oracle for FieldElement.inverse."""
    model = x.model
    e = model.e
    modulus = [Fraction(-model.p)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    s = _q_poly_invmod(list(x.coords), modulus)
    return FieldElement(model, tuple(s[:e] + [Fraction(0)] * (e - len(s))))


def random_integral_by_fractions(model, rng, depth=3):
    """A mixed-model random_integral built from one Fraction per
    coordinate, with the same rng calls in the same order.  Reference
    oracle for sampling.random_integral."""
    p = model.p
    coords = []
    for _ in range(model.e):
        num = rng.randrange(-(p**depth), p**depth + 1)
        den = 1
        if rng.random() < 0.25:
            den = rng.choice([d for d in range(2, 2 * p + 2) if d % p != 0])
        coords.append(Fraction(num, den))
    return FieldElement(model, tuple(coords))


def ratfun_product_by_gcd(model, x, y):
    """The product of two equal-model fractions x = (n1, d1) and y = (n2,
    d2), neither reduced nor monic in general (denominators nonzero), as
    one fraction (n1 n2)/(d1 d2) reduced by one gcd and scaled to a monic
    denominator.  Reference oracle for the cross-cancelled
    FieldElement.__mul__ and for FieldElement.inverse (x = (den, num),
    y = (1, 1))."""
    k = model.gf
    num, den = poly_mul(k, x[0], y[0]), poly_mul(k, x[1], y[1])
    if not num:
        return FieldElement(model, ((), (1,)), _canonical=True)
    g = poly_gcd(k, num, den)
    if len(g) > 1:
        num, den = poly_divmod(k, num, g)[0], poly_divmod(k, den, g)[0]
    lead_inv = k.inv(den[-1])
    num = tuple(k.mul(c, lead_inv) for c in num)
    den = tuple(k.mul(c, lead_inv) for c in den)
    return FieldElement(model, (num, den), _canonical=True)


def _pick_pivot_full(M, k, rng):
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


def eliminate_full_update(g: GroupElement, rng=None, trailing_row_update=True):
    """The Smith-normal-form elimination of g that forms every entry it
    updates: the row step subtracts f times the pivot row from column k on
    (so M[i][k] is computed, and is zero), the column step subtracts f
    times column k from every row from k on (column k below the pivot is
    zero there), and the diagonal is normalized by the valuation of the
    final M[k][k].  Reference oracle for matgrp._eliminate, whose
    (tau, ops, sign) it must give.  ``trailing_row_update=False`` drops the
    row step's update of columns k+1..n-1, a broken double that the tests
    check the oracle tells apart."""
    spec = g.group
    model = spec.model
    n = spec.n
    M = [list(row) for row in g.rows]
    ops = []
    swaps = 0

    for k in range(n):
        pi, pj = _pick_pivot_full(M, k, rng)
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            ops.append((_SWAP, 0, k, pi, None))
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
            f = M[i][k] * pivot_inv
            if not f.is_integral():
                raise InvariantViolated(f"SNF row multiplier {f} is not integral")
            for c in range(k, n if trailing_row_update else k + 1):
                M[i][c] = M[i][c] - f * M[k][c]
            ops.append((_ADD, 0, k, i, f))
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
            ops.append((_ADD, 1, k, j, f))

    ds = []
    for k in range(n):
        d = M[k][k].val()
        if d == float("inf"):
            raise InvariantViolated("singular input slipped through to the SNF diagonal")
        ds.append(int(d))
        ops.append((_SCALE, 1, k, None, M[k][k] * model.pi_pow(-ds[-1])))

    for k in range(n // 2):
        ops += [(_SWAP, 0, k, n - 1 - k, None), (_SWAP, 1, k, n - 1 - k, None)]
    sign = -1 if (swaps + n // 2) % 2 else 1
    if spec.family == SL and sign < 0:
        minus_one = model.from_int(-1)
        ops += [(_SCALE, 0, 0, None, minus_one), (_SCALE, 1, 0, None, minus_one)]
    return CartanDatum(tuple(ds[::-1])), ops, sign


def matmul_by_dots(x: GroupElement, y: GroupElement) -> GroupElement:
    """x y by the n^3 definition: entry (i, j) the field sum of x_ik y_kj
    over every k, zero terms included, and the determinant left to
    GroupElement's cofactor expansion.  Reference oracle for the scaled
    rows and columns of GroupElement.__matmul__ with a diagonal factor."""
    n = x.group.n
    rows = [[x.rows[i][0] * y.rows[0][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(1, n):
                rows[i][j] = rows[i][j] + x.rows[i][k] * y.rows[k][j]
    return GroupElement(x.group, rows)


def residue_det(r: ResidueMatrix):
    """The determinant of a residue matrix, by cofactor expansion of its
    entries in the residue ring."""
    return _cofactor_det(r.rows, r.ring.zero())


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
    Reference oracle for the tau of cartan and of _eliminate, by a route
    that shares no elimination with them.
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


def residue_identity(ring, n: int) -> ResidueMatrix:
    """The n x n identity matrix over the residue ring ``ring``."""
    one, zero = ring.one(), ring.zero()
    return ResidueMatrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])


def residue_matrices_by_object_sweep(spec, m):
    """Invertible matrices over o/pi^m (det = 1 for SL) from a sweep of
    ResidueMatrix objects and their determinants, sorted by sort_key.
    Reference oracle for enumerate_residue_matrices."""
    ring = spec.model.residue_ring(m)
    if m == 0:
        return [residue_identity(ring, spec.n)]
    n, one = spec.n, ring.one()
    out = []
    for flat in itertools.product(list(ring.elements()), repeat=n * n):
        mat = ResidueMatrix(ring, (flat[i * n:(i + 1) * n] for i in range(n)))
        d = residue_det(mat)
        if d == one if spec.family == "SL" else d.is_unit():
            out.append(mat)
    return sorted(out, key=lambda mat: mat.sort_key())


def code_product(x, y, n: int, tables):
    """The code of the product of the n x n matrices with codes x and y,
    by the row-column sum in the ring's tables."""
    add, mul = tables.add, tables.mul
    out = []
    for i in range(0, n * n, n):
        row = x[i:i + n]
        for j in range(n):
            acc = mul[row[0]][y[j]]
            for k in range(1, n):
                acc = add[acc][mul[row[k]][y[k * n + j]]]
            out.append(acc)
    return tuple(out)


def code_det(rows, tables) -> int:
    """The index of the determinant of the matrix whose rows of entry
    indices are ``rows``: cofactor expansion along the first row in the
    ring's tables."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    add, mul, neg = tables.add, tables.mul, tables.neg
    if n == 2:
        return add[mul[rows[0][0]][rows[1][1]]][neg[mul[rows[0][1]][rows[1][0]]]]
    acc = 0  # index 0 is zero
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        term = mul[x][code_det([r[:j] + r[j + 1:] for r in rows[1:]], tables)]
        acc = add[acc][term if j % 2 == 0 else neg[term]]
    return acc


def mul_table_by_products(algebra):
    """Cayley table of K/K_m with every entry a residue-matrix product.
    Reference oracle for ClassGroup.mul and ClassGroup.inverses."""
    q = algebra.residue_classes
    idx = {mat: i for i, mat in enumerate(q)}
    return [[idx[a @ b] for b in q] for a in q]


def classify_by_witnesses(algebra, g, rng=None):
    """The label of K_m g K_m from cartan's exact witnesses a, b (``rng``
    randomizes its pivot tie-breaks): a and b^-1 reduced entry by entry to
    residue matrices mod pi^m and found among the algebra's classes.
    Reference oracle for classify, which replays the elimination on codes
    and forms no witness."""
    fac = cartan(g, rng=rng)
    index = {mat: i for i, mat in enumerate(algebra.residue_classes)}
    x = index[reduce_group(fac.a, algebra.m)]
    y = index[reduce_group(fac.b.inverse(), algebra.m)]
    return algebra.canonical_label(fac.tau, x, y)


def exact_witness_classes(algebra, g, rng=None):
    """The classes ([a], [b]^-1) of the witnesses of g by the exact
    elimination (``_eliminate``, ``rng`` randomizing its tie-breaks), its
    ops replayed on the codes of o/pi^m with each f and unit reduced from
    o: the route classify took before it eliminated mod a power of pi."""
    tau, ops, _ = _eliminate(g, rng)
    return tau, algebra.group.witness_classes(ops, _Field(g.group.model))


def classify_by_exact_elimination(algebra, g):
    """The label of K_m g K_m from ``exact_witness_classes``.  Reference
    oracle for classify, which eliminates pi^-a g mod pi^(max(m, 1) +
    delta) and must return the identical label object."""
    tau, (x, y) = exact_witness_classes(algebra, g)
    return algebra.canonical_label(tau, x, y)


def residue_witnesses_by_exact_elimination(g, N, rng=None):
    """(tau, a mod pi^N, b mod pi^N) from the exact elimination of g, its
    ops replayed on residues of o/pi^N with each f and unit reduced from o.
    Reference oracle for matgrp.residue_witnesses, which eliminates mod
    pi^(N + delta)."""
    ring = g.group.model.residue_ring(N)
    tau, ops, _ = _eliminate(g, rng)
    a_t, b = _replay(ops, g.group.n, ring.one(), ring.zero(), operator.add, operator.mul,
                     ring.reduce)
    return tau, ResidueMatrix(ring, tuple(zip(*a_t))), ResidueMatrix(ring, b)


def dc_equal_kernel_sweep(g, h, m, budget=DEFAULT_BUDGET):
    """Literal bounded-kernel search: exists k in K_m/K_(m+2|tau|) with
    h^-1 k g in K_m.  Reference oracle for dc_equal."""
    fg = cartan(g)
    fh = cartan(h)
    if fg.tau != fh.tau:
        return False
    c = 2 * fg.tau.norm
    h_inv = h.inverse()
    for k in iter_kernel(g.group, m, c, budget):
        if (h_inv @ k @ g).in_km(m):
            return True
    return False


def left_cosets_kernel_sweep(g, m, budget=DEFAULT_BUDGET):
    """Literal sweep of k g over K_m/K_(m+2|tau|) with pairwise dedup.
    Reference oracle for left_cosets."""
    fac = cartan(g)
    c = 2 * fac.tau.norm
    reps = []
    for k in iter_kernel(g.group, m, c, budget):
        cand = k @ g
        if not any((r.inverse() @ cand).in_km(m) for r in reps):
            reps.append(cand)
    return reps


def gamma_by_sweep(spec, tau, m, budget=DEFAULT_BUDGET):
    """Gamma_tau from its definition: ([x], [y]) stabilizes K_m n_tau K_m iff
    x n_tau y^-1 lies in one of its left cosets alpha_i K_m, the alpha_i
    from the kernel sweep of ``left_cosets_kernel_sweep``.  One sweep per
    tau rather than one per pair (``dc_equal_kernel_sweep``), which for
    GL2/Q_3 would be |K/K_m|^2 = 2304 sweeps of 3^8 points.  Reference
    oracle for the stabilizer in orbit_table."""
    algebra = HeckeAlgebra(spec, m, budget)
    n_tau = spec.n_of_tau(tau)
    alpha_inv = [a.inverse() for a in left_cosets_kernel_sweep(n_tau, m, budget)]
    out = []
    q = algebra.residue_classes
    for i, xm in enumerate(q):
        x = algebra.group.lift(i)
        for j in range(len(q)):
            g = x @ n_tau @ algebra.group.lift(j).inverse()
            if any((a @ g).in_km(m) for a in alpha_inv):
                out.append((xm, q[j]))
    return out


def gamma_by_exact_witnesses(algebra, tau):
    """Gamma_tau from exact stabilizing pairs, as sorted class-index pairs.

    Every stabilizing pair arises as ([n_tau y n_tau^-1], [y]) for y in
    H_tau = K meet n_tau^-1 K n_tau, so y runs over the field matrices with
    entry (i, j) in pi^max(a_j - a_i, 0) * (lifts of o/pi^m), kept when
    det y is a unit (SL: = 1 mod pi^m, then fixed to exactly 1); both
    witnesses are built as exact group elements and reduced mod pi^m.
    Reference oracle for HeckeAlgebra._gamma.
    """
    spec, m = algebra.spec, algebra.m
    model, n = spec.model, spec.n
    idx = {mat: i for i, mat in enumerate(algebra.residue_classes)}
    if m == 0:
        e = idx[reduce_group(spec.identity(), 0)]
        return [(e, e)]
    a = tau.coords
    ring_m = model.residue_ring(m)
    pool = [w.lift() for w in ring_m.elements()]
    entry_values = [
        [model.pi_pow(max(a[j] - a[i], 0)) * w for w in pool]
        for i in range(n)
        for j in range(n)
    ]
    gl_spec = GroupSpec("GL", n, model)
    out = set()
    for combo in itertools.product(*entry_values):
        rows = [list(combo[i * n:(i + 1) * n]) for i in range(n)]
        try:
            det = GroupElement(gl_spec, rows).det()
        except Singular:
            continue
        if det.val() != 0:
            continue
        if spec.family == "SL":
            if det.residue(m) != ring_m.one():
                continue
            det_inv = det.inverse()
            for row in rows:
                row[0] = row[0] * det_inv
        y = GroupElement(spec, rows)
        x = GroupElement(spec, [
            [y.rows[i][j] * model.pi_pow(a[i] - a[j]) for j in range(n)] for i in range(n)
        ])
        out.add((idx[reduce_group(x, m)], idx[reduce_group(y, m)]))
    return sorted(out)


def canonical_by_orbits(algebra, taus):
    """{tau: {(xi, yi): label}} over all pairs of classes: the orbits of
    (K/K_m)^2 under right multiplication by Gamma_tau, each labelled by
    its least pair, from ``mul_table_by_products`` and
    ``gamma_by_exact_witnesses``.  Reference oracle for
    HeckeAlgebra.canonical_label."""
    q = algebra.residue_classes
    mul = mul_table_by_products(algebra)
    out = {}
    for tau in taus:
        gamma = gamma_by_exact_witnesses(algebra, tau)
        labels = out[tau] = {}
        for xi, yi in itertools.product(range(len(q)), repeat=2):
            if (xi, yi) not in labels:
                label = DoubleCosetLabel(tau, xi, yi, algebra.group)
                for s, t in gamma:
                    labels[(mul[xi][s], mul[yi][t])] = label
    return out


def transport_element_by_witnesses(ctx, g, rng=None):
    """lift' . lambda_N . reduce_N of cartan's exact witnesses a, b of g =
    a n_tau b (``rng`` randomizes its pivot tie-breaks), times n'_tau on
    side 2.  Reference oracle for TransportContext.transport_element, which
    replays the elimination on residues and forms no exact witness."""
    fac = cartan(g, rng=rng)
    ring2 = ctx.pair.model_f2.residue_ring(ctx.N)
    a2, b2 = (lift_group(reduce_group(w, ctx.N).map_entries(ctx.pair.apply, ring2), ctx.spec2)
              for w in (fac.a, fac.b))
    return a2 @ ctx.spec2.n_of_tau(fac.tau) @ b2


def transport_label_by_witnesses(ctx, label):
    """The label of the transported representative: refactor it, carry the
    witnesses through lambda_N and classify on side 2.  Needs N >= m +
    2|tau|.  Reference oracle for TransportContext.transport_label."""
    return ctx.algebra2.classify(ctx.transport_element(ctx.algebra.representative(label)))


def _cosets(algebra, label):
    """Left cosets of a label's double coset, from the Cartan factorization
    of its representative (``left_cosets``), not from its residue pair."""
    return algebra.left_cosets(algebra.representative(label))


def structure_constants_by_tally(algebra, l1, l2):
    """Classify all alpha_i beta_j and divide each label tally by its degree
    (counting-measure conservation).  Reference oracle for
    structure_constants."""
    tally = {}
    for alpha in _cosets(algebra, l1):
        for beta in _cosets(algebra, l2):
            lab = algebra.classify(alpha @ beta)
            tally[lab] = tally.get(lab, 0) + 1
    out = {}
    for lab, cnt in tally.items():
        deg = algebra.degree(lab)
        if cnt % deg:
            raise InvariantViolated(f"tally {cnt} of {lab} not divisible by degree {deg}")
        out[lab] = cnt // deg
    return out


def structure_constants_by_membership(algebra, l1, l2):
    """Classify all alpha_i beta_j for the support, then count each constant
    from its definition c_x = #{i : alpha_i^-1 x in K_m h K_m}, one in_km
    test per (i, j).  Reference oracle for structure_constants."""
    m = algebra.m
    g_cosets = _cosets(algebra, l1)
    h_cosets = _cosets(algebra, l2)
    support = {}
    for alpha in g_cosets:
        for beta in h_cosets:
            cand = alpha @ beta
            support.setdefault(algebra.classify(cand), cand)
    g_inv = [alpha.inverse() for alpha in g_cosets]
    h_inv = [beta.inverse() for beta in h_cosets]
    out = {}
    for lab, x in support.items():
        count = 0
        for alpha_inv in g_inv:
            u = alpha_inv @ x
            if any((beta_inv @ u).in_km(m) for beta_inv in h_inv):
                count += 1
        # every support label is some alpha_i beta_j, so its count is at least 1
        if count == 0:
            raise InvariantViolated(f"support label {lab} of {l1} * {l2} has count 0")
        out[lab] = count
    return out


def double_coset_by_generators(alg, tau1, tau2):
    """table[k] = (k0, s, t'^-1) with k = t k0 s', (s, t) in Gamma_tau1,
    (s', t') in Gamma_tau2 and k0 the least index of P2 k P1, by a
    breadth-first sweep: the least index not yet reached starts a double
    coset, closed under left steps by generators t_a of P2 and right steps
    by generators s'_a of P1 (each the first pair of Gamma met with a
    component that ``matgrp._subgroup_generators`` keeps).  A left step t_a
    k = (t_a t) k0 s' has the partner (s_a s, t_a t); a right step k s'_a =
    t k0 (s' s'_a) has (s' s'_a, t' t'_a), so t'^-1 becomes t'_a^-1 t'^-1.
    Reference oracle for ``HeckeAlgebra._double_coset``, which reads the
    orbit table of tau2 instead."""
    group = alg.group
    mul, inv, e = group.mul, group.inverses, group.e

    def generating_pairs(pairs, side):
        first = {}
        for pair in pairs:
            first.setdefault(pair[side], pair)
        return [first[g] for g in _subgroup_generators(first, mul, e)]

    left = generating_pairs(alg._gamma(tau1), 1)
    right = [(s, inv[t]) for s, t in generating_pairs(alg._gamma(tau2), 0)]
    table = [None] * len(inv)
    for k0 in range(len(inv)):
        if table[k0] is not None:
            continue
        table[k0] = (k0, e, e)
        reached = [k0]
        for k in reached:
            _, s, t_inv = table[k]
            for s_a, t_a in left:
                c = mul(t_a, k)
                if table[c] is None:
                    table[c] = (k0, mul(s_a, s), t_inv)
                    reached.append(c)
            for s_a, t_a_inv in right:
                c = mul(k, s_a)
                if table[c] is None:
                    table[c] = (k0, s, mul(t_a_inv, t_inv))
                    reached.append(c)
    return table
