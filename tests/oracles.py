"""Slow reference implementations that the tests compare the library against.

Each one computes its object straight from the definition, sharing no code
path with the fast route it checks.
"""

import itertools
from fractions import Fraction

from heckelab.errors import InvariantViolated, Singular
from heckelab.hecke import DoubleCosetLabel, HeckeAlgebra
from heckelab.localfield import FieldElement
from heckelab.matgrp import (
    DEFAULT_BUDGET,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    cartan,
    iter_kernel,
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


def residue_matrices_by_object_sweep(spec, m):
    """Invertible matrices over o/pi^m (det = 1 for SL) from a sweep of
    ResidueMatrix objects and their determinants, sorted by sort_key.
    Reference oracle for enumerate_residue_matrices."""
    ring = spec.model.residue_ring(m)
    if m == 0:
        return [ResidueMatrix.identity(ring, spec.n)]
    n, one = spec.n, ring.one()
    out = []
    for flat in itertools.product(list(ring.elements()), repeat=n * n):
        mat = ResidueMatrix(ring, (flat[i * n:(i + 1) * n] for i in range(n)))
        d = mat.det()
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
    Reference oracle for HeckeAlgebra._mul and _inv_index."""
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
        x = algebra.class_lift(i)
        for j in range(len(q)):
            g = x @ n_tau @ algebra.class_lift(j).inverse()
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
                label = DoubleCosetLabel(tau, xi, yi, q)
                for s, t in gamma:
                    labels[(mul[xi][s], mul[yi][t])] = label
    return out


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
