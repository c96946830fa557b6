import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import heckelab
from heckelab import localfield, matgrp
from heckelab.errors import (
    BudgetExceeded,
    InvariantViolated,
    MixedRings,
    NonUnitDet,
    NotDominant,
    NotInK,
    ParseError,
    Singular,
    SLTraceNonzero,
)
from heckelab.localfield import FieldElement, FieldModel
from heckelab.matgrp import (
    CartanDatum,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    _eliminate,
    cartan,
    dominant_window,
    enumerate_residue,
    iter_kernel,
    kernel_count,
    lift_group,
    reduce_group,
)
from heckelab.sampling import random_element, random_in_k, random_tau, random_windowed
from oracles import (
    cartan_type,
    code_det,
    code_product,
    eliminate_full_update,
    matmul_by_dots,
    residue_det,
    residue_identity,
)
from samples import random_in_km


from heckelab.matgrp import _cofactor_det


def minors_valuation_tau(g):
    """Independent oracle for the Cartan type: elementary divisors from
    gcd-of-minors valuations, which do not depend on any elimination path."""
    n = g.group.n
    rows = g.rows
    prev = 0
    ds = []
    for k in range(1, n + 1):
        best = None
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                v = _cofactor_det(minor, g.group.model.zero()).val()
                if best is None or v < best:
                    best = v
        ds.append(best - prev)
        prev = best
    ds.sort(reverse=True)
    return CartanDatum(tuple(ds))


# ---------------------------------------------------------------- membership


def test_identity_membership_all_levels():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    g = spec.identity()
    for m in range(4):
        assert g.in_km(m)


def test_non_unit_det_not_in_k():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    g = spec.parse_matrix([[2, 0], [0, 1]])
    assert not g.in_k()
    assert g.in_km(0) is False


def test_k1_membership_from_elementary_products():
    model = FieldModel.equal(2)
    spec = GroupSpec("SL", 2, model)
    t = model.uniformizer()
    one, zero = model.one(), model.zero()
    e12 = GroupElement(spec, [[one, t], [zero, one]])
    e21 = GroupElement(spec, [[one, zero], [t, one]])
    g = e12 @ e21 @ e12
    assert g.in_km(1)
    assert g.det() == one
    assert not g.in_km(2)


def test_km_nested():
    spec = GroupSpec("SL", 2, FieldModel.mixed(3, 1))
    g = random_in_km(spec, __import__("random").Random(5), 2)
    assert g.in_km(2) and g.in_km(1) and g.in_k()


# ---------------------------------------------------------------- n_of_tau


def test_n_of_tau_examples():
    model = FieldModel.mixed(2, 1)
    gl2 = GroupSpec("GL", 2, model)
    sl2 = GroupSpec("SL", 2, model)
    assert gl2.n_of_tau(CartanDatum((0, 0))) == gl2.identity()
    assert gl2.n_of_tau(CartanDatum((1, 0))) == gl2.parse_matrix([[2, 0], [0, 1]])
    n = sl2.n_of_tau(CartanDatum((1, -1)))
    assert n.rows[0][0] == model.from_int(2)
    assert n.rows[1][1] == model.one() / model.from_int(2)


def test_n_of_tau_errors():
    sl2 = GroupSpec("SL", 2, FieldModel.mixed(2, 1))
    with pytest.raises(NotDominant):
        CartanDatum((0, 1))
    with pytest.raises(SLTraceNonzero):
        sl2.n_of_tau(CartanDatum((1, 0)))


def test_dominant_window_contents():
    w = dominant_window("SL", 2, 1)
    assert [t.coords for t in w] == [(0, 0), (1, -1)]
    w2 = dominant_window("GL", 2, 1)
    assert len(w2) == 6
    assert all(t.coords[0] >= t.coords[1] for t in w2)


# ---------------------------------------------------------------- cartan


def test_cartan_of_k_element_is_zero(rng):
    spec = GroupSpec("GL", 2, FieldModel.mixed(3, 1))
    g = random_in_k(spec, rng)
    fac = cartan(g)
    assert fac.tau.is_zero()
    assert fac.a @ fac.b == g


def test_cartan_antidiagonal_example():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    g = spec.parse_matrix([[0, 1], [2, 0]])
    fac = cartan(g)
    assert fac.tau == CartanDatum((1, 0))
    assert fac.tau == minors_valuation_tau(g)
    assert fac.product() == g
    assert fac.a.in_k() and fac.b.in_k()


def test_cartan_sl_diagonal_normal_form():
    model = FieldModel.equal(3)
    spec = GroupSpec("SL", 2, model)
    t = model.uniformizer()
    g = GroupElement(spec, [[t, model.zero()], [model.zero(), t.inverse()]])
    fac = cartan(g)
    assert fac.tau == CartanDatum((1, -1))
    assert fac.product() == g
    assert fac.a.det() == model.one() and fac.b.det() == model.one()


@pytest.mark.parametrize(
    "family,n,model",
    [
        ("SL", 2, FieldModel.mixed(2, 2)),
        ("GL", 2, FieldModel.equal(3)),
        ("SL", 3, FieldModel.mixed(3, 1)),
        ("GL", 3, FieldModel.mixed(2, 5)),
    ],
    ids=["sl2-mix22", "gl2-eq3", "sl3-mix31", "gl3-mix25"],
)
def test_cartan_roundtrip_and_minors_oracle(family, n, model, rng):
    spec = GroupSpec(family, n, model)
    for _ in range(25):
        g = random_windowed(spec, rng, bound=2)
        fac = cartan(g)
        assert fac.product() == g
        assert fac.a.in_k() and fac.b.in_k()
        coords = fac.tau.coords
        assert all(x >= y for x, y in zip(coords, coords[1:]))
        assert fac.tau == minors_valuation_tau(g)
        if family == "SL":
            assert sum(coords) == 0
            assert fac.a.det() == model.one() and fac.b.det() == model.one()


@pytest.mark.parametrize("family, n", [("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)])
@pytest.mark.parametrize("model", [FieldModel.mixed(2, 2), FieldModel.equal(2)], ids=str)
def test_cartan_type_matches_cartan(family, n, model, rng):
    spec = GroupSpec(family, n, model)
    samples = [random_windowed(spec, rng, bound=2) for _ in range(12)]
    # the window has negative cocharacters, so some samples are not integral
    assert not all(x.is_integral() for g in samples for row in g.rows for x in row)
    for g in samples:
        assert cartan_type(g) == cartan(g).tau


def _count_solves(monkeypatch):
    """Count the integer solves behind mixed-model inverses of non-rationals."""
    calls = [0]
    solve = localfield.bareiss_solve

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(localfield, "bareiss_solve", counted)
    return calls


def test_cartan_inverts_only_pivots_it_divides_by(monkeypatch, rng):
    # n_tau has its rows and columns clear, and det A = +-1 inverts in closed
    # form: no integer solve at all; a random SL2 element over Q_2(2^(1/5))
    # needs the first pivot's inverse only, never the last pivot's
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 5))
    samples = [random_windowed(spec, rng, bound=2) for _ in range(20)]
    calls = _count_solves(monkeypatch)
    for tau in dominant_window("SL", 2, 3):
        calls[0] = 0
        assert cartan(spec.n_of_tau(tau)).tau == tau
        assert calls[0] == 0
    counts = []
    for g in samples:
        calls[0] = 0
        assert cartan(g).product() == g
        counts.append(calls[0])
    assert max(counts) == 1


ELIMINATION_MODELS = {
    "Q_2": FieldModel.mixed(2),
    "Q_3": FieldModel.mixed(3),
    "Q_2(2^(1/5))": FieldModel.mixed(2, 5),
    "F_2((t))": FieldModel.equal(2),
    "F_3((t))": FieldModel.equal(3),
}


def _same_elimination(got, want) -> bool:
    """Equal tau and sign, and equal ops: kinds, witnesses and indices, and
    multipliers and units as field elements."""
    (tau, ops, sign), (tau_w, ops_w, sign_w) = got, want
    return (tau == tau_w and sign == sign_w and len(ops) == len(ops_w)
            and all(op[:4] == op_w[:4] and op[4] == op_w[4] for op, op_w in zip(ops, ops_w)))


@pytest.mark.parametrize("family, n", [("SL", 2), ("GL", 2), ("SL", 3), ("GL", 3)])
@pytest.mark.parametrize("model", ELIMINATION_MODELS.values(), ids=ELIMINATION_MODELS.keys())
def test_eliminate_matches_full_update_oracle(family, n, model, rng):
    # the elimination that leaves known entries unformed gives the same
    # (tau, ops, sign) as the one that forms every entry: on n_tau, on
    # sampled elements, and on the rng tie-break path with equal seeds
    spec = GroupSpec(family, n, model)
    inputs = [spec.n_of_tau(tau) for tau in dominant_window(family, n, 1)]
    samples = [random_windowed(spec, rng, bound=2) for _ in range(6)]
    tie_broken = 0
    for seed, g in enumerate(inputs + samples):
        plain = _eliminate(g)
        assert _same_elimination(plain, eliminate_full_update(g))
        drawn = _eliminate(g, random.Random(seed))
        assert _same_elimination(drawn, eliminate_full_update(g, random.Random(seed)))
        tie_broken += not _same_elimination(drawn, plain)
    assert tie_broken  # some rng draw picked another pivot than the first
    # non-tautology: dropping the row step's update of the trailing columns
    # changes the result on some sample
    assert not all(
        _same_elimination(eliminate_full_update(g, trailing_row_update=False),
                          eliminate_full_update(g))
        for g in samples
    )


def _count_calls(monkeypatch, name):
    """Count calls of the FieldElement method ``name`` (``__rmul__`` is the
    same method as ``__mul__``)."""
    calls = [0]
    method = getattr(FieldElement, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(FieldElement, name, counted)
    return calls


def test_eliminate_forms_no_known_entry(monkeypatch):
    # SL2 over Q_2(2^(1/5)) with four nonzero entries: one row multiplier
    # and its one trailing update and one column multiplier, 3 products,
    # and two diagonal units, one shift each, where forming every entry
    # took 8 products; SL3/Q_2 with nine nonzero entries, tau = (2,-1,-1):
    # 11 products and 3 shifts where it took 25 products
    model = FieldModel.mixed(2, 5)
    one, pi = model.one(), model.pi_pow
    g = GroupElement(GroupSpec("SL", 2, model), [[one, pi(1)], [pi(-2), one + pi(-1)]])
    q2 = FieldModel.mixed(2)
    h = GroupElement(GroupSpec("SL", 3, q2), [
        [q2.from_fraction(Fraction(x)) for x in row]
        for row in [[4, 12, 20], [8, "49/2", 43], [12, 38, "145/2"]]
    ])
    calls = _count_calls(monkeypatch, "__mul__")
    shifts = _count_calls(monkeypatch, "shift")
    assert _eliminate(g)[0] == CartanDatum((2, -2))
    assert (calls[0], shifts[0]) == (3, 2)
    calls[0] = shifts[0] = 0
    assert _eliminate(h)[0] == CartanDatum((2, -1, -1))
    assert (calls[0], shifts[0]) == (11, 3)


def test_cartan_uniqueness_of_tau(rng):
    # elements with different dominance-sorted valuation tuples never share
    # a K-double coset: their Cartan type is a complete invariant of KgK
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    seen = {}
    for _ in range(50):
        g = random_windowed(spec, rng, bound=2)
        tau = cartan(g).tau
        assert minors_valuation_tau(g) == tau
        seen.setdefault(tau, g)
    assert len(seen) > 1


def test_cartan_randomized_pivots_same_tau(rng):
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 2))
    g = random_windowed(spec, rng, bound=2)
    base = cartan(g)
    for _ in range(10):
        fac = cartan(g, rng=rng)
        assert fac.tau == base.tau
        assert fac.product() == g


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_cartan_matches_sympy_smith_normal_form(n, p):
    # an outside library's Smith form over Z: the invariant factors d_1 | d_2
    # | ... of an integer matrix give its Cartan type over Q_p as their
    # p-adic valuations, in decreasing order
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(7000 + 10 * n + p)
    spec = GroupSpec("GL", n, FieldModel.mixed(p, 1))
    checked = 0
    while checked < 8:
        ints = [[rng.randrange(-3 * p**2, 3 * p**2 + 1) for _ in range(n)] for _ in range(n)]
        mat = Matrix(ints)
        if mat.det() == 0:
            continue
        snf = smith_normal_form(mat, domain=ZZ)
        expected = sorted((_vp(int(snf[i, i]), p) for i in range(n)), reverse=True)
        assert cartan(spec.parse_matrix(ints)).tau == CartanDatum(tuple(expected)), ints
        checked += 1


def _vp(x, p):
    x, v = abs(x), 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


DET_INVERSE_MODELS = [
    pytest.param(FieldModel.mixed(2, 1), id="Q_2"),
    pytest.param(FieldModel.mixed(3, 1), id="Q_3"),
    pytest.param(FieldModel.mixed(2, 2), id="Q_2(2^(1/2))"),
    pytest.param(FieldModel.equal(2), id="F_2((t))"),
]


@pytest.mark.parametrize("model", DET_INVERSE_MODELS)
def test_det_and_inverse_agree_on_field_and_residues(model):
    # the one cofactor determinant runs on field entries and on residues
    # mod pi^N, the cofactor inverse on field entries; reduce_group checks
    # the determinant against its residue and the inverse as a residue
    # matrix inverse
    rng = random.Random(4242)
    for family, n in (("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)):
        spec = GroupSpec(family, n, model)
        for N in (1, 2, 3):
            for _ in range(2):
                g = random_in_k(spec, rng)
                g_inv = g.inverse()
                r = reduce_group(g, N)
                assert residue_det(r) == g.det().residue(N)
                assert r @ reduce_group(g_inv, N) == residue_identity(r.ring, n)
                assert g @ g_inv == spec.identity()


@pytest.mark.parametrize("model", [FieldModel.mixed(2, 5), FieldModel.equal(2)], ids=str)
def test_sl_element_keeps_the_shared_one(model, rng):
    # an SL element, however built, keeps model.one() as its determinant
    spec = GroupSpec("SL", 2, model)
    g = random_in_k(spec, rng)
    h = g @ random_in_km(spec, rng, 1)
    fac = cartan(random_windowed(spec, rng, bound=1))
    for x in (g, h, g.inverse(), fac.a, fac.b, spec.identity()):
        assert x._det is model.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_element_keeps_one_entry_tuple(n, rng):
    # an element keeps its entries as one row-major tuple: rows reads them
    # back as row tuples, and products, equality and hashing read the flat
    # tuple; K_m membership finds the diagonal as every (n + 1)-th entry,
    # so a unit moved onto any one entry of the identity leaves K_1
    model = FieldModel.mixed(3, 1)
    spec = GroupSpec("GL", n, model)
    g = random_in_km(spec, rng, 1)
    rows = tuple(g.entries[i:i + n] for i in range(0, n * n, n))
    assert len(g.entries) == n * n and g.rows == rows
    h = GroupElement(spec, rows)
    assert h == g and hash(h) == hash(g)
    expected = tuple(tuple(sum((rows[i][k] * rows[k][j] for k in range(n)), model.zero())
                           for j in range(n)) for i in range(n))
    assert (g @ g).rows == expected
    one, zero = model.one(), model.zero()
    for i, j in itertools.product(range(n), repeat=2):
        moved = [[one if a == b else zero for b in range(n)] for a in range(n)]
        moved[i][j] = model.from_int(2) if i == j else one
        x = GroupElement(spec, moved)
        assert x.in_km(0) and not x.in_km(1)


FAST_PATH_FIELDS = {
    "Q_2": FieldModel.mixed(2), "Q_3": FieldModel.mixed(3), "Q_2(2^(1/5))": FieldModel.mixed(2, 5),
    "F_2((t))": FieldModel.equal(2), "F_4((t))": FieldModel.equal(2, 2),
}
FAST_PATH_SPECS = {
    f"{family}{n}/{name}": GroupSpec(family, n, model)
    for family, n in [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)]
    for name, model in FAST_PATH_FIELDS.items()
}


def _diagonal(spec, entries):
    zero, n = spec.model.zero(), spec.n
    return GroupElement(spec, [[entries[i] if i == j else zero for j in range(n)]
                               for i in range(n)])


@pytest.mark.parametrize("spec", FAST_PATH_SPECS.values(), ids=FAST_PATH_SPECS.keys())
def test_matmul_with_a_diagonal_factor_matches_dots(spec, rng, monkeypatch):
    # with a diagonal factor on either side, @ scales columns or rows and
    # runs no inner product (_dot), and its entries and determinant are
    # those of the n^3 product; the diagonals are n_tau and one of
    # non-monomial entries, diag(u_1, .., u_n) for GL and diag(u, .., u^-1)
    # (the last entry the inverse of the others' product) for SL, which
    # keeps the model's shared one as its determinant
    model, n = spec.model, spec.n
    cases = []
    for _ in range(4):
        units = [random_element(model, rng) for _ in range(n)]
        units = [u if not u.is_zero() else model.one() for u in units]
        if spec.family == "SL":
            units[-1] = math.prod(units[:-1], start=model.one()).inverse()
        diagonals = [spec.n_of_tau(random_tau(spec, rng, 3)), _diagonal(spec, units)]
        others = [random_windowed(spec, rng, bound=2), random_in_k(spec, rng), diagonals[1]]
        cases += [(x, y) for d in diagonals for g in others for x, y in ((d, g), (g, d))]
    expected = [matmul_by_dots(x, y) for x, y in cases]

    def general_kernel(row, col):
        raise AssertionError("a product with a diagonal factor ran the general kernel")

    monkeypatch.setattr(matgrp, "_dot", general_kernel)
    for (x, y), z in zip(cases, expected):
        product = x @ y
        assert product.entries == z.entries and product.det() == z.det(), (x, y)
        if spec.family == "SL":
            assert product.det() is model.one()


def test_matmul_with_a_diagonal_factor_refuses_another_group():
    q2, q3 = FieldModel.mixed(2), FieldModel.mixed(3)
    d = GroupSpec("GL", 2, q2).n_of_tau(CartanDatum((1, 0)))
    others = [GroupSpec("GL", 2, q3).n_of_tau(CartanDatum((1, 0))),
              GroupSpec("SL", 2, q2).n_of_tau(CartanDatum((1, -1))),
              GroupSpec("GL", 2, FieldModel.equal(2)).identity()]
    for other in others:
        with pytest.raises(MixedRings):
            d @ other
        with pytest.raises(MixedRings):
            other @ d


def test_n_of_tau_determinant_is_given():
    # n_tau carries det pi^(a_1 + .. + a_n), the cofactor determinant's
    # value, without computing one; an SL diagonal of another determinant
    # is still refused
    model = FieldModel.mixed(2, 5)
    spec = GroupSpec("GL", 3, model)
    for coords in [(3, 1, -2), (0, 0, 0), (-1, -1, -4)]:
        n_tau = spec.n_of_tau(CartanDatum(coords))
        assert n_tau.det() == model.pi_pow(sum(coords)) == _cofactor_det(n_tau.rows, model.zero())
    assert GroupSpec("SL", 3, model).n_of_tau(CartanDatum((2, 0, -2))).det() is model.one()
    with pytest.raises(Singular):
        _diagonal(GroupSpec("SL", 2, model), [model.pi_pow(1), model.one()])


def test_singular_matrix_rejected():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    with pytest.raises(Singular):
        spec.parse_matrix([[1, 1], [1, 1]])


def test_wrong_shape_rejected():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    with pytest.raises(ParseError, match="2 x 2"):
        spec.parse_matrix([[1]])


def test_wrong_shape_rejected_under_optimize():
    # python -O strips asserts; the shape check must survive it
    code = (
        "from heckelab.errors import ParseError\n"
        "from heckelab.localfield import FieldModel\n"
        "from heckelab.matgrp import GroupSpec\n"
        "try:\n"
        "    GroupSpec('GL', 2, FieldModel.mixed(2, 1)).parse_matrix([[1]])\n"
        "except ParseError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no ParseError for a 1 x 1 GL_2 matrix')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckelab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_typed_guards_under_optimize():
    # the same-group, same-ring, coordinate-count, shape and nonzero guards
    # raise typed errors that python -O keeps
    code = (
        "from heckelab.errors import InvariantViolated, MixedRings, ParseError, Singular\n"
        "from heckelab.kazhdan import WindowedModule\n"
        "from heckelab.localfield import FieldElement, FieldModel, ResidueElement,"
        " _vp_int, bareiss_solve\n"
        "from heckelab.matgrp import GroupSpec, reduce_group\n"
        "from heckelab.rings import QQ\n"
        "Q2 = FieldModel.mixed(2, 1)\n"
        "cases = [\n"
        "    (MixedRings, lambda: GroupSpec('GL', 2, Q2).identity()"
        " @ GroupSpec('SL', 2, Q2).identity()),\n"
        "    (MixedRings, lambda: reduce_group(GroupSpec('GL', 2, Q2).identity(), 1)"
        " @ reduce_group(GroupSpec('GL', 2, Q2).identity(), 2)),\n"
        "    (ParseError, lambda: FieldElement(FieldModel.mixed(2, 2), (1,))),\n"
        "    (ParseError, lambda: ResidueElement(Q2.residue_ring(1), (1, 0))),\n"
        "    (ParseError, lambda: WindowedModule(QQ, 2, ('a',), {'a': [[1]]})),\n"
        "    (InvariantViolated, lambda: _vp_int(0, 2)),\n"
        "    (Singular, lambda: bareiss_solve([[1, 2], [2, 4]], [[1], [0]])),\n"
        "]\n"
        "for i, (exc, make) in enumerate(cases):\n"
        "    try:\n"
        "        make()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit(f'case {i}: no {exc.__name__}')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckelab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_cartan_integrality_guard(monkeypatch):
    # the elimination multiplier is integral because the pivot has minimal valuation
    g = GroupSpec("GL", 2, FieldModel.mixed(2, 1)).parse_matrix([[1, 0], [2, 1]])
    monkeypatch.setattr(FieldElement, "is_integral", lambda self: False)
    with pytest.raises(InvariantViolated, match="not integral"):
        cartan(g)


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "model", [FieldModel.mixed(3, 1), FieldModel.equal(3), FieldModel.mixed(2, 2)], ids=str
)
def test_codes_match_residue_matrix_det_and_product(model, n, rng):
    ring = model.residue_ring(2)
    tables = ring.tables(10**6)
    elements = tables.elements
    for _ in range(20):
        x, y = (tuple(rng.randrange(len(elements)) for _ in range(n * n)) for _ in range(2))
        X, Y = (
            ResidueMatrix(ring, [[elements[c[i * n + j]] for j in range(n)] for i in range(n)])
            for c in (x, y)
        )
        rows = [x[i:i + n] for i in range(0, n * n, n)]
        assert elements[code_det(rows, tables)] == residue_det(X)
        product = tuple(tables.index[e.coords] for row in (X @ Y).rows for e in row)
        assert code_product(x, y, n, tables) == product


def test_enumerate_residue_sl2_f2():
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 1))
    reps = enumerate_residue(spec, 1)
    assert len(reps) == 6
    # independent brute count over F_2
    count = 0
    for flat in itertools.product(range(2), repeat=4):
        if (flat[0] * flat[3] - flat[1] * flat[2]) % 2 == 1:
            count += 1
    assert count == 6
    one = spec.model.one()
    assert all(r.in_k() and r.det() == one for r in reps)


def test_enumerate_residue_gl2_mod4():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    reps = enumerate_residue(spec, 2)
    assert len(reps) == 96
    count = 0
    for flat in itertools.product(range(4), repeat=4):
        if (flat[0] * flat[3] - flat[1] * flat[2]) % 2 == 1:
            count += 1
    assert count == 96


def test_enumerate_residue_gl1():
    spec = GroupSpec("GL", 1, FieldModel.mixed(3, 1))
    assert len(enumerate_residue(spec, 1)) == 2


def test_enumerate_residue_pairwise_inequivalent():
    spec = GroupSpec("SL", 2, FieldModel.equal(2))
    reps = enumerate_residue(spec, 1)
    assert len(reps) == 6
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i != j:
                assert not (a.inverse() @ b).in_km(1)


def test_enumerate_kernel_counts():
    model = FieldModel.mixed(2, 1)
    gl2 = GroupSpec("GL", 2, model)
    sl2 = GroupSpec("SL", 2, model)
    assert list(iter_kernel(gl2, 1, 0)) == [gl2.identity()]
    kg = list(iter_kernel(gl2, 1, 1))
    ks = list(iter_kernel(sl2, 1, 1))
    assert len(kg) == 16 == kernel_count(gl2, 1, 1)
    assert len(ks) == 8 == kernel_count(sl2, 1, 1)
    one = model.one()
    for k in ks:
        assert k.in_km(1)
        assert k.det() == one
    # pairwise distinct mod pi^(m+c)
    for i, a in enumerate(ks):
        for j, b in enumerate(ks):
            if i != j:
                assert not (a.inverse() @ b).in_km(2)


def test_enumerate_kernel_equal_char_sl():
    spec = GroupSpec("SL", 2, FieldModel.equal(3))
    ks = list(iter_kernel(spec, 1, 1))
    assert len(ks) == 27 == kernel_count(spec, 1, 1)
    assert all(k.det() == spec.model.one() and k.in_km(1) for k in ks)


KERNEL_SPECS = [
    pytest.param(GroupSpec(family, 2, model), id=f"{family}2/{name}")
    for name, model in (
        ("Q_2", FieldModel.mixed(2, 1)),
        ("Q_2(2^(1/2))", FieldModel.mixed(2, 2)),
        ("F_3((t))", FieldModel.equal(3)),
    )
    for family in ("GL", "SL")
]


@pytest.mark.parametrize("spec, m, c", [
    pytest.param(spec.values[0], m, c, id=f"{spec.id} m={m} c={c}")
    for spec in KERNEL_SPECS
    for m, c in ((1, 1), (1, 2), (2, 1))
] + [pytest.param(GroupSpec("SL", 3, FieldModel.mixed(2, 1)), 1, 1, id="SL3/Q_2 m=1 c=1")])
def test_kernel_is_a_complete_transversal(spec, m, c):
    # |K_m/K_(m+c)| classes, each in K_m, pairwise incongruent mod K_(m+c)
    # (reduction mod pi^(m+c) has kernel K_(m+c)): a complete transversal
    ks = list(iter_kernel(spec, m, c))
    assert len(ks) == kernel_count(spec, m, c)
    assert all(k.in_km(m) for k in ks)
    if spec.family == "SL":
        assert all(k.det() == spec.model.one() for k in ks)
    assert len({reduce_group(k, m + c) for k in ks}) == len(ks)


@pytest.mark.parametrize("spec, c", [
    pytest.param(spec.values[0], 1, id=spec.id) for spec in KERNEL_SPECS
] + [
    pytest.param(GroupSpec(family, n, model), c, id=f"{family}{n}/{name} c={c}")
    for family, n, name, model, c in (
        ("GL", 3, "Q_2", FieldModel.mixed(2, 1), 1),
        ("SL", 3, "Q_2", FieldModel.mixed(2, 1), 1),
        ("GL", 2, "Q_2", FieldModel.mixed(2, 1), 2),
        ("SL", 2, "F_3((t))", FieldModel.equal(3), 2),
        ("GL", 2, "F_4((t))", FieldModel.equal(2, 2), 1),
        ("SL", 2, "Q_2(2^(1/2))", FieldModel.mixed(2, 2), 2),
    )
])
def test_kernel_at_level_zero_is_k_mod_km(spec, c):
    # the sweep over M_n(o/pi^c) and the closure of K/K_c share no code:
    # the same classes, lifted alike, in the same order
    assert list(iter_kernel(spec, 0, c)) == enumerate_residue(spec, c)


def test_budget_guard():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    with pytest.raises(BudgetExceeded):
        enumerate_residue(spec, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        list(iter_kernel(spec, 1, 3, budget=100))


def test_kernel_budget_charges_the_candidates_alone(monkeypatch):
    # the sweep is charged its q^(c n^2) candidates, whatever the level m:
    # GL2/Q_2 at (m, c) = (9, 1) gives its 16 classes under the default
    # budget, and a budget of 15 is refused before any candidate is formed
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    ks = list(iter_kernel(spec, 9, 1))
    assert len(ks) == 16 == kernel_count(spec, 9, 1)
    assert all(k.in_km(9) for k in ks)
    assert len({reduce_group(k, 10) for k in ks}) == 16

    def refuse(*args):
        raise AssertionError("a candidate was formed")

    monkeypatch.setattr(localfield.ResidueRing, "elements", refuse)
    monkeypatch.setattr(matgrp, "_cofactor_det", refuse)
    with pytest.raises(BudgetExceeded, match=r"2\^4 elements exceeds budget 15"):
        list(iter_kernel(spec, 9, 1, budget=15))


def test_kernel_sweep_is_independent_of_the_closure(monkeypatch):
    # iter_kernel is an oracle for the closure, so it builds no closure and
    # no ring table; its count check trips when the closed form disagrees
    def refuse(*args):
        raise AssertionError("the sweep used the closure or the ring tables")

    monkeypatch.setattr(matgrp, "_congruence_classes", refuse)
    monkeypatch.setattr(localfield.ResidueRing, "tables", refuse)
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 1))
    ks = list(iter_kernel(spec, 1, 2))
    assert len(ks) == 64 == kernel_count(spec, 1, 2)
    monkeypatch.setattr(matgrp, "kernel_count", lambda *args: kernel_count(*args) + 1)
    with pytest.raises(InvariantViolated, match="not the closed-form 65"):
        list(iter_kernel(spec, 1, 2))


# ---------------------------------------------------------------- reduce / lift


def test_reduce_group_identity():
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 2))
    r = reduce_group(spec.identity(), 2)
    assert r == residue_identity(spec.model.residue_ring(2), 2)


def test_reduce_group_requires_k():
    spec = GroupSpec("GL", 2, FieldModel.mixed(2, 1))
    g = spec.parse_matrix([[2, 0], [0, 1]])
    with pytest.raises(NotInK):
        reduce_group(g, 1)


def test_lift_section_property(rng):
    for spec in (
        GroupSpec("GL", 2, FieldModel.mixed(2, 2)),
        GroupSpec("SL", 2, FieldModel.equal(3)),
    ):
        for _ in range(25):
            g = random_in_k(spec, rng)
            r = reduce_group(g, 2)
            lifted = lift_group(r, spec)
            assert lifted.in_k()
            assert reduce_group(lifted, 2) == r
            if spec.family == "SL":
                assert lifted.det() == spec.model.one()


def test_sl_lift_determinant_corrected():
    model = FieldModel.equal(2)
    spec = GroupSpec("SL", 2, model)
    t = model.uniformizer()
    one = model.one()
    raw = GroupElement(GroupSpec("GL", 2, model), ((one, t), (t, one)))
    r = reduce_group(raw, 2)
    assert residue_det(r) == model.residue_ring(2).one()  # det = 1 - t^2 = 1 mod t^2
    lifted = lift_group(r, spec)
    assert lifted.det() == one
    assert reduce_group(lifted, 2) == r


def test_lift_rejects_non_unit_det():
    model = FieldModel.mixed(2, 1)
    spec = GroupSpec("GL", 2, model)
    ring = model.residue_ring(2)
    from heckelab.matgrp import ResidueMatrix

    bad = ResidueMatrix(ring, ((ring.from_int(2), ring.zero()), (ring.zero(), ring.one())))
    with pytest.raises(NonUnitDet):
        lift_group(bad, spec)
    # det 3 is a unit mod 4 but not 1: a GL class, no SL class
    unit_det = ResidueMatrix(ring, ((ring.from_int(3), ring.zero()), (ring.zero(), ring.one())))
    assert lift_group(unit_det, spec).det() == model.from_int(3)
    with pytest.raises(NonUnitDet, match="not 1"):
        lift_group(unit_det, GroupSpec("SL", 2, model))


def test_package_exports_resolve():
    for name in heckelab.__all__:
        assert hasattr(heckelab, name), name
    namespace = {}
    exec("from heckelab import *", namespace)
    assert set(heckelab.__all__) <= set(namespace)


def test_reduce_group_multiplicative(rng):
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 1))
    for _ in range(1000):
        g = random_in_k(spec, rng, depth=2)
        h = random_in_k(spec, rng, depth=2)
        assert reduce_group(g @ h, 2) == reduce_group(g, 2) @ reduce_group(h, 2)
