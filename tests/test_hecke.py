import collections
import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import hecke, localfield
from heckelab import matgrp as matgrp_module
from heckelab.errors import (
    BudgetExceeded,
    InvalidConfig,
    InvariantViolated,
    MixedRings,
    NegativeValuation,
)
from heckelab.hecke import DoubleCosetLabel, HeckeAlgebra, HeckeElement, base_change
from heckelab.localfield import FieldModel
from heckelab.matgrp import (
    CartanDatum,
    ClassGroup,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    cartan,
    dominant_window,
    enumerate_residue_matrices,
    zero_tau,
)
from heckelab.rings import ZZ, IntegersMod, PrimeField, QQ
from heckelab.sampling import random_in_k, random_windowed
from oracles import (
    canonical_by_orbits,
    classify_by_exact_elimination,
    classify_by_witnesses,
    dc_equal_kernel_sweep,
    double_coset_by_generators,
    gamma_by_exact_witnesses,
    gamma_by_sweep,
    left_cosets_kernel_sweep,
    mul_table_by_products,
    exact_witness_classes,
    residue_identity,
    residue_matrices_by_object_sweep,
    structure_constants_by_membership,
    structure_constants_by_tally,
)
from samples import random_in_km

Q2 = FieldModel.mixed(2, 1)
Q3 = FieldModel.mixed(3, 1)
SL2_Q2 = GroupSpec("SL", 2, Q2)
GL2_Q2 = GroupSpec("GL", 2, Q2)
GL2_Q3 = GroupSpec("GL", 2, Q3)
SL2_F2 = GroupSpec("SL", 2, FieldModel.equal(2))
SL3_Q2 = GroupSpec("SL", 3, Q2)
GL3_Q2 = GroupSpec("GL", 3, Q2)


@pytest.fixture(scope="module")
def sl2_m1():
    return HeckeAlgebra(SL2_Q2, 1)


@pytest.fixture(scope="module")
def gl2_m0():
    return HeckeAlgebra(GL2_Q2, 0)


@pytest.fixture(scope="module")
def gl2_m1():
    return HeckeAlgebra(GL2_Q2, 1)


@pytest.fixture(scope="module")
def gl2_q3_m1():
    return HeckeAlgebra(GL2_Q3, 1)


def _with_matrices(group, matrices):
    """``group`` with its classes held as the residue matrices ``matrices``:
    the same codes, moves, words and key."""
    return ClassGroup(group.spec, group.m, group.c, group.tables, group.codes, matrices,
                      group.moves, group.move_inverse, group.words, group.table, group.budget)


# ---------------------------------------------------------------- dc_equal


def dc_equal(alg, g, h):
    """K_m g K_m = K_m h K_m as classify reads it, equal labels, checked
    against the bounded-kernel search of the oracle."""
    same = alg.classify(g) == alg.classify(h)
    assert same == dc_equal_kernel_sweep(g, h, alg.m)
    return same


def test_dc_equal_reflexive(sl2_m1, rng):
    for _ in range(5):
        g = random_windowed(SL2_Q2, rng, 1)
        assert dc_equal(sl2_m1, g, g)


def test_dc_equal_km_translates(sl2_m1, rng):
    n = SL2_Q2.n_of_tau(CartanDatum((1, -1)))
    for _ in range(5):
        k1 = random_in_km(SL2_Q2, rng, 1)
        k2 = random_in_km(SL2_Q2, rng, 1)
        assert dc_equal(sl2_m1, k1 @ n @ k2, n)


def test_dc_equal_oracle_case(gl2_m1):
    # recorded verdict of the bounded-kernel oracle: these two type-(1,0)
    # elements are NOT K_1-double-coset equal (the (1,2) entry of anything
    # in K_1 diag(2,1) K_1 is divisible by 2)
    g = GL2_Q2.parse_matrix([[2, 0], [0, 1]])
    h = GL2_Q2.parse_matrix([[2, 1], [0, 1]])
    assert dc_equal(gl2_m1, g, h) is False
    assert dc_equal_kernel_sweep(g, h, 1) is False
    assert dc_equal(gl2_m1, g, g)


def test_dc_equal_matches_kernel_sweep(sl2_m1, rng):
    for _ in range(10):
        g = random_windowed(SL2_Q2, rng, 1)
        h = random_windowed(SL2_Q2, rng, 1)
        assert dc_equal(sl2_m1, g, h) == dc_equal_kernel_sweep(g, h, 1)


def test_dc_equal_different_tau(sl2_m1):
    n0 = SL2_Q2.identity()
    n1 = SL2_Q2.n_of_tau(CartanDatum((1, -1)))
    assert not dc_equal(sl2_m1, n0, n1)


# ---------------------------------------------------------------- left cosets


def test_left_cosets_identity(sl2_m1):
    assert sl2_m1.left_cosets(SL2_Q2.identity()) == [SL2_Q2.identity()]


def test_left_cosets_spherical_degree(gl2_m0):
    g = GL2_Q2.parse_matrix([[2, 0], [0, 1]])
    cosets = gl2_m0.left_cosets(g)
    assert len(cosets) == 3  # q + 1
    for i, a in enumerate(cosets):
        for j, b in enumerate(cosets):
            if i != j:
                assert not (a.inverse() @ b).in_km(0)


def test_left_cosets_degree_divides_kernel(sl2_m1):
    from heckelab.matgrp import kernel_count

    tau = CartanDatum((1, -1))
    deg = sl2_m1.degree(tau)
    assert deg == 4
    assert kernel_count(SL2_Q2, 1, 2) % deg == 0


def test_left_cosets_cover_double_coset(sl2_m1, rng):
    tau = CartanDatum((1, -1))
    n = SL2_Q2.n_of_tau(tau)
    cosets = sl2_m1.left_cosets(n)
    for _ in range(30):
        g = random_in_km(SL2_Q2, rng, 1) @ n @ random_in_km(SL2_Q2, rng, 1)
        hits = [a for a in cosets if (a.inverse() @ g).in_km(1)]
        assert len(hits) == 1


def two_rho(tau):
    a = tau.coords
    return sum(a[i] - a[j] for i in range(len(a)) for j in range(i + 1, len(a)))


def spherical_degree(n, q, tau):
    """|K n_tau K / K| = q^<2rho,tau> [n]_q! / (prod [m_i]_q! q^dim(G/P_tau)),
    with m_i the multiplicities of the entries of tau."""
    def q_factorial(k):
        out = 1
        for i in range(1, k + 1):
            out *= sum(q**j for j in range(i))
        return out

    mults = [tau.coords.count(x) for x in sorted(set(tau.coords))]
    den = q ** ((n * n - sum(k * k for k in mults)) // 2)
    for k in mults:
        den *= q_factorial(k)
    num = q ** two_rho(tau) * q_factorial(n)
    assert num % den == 0
    return num // den


TRANSVERSAL_CELLS = [
    pytest.param(SL2_Q2, 1, (1, -1), id="SL2/Q_2 m=1 (1,-1)"),
    pytest.param(SL2_Q2, 1, (2, -2), id="SL2/Q_2 m=1 (2,-2)"),
    pytest.param(GL2_Q3, 1, (1, -1), id="GL2/Q_3 m=1 (1,-1)"),
    pytest.param(GL2_Q2, 2, (1, -1), id="GL2/Q_2 m=2 (1,-1)"),
    pytest.param(SL2_F2, 1, (1, -1), id="SL2/F_2((t)) m=1 (1,-1)"),
    pytest.param(GL2_Q2, 0, (1, 0), id="GL2/Q_2 m=0 (1,0)"),
    pytest.param(GL2_Q2, 0, (1, -1), id="GL2/Q_2 m=0 (1,-1)"),
]


@pytest.mark.parametrize("spec, m, coords", TRANSVERSAL_CELLS)
def test_left_cosets_match_kernel_sweep(spec, m, coords):
    # the closed-form transversal against the literal kernel sweep: same
    # classes, pairwise distinct, and of the closed-form size
    tau = CartanDatum(coords)
    n = spec.n_of_tau(tau)
    fast = HeckeAlgebra(spec, m).left_cosets(n)
    slow = left_cosets_kernel_sweep(n, m)
    assert len(fast) == len(slow)
    for a in fast:
        assert sum(1 for b in slow if (a.inverse() @ b).in_km(m)) == 1
    for i, a in enumerate(fast):
        assert not any((a.inverse() @ b).in_km(m) for b in fast[i + 1:])
    q = spec.model.q
    assert len(fast) == (q ** two_rho(tau) if m >= 1 else spherical_degree(spec.n, q, tau))


@pytest.mark.parametrize("spec, m, bound", [
    pytest.param(GroupSpec("SL", 3, Q2), 1, 1, id="SL3/Q_2 m=1 B=1"),
    pytest.param(SL2_F2, 1, 2, id="SL2/F_2((t)) m=1 B=2"),
    pytest.param(GL2_Q2, 2, 1, id="GL2/Q_2 m=2 B=1"),
])
def test_degree_is_q_to_two_rho(spec, m, bound):
    alg = HeckeAlgebra(spec, m)
    for tau in dominant_window(spec.family, spec.n, bound):
        assert alg.degree(tau) == spec.model.q ** two_rho(tau)


def test_spherical_degree_gl3():
    spec = GroupSpec("GL", 3, Q2)
    alg = HeckeAlgebra(spec, 0)
    assert alg.degree(CartanDatum((1, 0, -1))) == 42
    for tau in dominant_window("GL", 3, 1):
        assert alg.degree(tau) == spherical_degree(3, 2, tau)


def test_degree_budget_charges_transversal_size():
    tau = CartanDatum((4, -4))
    with pytest.raises(BudgetExceeded):
        HeckeAlgebra(SL2_Q2, 1, budget=100).degree(tau)
    assert HeckeAlgebra(SL2_Q2, 1).degree(tau) == 256


# the five coset-tables configurations in their windows, and two at m = 0
DEGREE_CELLS = [
    pytest.param(SL3_Q2, 1, 1, id="SL3/Q_2 m=1 B=1"),
    pytest.param(GL2_Q2, 0, 2, id="GL2/Q_2 m=0 B=2"),
    pytest.param(SL2_F2, 1, 2, id="SL2/F_2((t)) m=1 B=2"),
    pytest.param(GL2_Q3, 1, 1, id="GL2/Q_3 m=1 B=1"),
    pytest.param(SL2_Q2, 1, 2, id="SL2/Q_2 m=1 B=2"),
    pytest.param(GroupSpec("GL", 3, Q2), 0, 1, id="GL3/Q_2 m=0 B=1"),
    pytest.param(SL3_Q2, 0, 1, id="SL3/Q_2 m=0 B=1"),
]


@pytest.mark.parametrize("spec, m, bound", DEGREE_CELLS)
def test_degree_closed_form_matches_enumeration(spec, m, bound, monkeypatch):
    # the closed form first, on a fresh algebra, with no coset system built;
    # then the enumerated transversal of every tau has that many cosets
    taus = dominant_window(spec.family, spec.n, bound)
    alg = HeckeAlgebra(spec, m)
    enumerate_cosets = HeckeAlgebra._ntau_cosets
    built = []
    monkeypatch.setattr(HeckeAlgebra, "_ntau_cosets", lambda self, tau: built.append(tau))
    degrees = {tau: alg.degree(tau) for tau in taus}
    assert built == []
    monkeypatch.setattr(HeckeAlgebra, "_ntau_cosets", enumerate_cosets)
    for tau in taus:
        assert degrees[tau] == len(alg._ntau_cosets(tau))


@pytest.mark.parametrize("spec, m", [
    pytest.param(SL2_Q2, 1, id="SL2/Q_2 m=1"),
    pytest.param(GL2_Q2, 0, id="GL2/Q_2 m=0"),
])
def test_coset_count_guard(spec, m, monkeypatch):
    # a transversal one coset short of the closed form is a defect, also
    # when a coset product asks for it
    tau = CartanDatum((1, -1))
    triangular = HeckeAlgebra._triangular

    def drop_first(self, diag, entries, det):
        return itertools.islice(triangular(self, diag, entries, det), 1, None)

    monkeypatch.setattr(HeckeAlgebra, "_triangular", drop_first)
    with pytest.raises(InvariantViolated, match="left-coset system"):
        HeckeAlgebra(spec, m)._ntau_cosets(tau)
    alg = HeckeAlgebra(spec, m)
    lab = alg.label_of_tau(tau)
    with pytest.raises(InvariantViolated, match="left-coset system"):
        alg.structure_constants(lab, lab)


def test_degree_is_congruence_index(sl2_m1):
    # deg t_g = [K_m : K_m meet g K_m g^-1]; the intersection contains
    # K_(m+c), so the index is |K_m/K_(m+c)| over the count of kernel
    # classes k with g^-1 k g back in K_m -- an independent route
    from heckelab.matgrp import iter_kernel, kernel_count

    for tau in (CartanDatum((1, -1)), CartanDatum((2, -2))):
        g = SL2_Q2.n_of_tau(tau)
        g_inv = g.inverse()
        c = 2 * tau.norm
        stab = sum(1 for k in iter_kernel(SL2_Q2, 1, c) if (g_inv @ k @ g).in_km(1))
        total = kernel_count(SL2_Q2, 1, c)
        assert total % stab == 0
        assert sl2_m1.degree(tau) == total // stab


def test_structure_constants_csv(sl2_m1):
    from heckelab.hecke import structure_constants_csv

    text = structure_constants_csv(sl2_m1, 1)
    lines = text.splitlines()
    assert lines[0] == "g,h,x,c"
    assert len(lines) > 200
    assert all(line.count(",") >= 3 for line in lines[1:])


def test_left_cosets_conjugated_labels(sl2_m1, rng):
    # degree is constant across a Cartan cell
    tau = CartanDatum((1, -1))
    g = random_windowed(SL2_Q2, rng, 1, tau=tau)
    assert len(sl2_m1.left_cosets(g)) == sl2_m1.degree(tau)


# ---------------------------------------------------------------- classify / orbits


def test_classify_identity(sl2_m1):
    lab = sl2_m1.classify(SL2_Q2.identity())
    assert lab.tau.is_zero()
    assert lab.pair[0] == lab.pair[1]
    assert sl2_m1.representative(lab) == SL2_Q2.identity()


def test_classify_k_elements_tau_zero(sl2_m1, rng):
    for _ in range(10):
        k = random_in_k(SL2_Q2, rng)
        lab = sl2_m1.classify(k)
        assert lab.tau.is_zero()
        assert dc_equal(sl2_m1, sl2_m1.representative(lab), k)


def test_classify_agrees_with_dc_equal(sl2_m1, rng):
    # 23 x 23 = 529 windowed pairs
    els = [random_windowed(SL2_Q2, rng, 1) for _ in range(23)]
    for g in els:
        for h in els:
            assert (sl2_m1.classify(g) == sl2_m1.classify(h)) == dc_equal_kernel_sweep(g, h, 1)


@pytest.mark.parametrize("spec, m", [(SL2_Q2, 1), (SL2_F2, 2), (GL2_Q3, 1)],
                         ids=["SL2/Q_2 m=1", "SL2/F_2((t)) m=2", "GL2/Q_3 m=1"])
def test_classify_reads_witnesses_by_code(spec, m, rng, monkeypatch):
    # a witness enters K/K_m by its code alone: on a warm algebra classify
    # calls no reduce_group and builds and hashes no residue matrix, and
    # names the classes that reducing its witnesses to matrices names
    alg = HeckeAlgebra(spec, m)
    idx = {mat: i for i, mat in enumerate(alg.residue_classes)}
    els = [random_windowed(spec, rng, 1) for _ in range(10)]
    expected = []
    for g in els:
        fac = cartan(g)
        xi = idx[matgrp_module.reduce_group(fac.a, m)]
        yi = alg.group.inverses[idx[matgrp_module.reduce_group(fac.b, m)]]
        expected.append(alg.canonical_label(fac.tau, xi, yi))
    counts = {"built": 0, "hashed": 0}
    matrix_init, matrix_hash = ResidueMatrix.__init__, ResidueMatrix.__hash__

    def counted_init(self, *args):
        counts["built"] += 1
        matrix_init(self, *args)

    def counted_hash(self):
        counts["hashed"] += 1
        return matrix_hash(self)

    def refuse(*args):
        raise AssertionError("classify reduced a witness to a residue matrix")

    monkeypatch.setattr(matgrp_module, "reduce_group", refuse)
    monkeypatch.setattr(ResidueMatrix, "__init__", counted_init)
    monkeypatch.setattr(ResidueMatrix, "__hash__", counted_hash)
    labels = [alg.classify(g) for g in els]
    monkeypatch.undo()
    assert counts == {"built": 0, "hashed": 0}
    assert labels == expected


def test_witness_outside_the_classes_is_typed():
    # operations whose replayed witness code names no class of K/K_m raise
    # InvariantViolated: a non-unit determinant, or for SL a unit
    # determinant that is not 1 mod pi^m; a multiplier outside o raises
    # NegativeValuation; the ops' scalars lie in o (exact field elements)
    # or, as classify makes them, in o/pi^M (coordinate tuples)
    exact_q2, exact_q3 = matgrp_module._Field(Q2), matgrp_module._Field(Q3)
    with pytest.raises(InvariantViolated, match="no class"):
        HeckeAlgebra(GL2_Q2, 1).group.witness_classes(
            [(matgrp_module._SCALE, 1, 0, None, Q2.from_int(2))], exact_q2)
    with pytest.raises(InvariantViolated, match="no class"):
        HeckeAlgebra(GroupSpec("SL", 2, Q3), 1).group.witness_classes(
            [(matgrp_module._SCALE, 1, 0, None, Q3.from_int(2))], exact_q3)
    with pytest.raises(NegativeValuation):
        HeckeAlgebra(GL2_Q2, 1).group.witness_classes(
            [(matgrp_module._ADD, 1, 0, 1, Q2.parse("1/2"))], exact_q2)
    truncated = matgrp_module._MixedTruncation(Q2.residue_ring(3))
    with pytest.raises(InvariantViolated, match="no class"):
        HeckeAlgebra(GL2_Q2, 1).group.witness_classes(
            [(matgrp_module._SCALE, 1, 0, None, (2,))], truncated)


# the configurations of the replay property test: (spec, m, window)
REPLAY_CONFIGS = [
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 5)), 1, 2, id="SL2/Q_2(2^(1/5)) m=1"),
    pytest.param(SL2_F2, 1, 2, id="SL2/F_2((t)) m=1"),
    pytest.param(GL2_Q2, 1, 2, id="GL2/Q_2 m=1"),
    pytest.param(GL2_Q3, 1, 2, id="GL2/Q_3 m=1"),
    pytest.param(SL3_Q2, 1, 1, id="SL3/Q_2 m=1"),
    pytest.param(GroupSpec("GL", 3, Q2), 1, 1, id="GL3/Q_2 m=1"),
    pytest.param(SL2_Q2, 2, 2, id="SL2/Q_2 m=2"),
    pytest.param(GL2_Q2, 0, 2, id="GL2/Q_2 m=0"),
]


@pytest.mark.parametrize("spec, m, window", REPLAY_CONFIGS)
def test_classify_is_the_witness_label(spec, m, window):
    # classify replays the elimination on codes; it returns the very label
    # object that cartan's exact witnesses, reduced entry by entry, name,
    # and so does cartan under random pivot tie-breaks (other witnesses)
    alg = HeckeAlgebra(spec, m)
    rng, ties = random.Random(2025), random.Random(7)
    for _ in range(50):
        g = random_windowed(spec, rng, window)
        label = alg.classify(g)
        assert label is classify_by_witnesses(alg, g)
        assert label is classify_by_witnesses(alg, g, rng=ties)


def _scaled_k_elements(spec, rng, count=24):
    """Elements of pi^a K: random_in_k draws, and for GL also pi^a k with a
    in -2..2 (every one of the five for each k)."""
    ks = [random_in_k(spec, rng) for _ in range(count)]
    if spec.family != "GL":
        return ks
    scalars = [spec.n_of_tau(CartanDatum((a,) * spec.n)) for a in range(-2, 3)]
    return ks + [k @ s for k in ks[: count // 4] for s in scalars]


@pytest.mark.parametrize("spec, m, window", REPLAY_CONFIGS + [
    pytest.param(GroupSpec("SL", 2, FieldModel.equal(2, 2)), 1, 1, id="SL2/F_4((t)) m=1"),
])
def test_classify_of_scaled_k_is_the_witness_label(spec, m, window, monkeypatch):
    # an element of pi^a K runs no elimination: with
    # hecke.truncated_elimination refused, classify still returns the very
    # label object that cartan's exact witnesses name
    alg = HeckeAlgebra(spec, m)
    els = _scaled_k_elements(spec, random.Random(2031))
    expected = [classify_by_witnesses(alg, g) for g in els]
    assert all(label.tau.spread == 0 for label in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("classify eliminated an element of pi^a K")

    monkeypatch.setattr(hecke, "truncated_elimination", refuse)
    labels = [alg.classify(g) for g in els]
    assert all(label is want for label, want in zip(labels, expected))


def test_classify_of_scaled_k_reading_the_inverse_fails_the_witness_oracle(sl2_m1,
                                                                           monkeypatch):
    # non-tautology: a double of scaled_class that reads the class of g^-1
    # in place of g's names other labels, and the oracle comparison sees it
    els = _scaled_k_elements(SL2_Q2, random.Random(2032))
    expected = [classify_by_witnesses(sl2_m1, g) for g in els]
    assert [sl2_m1.classify(g) for g in els] == expected
    scaled_class = ClassGroup.scaled_class

    def of_inverse(self, g, a):
        return scaled_class(self, g.inverse(), -a)

    monkeypatch.setattr(ClassGroup, "scaled_class", of_inverse)
    assert [sl2_m1.classify(g) for g in els] != expected


def test_scaled_class_outside_scaled_k_is_typed():
    # g = pi k read at the wrong power: at 0 the code has a determinant that
    # is no unit (no class, InvariantViolated), at 2 an entry lies
    # outside o (NegativeValuation)
    group = HeckeAlgebra(GL2_Q2, 1).group
    g = random_in_k(GL2_Q2, random.Random(5)) @ GL2_Q2.n_of_tau(CartanDatum((1, 1)))
    assert group.scaled_class(g, 1) in range(len(group.codes))
    with pytest.raises(InvariantViolated, match="no class"):
        group.scaled_class(g, 0)
    with pytest.raises(NegativeValuation):
        group.scaled_class(g, 2)


@pytest.mark.parametrize("spec, m", [(SL2_Q2, 1), (SL3_Q2, 1), (SL2_F2, 2)],
                         ids=["SL2/Q_2 m=1", "SL3/Q_2 m=1", "SL2/F_2((t)) m=2"])
def test_classify_forms_no_group_element(spec, m, rng, monkeypatch):
    # on a warm algebra classify builds no GroupElement and takes no
    # cofactor determinant: the witnesses exist only as codes
    alg = HeckeAlgebra(spec, m)
    els = [random_windowed(spec, rng, 1) for _ in range(10)]
    expected = [classify_by_witnesses(alg, g) for g in els]
    counts = {"built": 0, "det": 0}
    element_init, cofactor_det = GroupElement.__init__, matgrp_module._cofactor_det

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        element_init(self, *args, **kwargs)

    def counted_det(*args):
        counts["det"] += 1
        return cofactor_det(*args)

    monkeypatch.setattr(GroupElement, "__init__", counted_init)
    monkeypatch.setattr(matgrp_module, "_cofactor_det", counted_det)
    labels = [alg.classify(g) for g in els]
    monkeypatch.undo()
    assert counts == {"built": 0, "det": 0}
    assert labels == expected


def test_classify_replay_with_a_wrong_multiplier_fails_the_oracle(sl2_m1, monkeypatch):
    # non-tautology: one multiplier of the truncated elimination off by one
    # (its coordinate at pi^0, in o/pi^M) changes the classes the replay
    # names, and the oracle comparison catches it
    # every element has tau = (1, -1): an element of K runs no elimination
    rng = random.Random(31)
    els = [random_windowed(SL2_Q2, rng, 1, tau=CartanDatum((1, -1))) for _ in range(20)]
    expected = [classify_by_witnesses(sl2_m1, g) for g in els]
    truncated = hecke.truncated_elimination

    def perturbed(g, a, delta, P, rng=None):
        tau, ops, sign, ring = truncated(g, a, delta, P, rng)
        add = [s for s, op in enumerate(ops) if op[0] == matgrp_module._ADD]
        if add:
            kind, w, i, j, f = ops[add[0]]
            ops[add[0]] = (kind, w, i, j, (f[0] + 1,) + f[1:])
        return tau, ops, sign, ring

    assert [sl2_m1.classify(g) for g in els] == expected
    monkeypatch.setattr(hecke, "truncated_elimination", perturbed)
    assert [sl2_m1.classify(g) for g in els] != expected


# classify's truncated elimination against the exact one: (spec, m, window)
TRUNCATION_CONFIGS = {
    "SL2/Q_2(2^(1/5)) m=1": (GroupSpec("SL", 2, FieldModel.mixed(2, 5)), 1, 2),
    "SL2/F_2((t)) m=1": (SL2_F2, 1, 2),
    "SL2/F_4((t)) m=1": (GroupSpec("SL", 2, FieldModel.equal(2, 2)), 1, 1),
    "SL2/Q_2 m=2": (SL2_Q2, 2, 2),
    "GL2/Q_2 m=2": (GL2_Q2, 2, 1),
    "SL2/Q_3 m=1 B=3": (GroupSpec("SL", 2, Q3), 1, 3),
    "GL2/Q_2 m=1": (GL2_Q2, 1, 2),
    "GL2/Q_3 m=1": (GL2_Q3, 1, 2),
    "GL2/F_3((t)) m=1": (GroupSpec("GL", 2, FieldModel.equal(3)), 1, 2),
    "GL2/Q_2 m=0": (GL2_Q2, 0, 2),
    "SL3/Q_2 m=1": (SL3_Q2, 1, 1),
    "GL3/Q_2 m=1": (GL3_Q2, 1, 1),
}
TRUNCATION_ALGEBRAS = {}


def _truncation_algebra(spec, m):
    if (spec, m) not in TRUNCATION_ALGEBRAS:
        TRUNCATION_ALGEBRAS[spec, m] = HeckeAlgebra(spec, m)
    return TRUNCATION_ALGEBRAS[spec, m]


def _assert_truncation_is_exact(alg, g, seed):
    # the identical label object, and with equal seeded tie-breaks the
    # same tau and witness classes as the exact elimination
    assert alg.classify(g) is classify_by_exact_elimination(alg, g)
    a, delta = matgrp_module.content(g)
    if delta:
        tau, ops, _, ring = matgrp_module.truncated_elimination(
            g, a, delta, max(alg.m, 1), random.Random(seed))
        assert ((tau, alg.group.witness_classes(ops, ring))
                == exact_witness_classes(alg, g, random.Random(seed)))


@pytest.mark.parametrize("spec, m, window", TRUNCATION_CONFIGS.values(),
                         ids=TRUNCATION_CONFIGS.keys())
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_classify_is_the_exact_label(spec, m, window, data):
    # g = k1 n_tau k2, for GL also times a central pi^a
    alg = _truncation_algebra(spec, m)
    tau = data.draw(st.sampled_from(dominant_window(spec.family, spec.n, window)))
    seed = data.draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    g = random_in_k(spec, rng) @ spec.n_of_tau(tau) @ random_in_k(spec, rng)
    if spec.family == "GL":
        g = g @ spec.n_of_tau(CartanDatum((data.draw(st.integers(-2, 2)),) * spec.n))
    _assert_truncation_is_exact(alg, g, seed)


@pytest.mark.parametrize("spec, tau", [(SL3_Q2, (1, 0, -1)), (GL3_Q2, (1, 1, -1))],
                         ids=["SL3/Q_2", "GL3/Q_2"])
def test_truncated_classify_with_delta_above_the_spread(spec, tau):
    # at n = 3, M = P + delta exceeds P + a_1 - a_n: delta = 3 and 4 > 2
    alg = _truncation_algebra(spec, 1)
    rng = random.Random(2036)
    for seed in range(12):
        g = random_windowed(spec, rng, 1, tau=CartanDatum(tau))
        a, delta = matgrp_module.content(g)
        assert delta > CartanDatum(tau).spread
        _assert_truncation_is_exact(alg, g, seed)


def test_truncated_classify_one_digit_short_fails(monkeypatch):
    # non-tautology: eliminating mod pi^(M - 1) reads the last pivot as zero
    # or names other classes, on every element drawn with delta = a_1 - a_n
    # (all of them at n = 2, where the first pivot has valuation 0; at n =
    # 3 delta may exceed a_1 - a_n, which is all the pivots need)
    cases = [(GroupSpec("SL", 2, FieldModel.mixed(2, 5)), None), (GL2_Q3, None),
             (GL3_Q2, CartanDatum((1, 0, 0)))]
    truncated = hecke.truncated_elimination

    def short(g, a, delta, P, rng=None):
        return truncated(g, a, delta, P - 1, rng)

    for spec, tau in cases:
        alg = _truncation_algebra(spec, 1)
        rng = random.Random(2037)
        els = [g for g in (random_windowed(spec, rng, 2, tau=tau) for _ in range(30))
               if matgrp_module.content(g)[1]]
        expected = [classify_by_exact_elimination(alg, g) for g in els]
        assert els and [alg.classify(g) for g in els] == expected
        monkeypatch.setattr(hecke, "truncated_elimination", short)
        for g, want in zip(els, expected):
            try:
                assert alg.classify(g) != want
            except InvariantViolated:
                pass
        monkeypatch.undo()


def _count_field_products(monkeypatch):
    """Count the FieldElement products and inverses made while patched."""
    counts = collections.Counter()
    for name, methods in (("mul", ("__mul__", "__rmul__")), ("inverse", ("inverse",))):
        original = getattr(localfield.FieldElement, methods[0])

        def counted(self, *args, name=name, original=original):
            counts[name] += 1
            return original(self, *args)

        for method in methods:
            monkeypatch.setattr(localfield.FieldElement, method, counted)
    return counts


@pytest.mark.parametrize("spec", [GroupSpec("SL", 2, FieldModel.mixed(2, 5)), SL2_F2,
                                  GL3_Q2], ids=["SL2/Q_2(2^(1/5))", "SL2/F_2((t))", "GL3/Q_2"])
def test_truncated_routes_form_no_field_product(spec, monkeypatch):
    # classify of a non-central element on a warm algebra, and
    # residue_witnesses mod pi^5: no field product and no field inverse,
    # only shifts, valuations and reductions
    alg = _truncation_algebra(spec, 1)
    rng = random.Random(2038)
    els = [random_windowed(spec, rng, 2 if spec.n == 2 else 1) for _ in range(24)]
    els = [g for g in els if matgrp_module.content(g)[1]]
    expected = [(alg.classify(g), matgrp_module.residue_witnesses(g, 5)) for g in els]
    counts = _count_field_products(monkeypatch)
    got = [(alg.classify(g), matgrp_module.residue_witnesses(g, 5)) for g in els]
    monkeypatch.undo()
    assert els and dict(counts) == {}
    assert got == expected


def test_orbit_table_tau_zero(sl2_m1):
    table = sl2_m1.orbit_table(CartanDatum((0, 0)))
    q = len(sl2_m1.residue_classes)
    assert table.orbit_count == q
    assert table.gamma_size == q
    for x, y in table.gamma:
        assert x == y  # Gamma_0 is the diagonal


def test_orbit_table_sl2_tau1(sl2_m1):
    table = sl2_m1.orbit_table(CartanDatum((1, -1)))
    assert table.orbit_count == 9
    assert table.gamma_size == 4
    assert table.orbit_count * table.gamma_size == 36


def test_gamma_matches_dc_equal_sweep(sl2_m1):
    tau = CartanDatum((1, -1))
    assert set(sl2_m1.orbit_table(tau).gamma) == set(gamma_by_sweep(SL2_Q2, tau, 1))


def test_gamma_gl2_q3_contains_diagonal_units(gl2_q3_m1):
    tau = CartanDatum((1, 0))
    table = gl2_q3_m1.orbit_table(tau)
    ring = Q3.residue_ring(1)
    from heckelab.matgrp import ResidueMatrix

    for a in (1, 2):
        for d in (1, 2):
            mat = ResidueMatrix(
                ring,
                ((ring.from_int(a), ring.zero()), (ring.zero(), ring.from_int(d))),
            )
            assert (mat, mat) in set(table.gamma)
    assert table.orbit_count * table.gamma_size == len(gl2_q3_m1.residue_classes) ** 2


def test_gamma_gl2_q3_matches_sweep(gl2_q3_m1):
    tau = CartanDatum((1, 0))
    assert set(gl2_q3_m1.orbit_table(tau).gamma) == set(gamma_by_sweep(GL2_Q3, tau, 1))


GAMMA_CELLS = [
    pytest.param(GroupSpec("SL", 3, Q2), 1, 1, id="SL3/Q_2 m=1 B=1"),
    pytest.param(GL2_Q2, 0, 2, id="GL2/Q_2 m=0 B=2"),
    pytest.param(SL2_F2, 1, 2, id="SL2/F_2((t)) m=1 B=2"),
    pytest.param(GL2_Q3, 1, 1, id="GL2/Q_3 m=1 B=1"),
    pytest.param(SL2_Q2, 1, 2, id="SL2/Q_2 m=1 B=2"),
    pytest.param(GL2_Q2, 2, 1, id="GL2/Q_2 m=2 B=1"),
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 5)), 1, 1, id="SL2/Q_2(2^(1/5)) m=1 B=1"),
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 2)), 2, 1, id="SL2/Q_2(2^(1/2)) m=2 B=1"),
    pytest.param(GroupSpec("GL", 2, FieldModel.equal(3)), 1, 1, id="GL2/F_3((t)) m=1 B=1"),
    pytest.param(GroupSpec("SL", 2, FieldModel.equal(3)), 1, 1, id="SL2/F_3((t)) m=1 B=1"),
    pytest.param(GroupSpec("GL", 3, Q2), 1, 1, id="GL3/Q_2 m=1 B=1"),
    # equal characteristic at m = 2: sy = m (the y_ij must vanish) and
    # spreads above m for SL2; 0 < sy < m (q^sy preimages of each y_ij in
    # pi^sy o/pi^m) at tau = (1,0) for GL2
    pytest.param(SL2_F2, 2, 2, id="SL2/F_2((t)) m=2 B=2"),
    pytest.param(GroupSpec("GL", 2, FieldModel.equal(2)), 2, 1, id="GL2/F_2((t)) m=2 B=1"),
    pytest.param(GroupSpec("GL", 3, Q2), 1, 2, id="GL3/Q_2 m=1 B=2"),
]


@pytest.mark.parametrize("spec, m, bound", GAMMA_CELLS)
def test_gamma_matches_exact_witnesses(spec, m, bound):
    # the residue-only stabilizer against exact field witnesses reduced mod pi^m
    alg = HeckeAlgebra(spec, m)
    q = alg.residue_classes
    for tau in dominant_window(spec.family, spec.n, bound):
        expected = tuple((q[s], q[t]) for s, t in gamma_by_exact_witnesses(alg, tau))
        assert alg.orbit_table(tau).gamma == expected, tau


@pytest.mark.parametrize("spec, m, bound", [
    pytest.param(SL3_Q2, 1, 1, id="SL3/Q_2 m=1 B=1"),
    pytest.param(GL2_Q2, 2, 2, id="GL2/Q_2 m=2 B=2"),
])
def test_gamma_looks_up_each_pair_once(spec, m, bound):
    # one pass over the classes y of K/K_m: every x it forms belongs to a
    # pair of Gamma_tau, and each is looked up in the code index once; a
    # tau whose capped exponents were met before looks up nothing
    class Counting(dict):
        lookups = 0

        def __getitem__(self, code):
            Counting.lookups += 1
            return super().__getitem__(code)

        def get(self, code, default=None):
            Counting.lookups += 1
            return super().get(code, default)

    for tau in dominant_window(spec.family, spec.n, bound):
        alg = HeckeAlgebra(spec, m)
        object.__setattr__(alg.group, "index", Counting(alg.group.index))  # past the frozen slot
        Counting.lookups = 0
        gamma = alg._gamma(tau)
        assert Counting.lookups == len(gamma) > 0, tau
        shifted = CartanDatum(tuple(x + 1 for x in tau.coords))
        if spec.family == "GL":  # a central shift keeps every a_i - a_j
            assert alg._gamma(shifted) is gamma and Counting.lookups == len(gamma), tau


@pytest.mark.parametrize("m", [1, 2])
def test_gamma_is_constant_once_spread_reaches_level(m):
    # (i, j) entries carry pi^d with d = a_i - a_j, and every pi^d with d >=
    # m is 0 in o/pi^m: Gamma_(k,-k) is one set for every 2k >= m
    alg = HeckeAlgebra(GL2_Q2, m)
    k0 = (m + 1) // 2
    base = alg._gamma(CartanDatum((k0, -k0)))
    assert base != alg._gamma(zero_tau(2))
    for k in (k0 + 1, k0 + 2, 7, 10**6):
        assert alg._gamma(CartanDatum((k, -k))) == base


def test_classify_gamma_orbit_equivalence(sl2_m1, rng):
    # k1 n k2 and k1' n k2' classify equal iff their pairs sit in one
    # Gamma_tau orbit, which is exactly dc-equality of the elements
    tau = CartanDatum((1, -1))
    n = SL2_Q2.n_of_tau(tau)
    for _ in range(12):
        k1, k2 = random_in_k(SL2_Q2, rng), random_in_k(SL2_Q2, rng)
        k3, k4 = random_in_k(SL2_Q2, rng), random_in_k(SL2_Q2, rng)
        g, h = k1 @ n @ k2, k3 @ n @ k4
        assert (sl2_m1.classify(g) == sl2_m1.classify(h)) == dc_equal_kernel_sweep(g, h, 1)


def test_orbit_stabilizer_guard(monkeypatch):
    # a stabilizing pair outside Gamma_tau breaks |X_tau| |Gamma_tau| = |K/K_m|^2
    alg = HeckeAlgebra(SL2_Q2, 1)
    tau, e = CartanDatum((1, -1)), alg.group.e
    gamma = alg._gamma(tau)
    x = next(i for i in range(len(alg.residue_classes)) if (i, e) not in gamma)
    monkeypatch.setattr(alg, "_gamma", lambda t: sorted(gamma + [(x, e)]))
    with pytest.raises(InvariantViolated, match="orbit-stabilizer"):
        alg.orbit_table(tau)


MUL_TABLE_CELLS = [
    pytest.param(GroupSpec("SL", 3, Q2), 1, id="SL3/Q_2 m=1"),
    pytest.param(GL2_Q3, 1, id="GL2/Q_3 m=1"),
    pytest.param(GL2_Q2, 2, id="GL2/Q_2 m=2"),
    pytest.param(GroupSpec("GL", 2, FieldModel.equal(3)), 1, id="GL2/F_3((t)) m=1"),
    pytest.param(SL2_F2, 1, id="SL2/F_2((t)) m=1"),
    pytest.param(GL2_Q2, 0, id="GL2/Q_2 m=0"),
]


@pytest.mark.parametrize("spec, m", MUL_TABLE_CELLS)
def test_mul_index_matches_products(spec, m):
    # every product x y, walked along the move table, and every inverse,
    # against the residue-matrix products of all |K/K_m|^2 pairs
    alg = HeckeAlgebra(spec, m)
    table = mul_table_by_products(alg)
    pairs = itertools.product(range(len(table)), repeat=2)
    group = alg.group
    assert all(group.mul(x, y) == table[x][y] for x, y in pairs)
    assert group.inverses == [row.index(group.e) for row in table]


def _transposed(code, n: int):
    """The code of the transpose of the n x n matrix with code ``code``."""
    return tuple(code[j * n + i] for i in range(n) for j in range(n))


@pytest.mark.parametrize("spec, m, bound, sampled", [
    pytest.param(SL2_Q2, 1, 2, None, id="SL2/Q_2 m=1 B=2"),
    pytest.param(SL2_F2, 1, 2, None, id="SL2/F_2((t)) m=1 B=2"),
    pytest.param(SL2_Q2, 2, 1, None, id="SL2/Q_2 m=2 B=1"),
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 5)), 1, 1, None,
                 id="SL2/Q_2(2^(1/5)) m=1 B=1"),
    pytest.param(SL3_Q2, 1, 1, 1000, id="SL3/Q_2 m=1 B=1 sampled"),
    pytest.param(GL2_Q3, 1, 1, 5000, id="GL2/Q_3 m=1 B=1 sampled"),
    pytest.param(GL3_Q2, 1, 1, 2000, id="GL3/Q_2 m=1 B=1 sampled"),
])
def test_transpose_is_an_anti_involution_of_the_constants(spec, m, bound, sampled):
    # g -> g^T reverses products and fixes K_m and every n_tau, so it sends
    # K_m x n_tau y^-1 K_m to K_m y^-T n_tau x^T K_m: with sigma[c] the class
    # of c^-T, an automorphism of K/K_m checked as lambda_m is, the label l =
    # (tau, x, y) goes to l^T = (tau, sigma[y], sigma[x]), and t_l -> t_(l^T)
    # reverses convolution: c(l1, l2; x) = c(l2^T, l1^T; x^T) on every window
    # pair (or ``sampled`` seeded ones), most of which do not commute.  The
    # tau = 0 brackets classify elements of K with no elimination, so this
    # checks that path by an identity that shares none of its code
    alg = HeckeAlgebra(spec, m)
    group = alg.group
    sigma = [group.inverses[group.index[_transposed(code, spec.n)]] for code in group.codes]
    group.check_isomorphism(sigma, group, "the inverse transpose")

    def transpose(label):
        return alg.canonical_label(label.tau, sigma[label.y], sigma[label.x])

    basis = alg.labels_in_window(bound)
    assert all(transpose(transpose(l)) == l for l in basis)
    pairs = itertools.product(basis, repeat=2)
    if sampled is not None:  # seeded pair indices, with no list of all pairs
        size = len(basis)
        pairs = [(basis[k // size], basis[k % size])
                 for k in random.Random(2033).sample(range(size * size), sampled)]
    noncommuting = 0
    for l1, l2 in pairs:
        constants = alg.structure_constants(l1, l2)
        transposed = {transpose(x): c for x, c in constants.items()}
        assert transposed == alg.structure_constants(transpose(l2), transpose(l1)), (l1, l2)
        noncommuting += constants != alg.structure_constants(l2, l1)
    assert noncommuting > 0


def test_transpose_without_inverse_is_not_multiplicative():
    # c -> c^T reverses products, an anti-automorphism of the non-abelian
    # K/K_m: the isomorphism check refuses it
    for spec, m in ((SL2_Q2, 1), (SL2_F2, 1), (SL2_Q2, 2)):
        group = HeckeAlgebra(spec, m).group
        transposed = [group.index[_transposed(code, spec.n)] for code in group.codes]
        with pytest.raises(InvariantViolated, match="transpose is not multiplicative on K/K_m at"):
            group.check_isomorphism(transposed, group, "the transpose")


def test_class_map_that_is_no_bijection_is_refused():
    # every class sent to the identity, and a map one class short
    group = HeckeAlgebra(SL2_Q2, 1).group
    for lam in ([group.e] * len(group.codes), list(range(len(group.codes) - 1))):
        with pytest.raises(InvariantViolated, match="not a bijection"):
            group.check_isomorphism(lam, group, "lam")


@pytest.mark.parametrize("spec, m", MUL_TABLE_CELLS)
def test_mul_index_matmul_count(spec, m, monkeypatch):
    # the closure applies each move to each class once, recording the move
    # table as it goes (|Q| |S| moves), and forms no matrix product or
    # determinant; the code
    # product and code determinant live only in tests/oracles.py
    applied = [0]
    class_moves = matgrp_module._class_moves

    class Counted(tuple):
        def __iter__(self):  # a move is unpacked once each time it is applied
            applied[0] += 1
            return super().__iter__()

    def counted(*args):
        moves, inverse = class_moves(*args)
        return [Counted(move) for move in moves], inverse

    def refuse(*args):
        raise AssertionError("the closure formed a matrix product or determinant")

    monkeypatch.setattr(matgrp_module, "_class_moves", counted)
    monkeypatch.setattr(matgrp_module, "_cofactor_det", refuse)
    monkeypatch.setattr(ResidueMatrix, "__matmul__", refuse)
    assert not hasattr(ResidueMatrix, "det")
    alg = HeckeAlgebra(spec, m)
    size = len(alg.residue_classes)
    moves = len(alg.group.table)
    assert applied[0] == size * moves
    assert (applied[0] > 0) == (size > 1)
    assert not hasattr(matgrp_module, "code_product") and not hasattr(matgrp_module, "code_det")


@pytest.mark.parametrize("spec, order", [
    pytest.param(GroupSpec("SL", 3, Q3), 3**3 * (3**2 - 1) * (3**3 - 1), id="SL3/Q_3 m=1"),
    pytest.param(GroupSpec("GL", 3, Q3), (3**3 - 1) * (3**3 - 3) * (3**3 - 9), id="GL3/Q_3 m=1"),
])
def test_closure_reaches_rank_two_over_q3(spec, order):
    # |SL3(F_3)| = 5,616 and |GL3(F_3)| = 11,232 classes build under the
    # default budget, where their 3.2e7 and 1.3e8 pairs would not fit; every
    # orbit table of the window obeys orbit-stabilizer, with the closed-form
    # degree q^<2rho,tau>
    alg = HeckeAlgebra(spec, 1)
    size = len(alg.residue_classes)
    assert size == order
    assert size * size > matgrp_module.DEFAULT_BUDGET
    for tau in dominant_window(spec.family, 3, 1):
        table = alg.orbit_table(tau)
        assert table.orbit_count * table.gamma_size == size * size, tau
        a = tau.coords
        assert alg.degree(tau) == 3 ** sum(a[i] - a[j] for i in range(3) for j in range(i + 1, 3))


def test_closure_guard_trips_on_a_missing_move(monkeypatch):
    # a generating set with one move dropped closes on a proper subgroup,
    # short of the closed-form order: the unit move of GL2/Q_3 (det = 1
    # only) and one of the two elementary moves of SL2/Q_2 (order 2)
    class_moves = matgrp_module._class_moves
    for spec, drop in ((GL2_Q3, -1), (SL2_Q2, 0)):
        def dropped(*args, drop=drop):
            moves, inverse = class_moves(*args)
            del moves[drop]  # the closure raises before any inverse is read
            return moves, inverse

        monkeypatch.setattr(matgrp_module, "_class_moves", dropped)
        with pytest.raises(InvariantViolated, match="closed-form"):
            HeckeAlgebra(spec, 1).residue_classes
        monkeypatch.undo()


def test_labels_format_each_class_and_residue_once(monkeypatch):
    # a label is one f-string of cached parts: each class of K/K_m formats
    # its n^2 entries once, and each element of o/pi is formatted once a
    # process, however many labels and algebras share it
    n = SL3_Q2.n
    entries, terms = [0], collections.Counter()
    element_str, format_terms = localfield.ResidueElement.__str__, localfield._format_terms

    def counted_entry(x):
        entries[0] += 1
        return element_str(x)

    def counted_terms(coeffs, var):
        terms[tuple(coeffs), var] += 1
        return format_terms(coeffs, var)

    monkeypatch.setattr(localfield.ResidueElement, "__str__", counted_entry)
    monkeypatch.setattr(localfield, "_format_terms", counted_terms)
    formatted, classes = [], 0
    for _ in range(2):  # two fresh algebras, fresh classes, one shared ring
        alg = HeckeAlgebra(SL3_Q2, 1)
        labels = [l for tau in dominant_window("SL", 3, 1) for l in alg.orbit_table(tau).labels]
        formatted += [(l, str(l)) for l in labels] + [(l, str(l)) for l in labels]
        classes += len({id(c) for l in labels for c in l.pair})
    assert entries[0] == n * n * classes
    assert max(terms.values(), default=1) == 1
    monkeypatch.undo()
    ring = localfield.ResidueRing(Q2, 1)  # not the shared ring: no string cached

    def fresh(c):
        return ResidueMatrix(ring, [[localfield.ResidueElement(ring, x.coords) for x in row]
                                    for row in c.rows])

    fresh_groups = {}
    for label, text in formatted:
        if id(label.group) not in fresh_groups:
            fresh_groups[id(label.group)] = _with_matrices(
                label.group, [fresh(c) for c in label.group.matrices])
        rebuilt = DoubleCosetLabel(label.tau, label.x, label.y, fresh_groups[id(label.group)])
        assert str(rebuilt) == text


@pytest.mark.parametrize("spec, m", MUL_TABLE_CELLS + [
    pytest.param(SL2_Q2, 1, id="SL2/Q_2 m=1"),  # with the cells above: every coset-tables config
    pytest.param(GroupSpec("GL", 2, FieldModel.equal(2, 2)), 1, id="GL2/F_4((t)) m=1"),
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 2)), 2, id="SL2/Q_2(2^(1/2)) m=2"),
])
def test_enumeration_matches_object_sweep(spec, m):
    # the closure from elementary moves, sorted once, gives the same classes
    # in the same order as a sweep of all residue matrices and determinants
    assert enumerate_residue_matrices(spec, m) == residue_matrices_by_object_sweep(spec, m)


@pytest.mark.parametrize("spec, m", MUL_TABLE_CELLS + [pytest.param(SL2_Q2, 1, id="SL2/Q_2 m=1")])
def test_canonical_label_matches_orbit_oracle(spec, m):
    # window 2 where the coset-tables benchmark builds window 2
    bound = 2 if (spec, m) in [(GL2_Q2, 0), (SL2_F2, 1), (SL2_Q2, 1)] else 1
    alg = HeckeAlgebra(spec, m)
    q = alg.residue_classes
    size = len(q)
    taus = dominant_window(spec.family, spec.n, bound)
    for tau, expected in canonical_by_orbits(alg, taus).items():
        assert {
            (xi, yi): alg.canonical_label(tau, xi, yi) for xi in range(size) for yi in range(size)
        } == expected
        # the oracle labels each orbit by its least pair: the labels are
        # those pairs, in index order
        least = sorted((xi, yi) for (xi, yi), label in expected.items()
                       if label.pair == (q[xi], q[yi]))
        assert list(alg.orbit_table(tau).labels) == [expected[key] for key in least]


def test_orbit_tables_hold_nothing_per_pair():
    # the canonical map of each tau is O(|Q| + |labels|): no sequence in
    # it, at any depth, has one entry per pair of (K/K_m)^2
    alg = HeckeAlgebra(SL3_Q2, 1)
    for tau in dominant_window("SL", 3, 1):
        alg.orbit_table(tau)
    pairs = len(alg.residue_classes) ** 2

    def lengths(obj):
        if isinstance(obj, (list, tuple)):
            yield len(obj)
            for item in obj:
                yield from lengths(item)

    canonical = [(t.x0, t.tcol, t.slot, t.rows) for t in alg._orbit_tables.values()]
    assert len(canonical) == len(dominant_window("SL", 3, 1))
    assert max(lengths(canonical)) < pairs


@pytest.mark.parametrize("spec, m", [c for c in MUL_TABLE_CELLS if c.values[1] >= 1])
def test_tables_form_no_residue_matrix_product_or_det(spec, m, monkeypatch):
    # K/K_m, its move table and the orbit tables run in index arithmetic
    def refuse(*args):
        raise AssertionError("a ResidueMatrix product or determinant was formed")

    monkeypatch.setattr(ResidueMatrix, "__matmul__", refuse)
    monkeypatch.setattr(matgrp_module, "_cofactor_det", refuse)
    alg = HeckeAlgebra(spec, m)
    alg.group.inverses
    for tau in dominant_window(spec.family, spec.n, 1):
        assert alg.orbit_table(tau).orbit_count > 0


@pytest.mark.parametrize("spec", [
    pytest.param(GroupSpec("SL", 2, FieldModel.mixed(2, 5)), id="SL2/Q_2(2^(1/5)) m=1"),
    pytest.param(GL2_Q3, id="GL2/Q_3 m=1"),
])
def test_classify_inverts_no_residue_matrix(spec, monkeypatch):
    # on warm tables [b]^-1 comes from the move table, not from a
    # cofactor inverse over o/pi^m
    alg = HeckeAlgebra(spec, 1)
    rng = random.Random(1509)
    samples = [random_windowed(spec, rng, 1) for _ in range(12)]
    expected = [alg.classify(g) for g in samples]

    def refuse(*args):
        raise AssertionError("classify inverted a residue or a residue matrix")

    monkeypatch.setattr(matgrp_module, "_cofactor_inverse", refuse)
    assert [alg.classify(g) for g in samples] == expected


def test_spherical_cosets_run_no_cartan(monkeypatch):
    # the m = 0 Hermite-normal-form filter reads tau off the elimination
    # (matgrp.truncated_elimination), with no witness replayed: cartan
    # never runs
    def refuse(*args, **kwargs):
        raise AssertionError("the coset filter ran a Cartan factorization")

    monkeypatch.setattr(hecke, "cartan", refuse)
    alg = HeckeAlgebra(GL2_Q2, 0)
    for tau in dominant_window("GL", 2, 2):
        a1, a2 = tau.coords
        assert alg.degree(tau) == (2 ** (a1 - a2 - 1) * 3 if a1 > a2 else 1)


def test_budget_refuses_huge_level_and_window_at_once():
    # sizes are compared by exponent: no ring of precision 10^9 and no
    # (2 * 10^9 + 1)^2 window candidates are built before the refusal
    t0 = time.process_time()
    with pytest.raises(BudgetExceeded):
        HeckeAlgebra(GroupSpec("GL", 1, Q2), 10**9, budget=100)
    with pytest.raises(BudgetExceeded):
        dominant_window("SL", 2, 10**9)
    with pytest.raises(BudgetExceeded):
        HeckeAlgebra(SL2_Q2, 1).labels_in_window(10**9)
    # GL1 over Q_2 at m = 10: its 2^10 residue points and its 512^2 pair
    # tables fit the default budget, the 4^10 entries of the ring tables of
    # o/pi^10 do not
    with pytest.raises(BudgetExceeded, match="tables"):
        HeckeAlgebra(GroupSpec("GL", 1, Q2), 10).residue_classes
    assert time.process_time() - t0 < 0.1
    # the largest level under a budget: |M_2(o/pi^2)| = 2^8, and for n >= 2
    # that level charge covers the q^(2m) ring-table entries
    assert len(HeckeAlgebra(GL2_Q2, 2, budget=256).residue_classes) == 96
    with pytest.raises(BudgetExceeded):
        HeckeAlgebra(GL2_Q2, 2, budget=255)


def test_budget_charges_move_table_and_labels():
    # GL2/Q_3 at m = 1: the 81 residue points and the 48 classes pass a
    # budget of 200, the 48 * 5 = 240 entries of the move table do not
    alg = HeckeAlgebra(GL2_Q3, 1, budget=200)
    assert len(alg.residue_classes) == 48
    with pytest.raises(BudgetExceeded):
        alg.orbit_table(zero_tau(2))
    assert len(HeckeAlgebra(GL2_Q3, 1, budget=240).group.table) == 5


def test_orbit_table_charges_its_labels(monkeypatch):
    # the |K/K_m|^2 / |Gamma_tau| labels of each tau are charged before they
    # are built: 168 at tau = 0 and 441 at (1,0,-1) on SL3/Q_2, m = 1
    charged = []
    check = hecke._check_budget

    def recorded(count, budget):
        charged.append(count)
        return check(count, budget)

    monkeypatch.setattr(hecke, "_check_budget", recorded)
    alg = HeckeAlgebra(SL3_Q2, 1)
    for tau in dominant_window("SL", 3, 1):
        charged.clear()
        table = alg.orbit_table(tau)
        assert table.orbit_count in charged


# ---------------------------------------------------------------- convolution


def test_structure_constant_divisibility_guard(monkeypatch):
    # deg(l1) times each label tally is its constant times its degree; a
    # degree P times too large off tau = (1,-1) leaves c_x / P, not an integer
    alg = HeckeAlgebra(SL2_Q2, 1)
    tau = CartanDatum((1, -1))
    lab = alg.label_of_tau(tau)
    true_degree = alg.degree
    monkeypatch.setattr(
        alg, "degree", lambda label: true_degree(label) * (1 if label.tau == tau else 10**9 + 7)
    )
    with pytest.raises(InvariantViolated, match="not divisible"):
        alg.structure_constants(lab, lab)


def test_structure_constant_count_guard(monkeypatch):
    # every support label is some alpha_i beta_j, so its count is at least 1
    alg = HeckeAlgebra(SL2_Q2, 1)
    lab = alg.label_of_tau(CartanDatum((1, -1)))
    monkeypatch.setattr(GroupElement, "in_km", lambda self, m: False)
    with pytest.raises(InvariantViolated, match="count 0"):
        structure_constants_by_membership(alg, lab, lab)


def test_product_classifies_degree_of_right_factor(monkeypatch):
    # one classification per left coset of the right factor, none per pair
    alg = HeckeAlgebra(SL2_Q2, 1)
    labels = alg.labels_in_window(1)
    classify, product = HeckeAlgebra.classify, HeckeAlgebra._product
    calls, made = [0], []

    def counted_classify(self, g):
        calls[0] += 1
        return classify(self, g)

    def counted_product(self, tau1, k0, tau2):
        before = calls[0]
        out = product(self, tau1, k0, tau2)
        made.append((calls[0] - before, self.degree(tau2)))
        return out

    monkeypatch.setattr(HeckeAlgebra, "classify", counted_classify)
    monkeypatch.setattr(HeckeAlgebra, "_product", counted_product)
    for l1 in labels:
        for l2 in labels:
            alg.structure_constants(l1, l2)
    assert made and all(n == deg for n, deg in made)
    assert max(deg for _, deg in made) > 1


def test_unit_element(sl2_m1, rng):
    u = sl2_m1.unit(ZZ)
    f = sl2_m1.t(random_windowed(SL2_Q2, rng, 1))
    assert sl2_m1.convolve(u, f) == f
    assert sl2_m1.convolve(f, u) == f


def test_single_support_product_of_cocharacters(gl2_q3_m1):
    # t_(n_(1,0)) * t_(n_(1,1)) = t_(n_(2,1)) over GL_2 at m = 1
    t10 = gl2_q3_m1.t(GL2_Q3.n_of_tau(CartanDatum((1, 0))))
    t11 = gl2_q3_m1.t(GL2_Q3.n_of_tau(CartanDatum((1, 1))))
    prod = gl2_q3_m1.convolve(t10, t11)
    target = gl2_q3_m1.label_of_tau(CartanDatum((2, 1)))
    assert prod.terms == {target: 1}


def test_spherical_oracle(gl2_m0):
    g = GL2_Q2.parse_matrix([[2, 0], [0, 1]])
    f = gl2_m0.t(g)
    prod = gl2_m0.convolve(f, f)
    by_tau = {lab.tau.coords: c for lab, c in prod.terms.items()}
    assert by_tau == {(2, 0): 1, (1, 1): 3}
    degs = {lab.tau.coords: gl2_m0.degree(lab) for lab in prod.terms}
    assert degs == {(2, 0): 6, (1, 1): 1}
    assert 1 * 6 + 3 * 1 == 3 * 3  # (q+1)^2 = (q^2+q) + 3


def test_structure_constants_positive_and_conserving(sl2_m1, rng):
    labels = sl2_m1.labels_in_window(1)
    for _ in range(6):
        l1, l2 = rng.choice(labels), rng.choice(labels)
        sc = sl2_m1.structure_constants(l1, l2)
        assert all(isinstance(c, int) and c > 0 for c in sc.values())
        assert sum(c * sl2_m1.degree(l) for l, c in sc.items()) == \
            sl2_m1.degree(l1) * sl2_m1.degree(l2)


def test_structure_constants_are_a_fresh_dict(sl2_m1):
    # a caller that clears the returned dict changes no later answer
    labels = sl2_m1.labels_in_window(1)
    l1, l2 = labels[-1], labels[-2]
    first = sl2_m1.structure_constants(l1, l2)
    expected = dict(first)
    first.clear()
    assert sl2_m1.structure_constants(l1, l2) == expected != {}


def test_structure_constant_sweep_keeps_nothing_per_pair():
    # the first sweep of the 14,400 window pairs of SL2/Q_2 at m = 2 builds
    # brackets, double-coset and orbit tables, tens of KB, and keeps nothing
    # per pair: a dict kept per pair would hold megabytes
    alg = HeckeAlgebra(SL2_Q2, 2)
    basis = alg.labels_in_window(1)
    assert len(basis) ** 2 == 14400
    gc.collect()
    tracemalloc.start()
    try:
        for l1 in basis:
            for l2 in basis:
                alg.structure_constants(l1, l2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, retained


@pytest.mark.parametrize(
    "spec, m",
    [(SL2_Q2, 1), (SL2_F2, 1), (GL2_Q2, 0)],
    ids=["SL2/Q_2 m=1", "SL2/F_2((t)) m=1", "GL2/Q_2 m=0"],
)
def test_structure_constants_match_tally_on_window(spec, m):
    # every windowed pair, against the untranslated classify-and-count oracle
    alg = HeckeAlgebra(spec, m)
    labels = alg.labels_in_window(1)
    for l1 in labels:
        for l2 in labels:
            assert alg.structure_constants(l1, l2) == structure_constants_by_tally(alg, l1, l2)


@pytest.mark.parametrize(
    "spec, m",
    [(SL2_Q2, 1), (SL2_F2, 1), (GL2_Q2, 0)],
    ids=["SL2/Q_2 m=1", "SL2/F_2((t)) m=1", "GL2/Q_2 m=0"],
)
def test_structure_constants_match_membership_on_window(spec, m):
    # every windowed pair, against the definition c_x = #{i : alpha_i^-1 x
    # in K_m h K_m} counted by in_km tests
    alg = HeckeAlgebra(spec, m)
    labels = alg.labels_in_window(1)
    for l1 in labels:
        for l2 in labels:
            assert alg.structure_constants(l1, l2) == structure_constants_by_membership(alg, l1, l2)


@pytest.mark.parametrize(
    "spec, m", [(GL2_Q3, 1), (GL2_Q2, 2)], ids=["GL2/Q_3 m=1", "GL2/Q_2 m=2"]
)
def test_structure_constants_match_tally_sampled(spec, m):
    alg = HeckeAlgebra(spec, m)
    labels = alg.labels_in_window(1)
    pairs = random.Random(20261018).sample([(a, b) for a in labels for b in labels], 30)
    one = residue_identity(labels[0].pair[0].ring, spec.n)
    # the middle class k = y1^-1 x2 is what the translation carries into the
    # bracket, and the fold replaces it by the least class k0 of its double coset
    q, inv = alg.residue_classes, alg.group.inverses
    idx = {mat: i for i, mat in enumerate(q)}
    middles = [(l1, l2, q[inv[l1.y]] @ l2.pair[0]) for l1, l2 in pairs]
    assert any(k != one for _, _, k in middles)
    assert any(alg._double_coset(l1.tau, l2.tau)[idx[k]][0] != idx[k] for l1, l2, k in middles)
    for l1, l2 in pairs:
        assert alg.structure_constants(l1, l2) == structure_constants_by_tally(alg, l1, l2)


@pytest.mark.parametrize(
    "spec, m", [(SL2_Q2, 1), (GL2_Q3, 1), (SL3_Q2, 1)],
    ids=["SL2/Q_2 m=1", "GL2/Q_3 m=1", "SL3/Q_2 m=1"],
)
def test_double_cosets_fold_the_bracket(spec, m):
    # table[k] = (k0, s, t'^-1) must give k = t k0 s' with (s, t) in
    # Gamma_tau1 and (s', t') in Gamma_tau2, k0 least in P2 k P1; checked
    # against the residue-matrix products of the oracle and the Gamma pairs
    # of the orbit tables
    alg = HeckeAlgebra(spec, m)
    mul = mul_table_by_products(alg)
    idx = {mat: i for i, mat in enumerate(alg.residue_classes)}
    size = len(mul)
    inv = [row.index(alg.group.e) for row in mul]

    def gamma(tau):
        return {(idx[x], idx[y]) for x, y in alg.orbit_table(tau).gamma}

    taus = dominant_window(spec.family, spec.n, 1)
    for tau1 in taus:
        g1 = gamma(tau1)
        p2 = sorted({t for _, t in g1})
        for tau2 in taus:
            g2 = gamma(tau2)
            p1 = sorted({s for s, _ in g2})
            table = alg._double_coset(tau1, tau2)
            assert len(table) == size
            for k, (k0, s, t2_inv) in enumerate(table):
                t2 = inv[t2_inv]
                assert any(
                    mul[mul[t][k0]][s2] == k
                    for s1, t in g1 if s1 == s
                    for s2, u in g2 if u == t2
                ), (tau1, tau2, k)
            starts = sorted({k0 for k0, _, _ in table})
            covered = []
            for k0 in starts:
                coset = {mul[mul[t][k0]][s2] for t in p2 for s2 in p1}
                assert min(coset) == k0
                assert coset == {k for k in range(size) if table[k][0] == k0}
                covered.extend(coset)
            # the double cosets partition K/K_m
            assert sorted(covered) == list(range(size))


def test_fold_test_rejects_partners_that_are_all_the_identity(monkeypatch):
    # non-tautology: a table that pairs every t of P2 with s = e, whatever
    # Gamma_tau1 pairs it with, must fail the fold test
    table = HeckeAlgebra._double_coset

    def unpaired(self, tau1, tau2):
        e = self.group.e
        return [(k0, e, t2_inv) for k0, _, t2_inv in table(self, tau1, tau2)]

    monkeypatch.setattr(HeckeAlgebra, "_double_coset", unpaired)
    with pytest.raises(AssertionError):
        test_double_cosets_fold_the_bracket(SL2_Q2, 1)


@pytest.mark.parametrize("spec, m, bound", [
    pytest.param(SL2_Q2, 1, 1, id="SL2/Q_2 m=1"),
    pytest.param(SL2_Q2, 2, 1, id="SL2/Q_2 m=2"),
    pytest.param(GL2_Q3, 1, 1, id="GL2/Q_3 m=1"),
    pytest.param(SL3_Q2, 1, 1, id="SL3/Q_2 m=1"),
    pytest.param(GL3_Q2, 1, 1, id="GL3/Q_2 m=1"),
    pytest.param(GL2_Q2, 0, 2, id="GL2/Q_2 m=0 B=2"),
])
def test_double_coset_table_matches_generator_sweep(spec, m, bound, monkeypatch):
    # the table read off the orbit table of tau2 picks the same k0 as the
    # breadth-first sweep over generators on every window tau pair, and the
    # constants translated through either table are equal as dicts on every
    # window pair (3,000 seeded ones where there are more)
    alg, oracle = HeckeAlgebra(spec, m), HeckeAlgebra(spec, m)
    tables = {}
    for key in itertools.product(dominant_window(spec.family, spec.n, bound), repeat=2):
        tables[key] = double_coset_by_generators(oracle, *key)
        assert [row[0] for row in alg._double_coset(*key)] == [row[0] for row in tables[key]]
    # the k0 agree, so the oracle side reads the same brackets: only the
    # partners it translates them with differ
    monkeypatch.setattr(oracle, "_double_coset", lambda tau1, tau2: tables[tau1, tau2])
    monkeypatch.setattr(oracle, "_bracket", alg._bracket)
    basis = alg.labels_in_window(bound)
    size = len(basis)
    picks = range(size * size)
    if len(picks) > 3000:  # seeded pair indices, with no list of all pairs
        picks = random.Random(2034).sample(picks, 3000)
    for l1, l2 in ((basis[k // size], basis[k % size]) for k in picks):
        assert alg.structure_constants(l1, l2) == oracle.structure_constants(l1, l2), (l1, l2)


@pytest.mark.parametrize("drop", ["(e, e)", "every (s, e)"])
def test_double_coset_guard_needs_the_identity_pair(drop, monkeypatch):
    # a Gamma_tau1 without the identity pair is no group: the table build
    # refuses it with a typed error, not a TypeError on an unreached coset
    alg = HeckeAlgebra(SL2_Q2, 1)
    tau1, tau2, e = CartanDatum((1, -1)), CartanDatum((1, -1)), alg.group.e
    alg.orbit_table(tau2)
    gamma = alg._gamma
    kept = (lambda s, t: (s, t) != (e, e)) if drop == "(e, e)" else (lambda s, t: t != e)
    monkeypatch.setattr(alg, "_gamma", lambda tau: [
        (s, t) for s, t in gamma(tau) if kept(s, t)] if tau == tau1 else gamma(tau))
    with pytest.raises(InvariantViolated, match="lacks"):
        alg._double_coset(tau1, tau2)


# (L1) and (L2) of the product lemmas, on random dominant pairs at m = 1, 2
LEMMA_ALGEBRAS = {}
LEMMA_CELLS = [(SL2_Q2, 1, 2), (SL2_Q2, 2, 2), (GL2_Q2, 1, 2), (GL2_Q3, 1, 1), (GL2_Q2, 2, 1),
               (SL2_F2, 2, 2), (SL3_Q2, 1, 1)]


@st.composite
def dominant_pairs(draw):
    """An algebra of LEMMA_CELLS with two taus of its window."""
    spec, m, bound = draw(st.sampled_from(LEMMA_CELLS))
    if (spec, m) not in LEMMA_ALGEBRAS:
        LEMMA_ALGEBRAS[spec, m] = HeckeAlgebra(spec, m)
    taus = dominant_window(spec.family, spec.n, bound)
    return LEMMA_ALGEBRAS[spec, m], draw(st.sampled_from(taus)), draw(st.sampled_from(taus))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dominant_pairs())
def test_dominant_products_are_one_double_coset(case):
    # (L1) theta_l * theta_mu = theta_(l+mu) at m >= 1: the product of the
    # K_m n_tau K_m is one double coset, with constant 1
    alg, tau1, tau2 = case
    top = CartanDatum(tuple(a + b for a, b in zip(tau1.coords, tau2.coords)))
    product = alg.structure_constants(alg.label_of_tau(tau1), alg.label_of_tau(tau2))
    assert product == {alg.label_of_tau(top): 1}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dominant_pairs())
def test_only_the_identity_double_coset_reaches_the_top(case):
    # (L2) a term of cocharacter tau1 + tau2 occurs in the bracket of k0
    # only for the k0 of the identity class, and there it is the single term
    alg, tau1, tau2 = case
    top = tuple(a + b for a, b in zip(tau1.coords, tau2.coords))
    table = alg._double_coset(tau1, tau2)
    identity = table[alg.group.e][0]
    for k0 in sorted({row[0] for row in table}):
        bracket = alg._bracket(tau1, k0, tau2)
        reaching = [c for z, c in bracket.items() if z.tau.coords == top]
        if k0 == identity:
            assert len(bracket) == 1 and reaching == [1], (tau1, tau2, bracket)
        else:
            assert not reaching, (tau1, tau2, k0, bracket)


# The Cartan round trip as a property: g = k1 n_tau k2 for k1, k2 drawn in
# K and tau in the window (B = 2 at n = 2, B = 1 at n = 3).  F_4((t)) at
# n = 3 classifies at m = 0, where the label is that of n_tau: at m = 1 its
# K/K_1 has 181,440 classes for GL (its move table is over the default
# budget) and 60,480 for SL (5.5 s to build and classify two elements).
ROUND_TRIP_FIELDS = {
    "Q_2": FieldModel.mixed(2), "Q_3": FieldModel.mixed(3), "Q_2(2^(1/5))": FieldModel.mixed(2, 5),
    "F_2((t))": FieldModel.equal(2), "F_4((t))": FieldModel.equal(2, 2),
}
ROUND_TRIP_CELLS = {
    f"{family}{n}/{name}": (GroupSpec(family, n, model), 0 if n == 3 and model.q == 4 else 1)
    for family in ("GL", "SL") for n in (2, 3) for name, model in ROUND_TRIP_FIELDS.items()
}
ROUND_TRIP_ALGEBRAS = {}


@pytest.mark.parametrize("spec, m", ROUND_TRIP_CELLS.values(), ids=ROUND_TRIP_CELLS.keys())
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_cartan_round_trip_property(spec, m, data):
    # cartan(g) multiplies back to g with tau dominant and equal to the tau
    # g was built from, both witnesses lie in K, and classify(g) is the one
    # label of t(k1) * t(n_tau) * t(k2) (K_m is normal in K, so K_m k1 K_m
    # n_tau K_m k2 K_m = K_m g K_m)
    if (spec, m) not in ROUND_TRIP_ALGEBRAS:
        ROUND_TRIP_ALGEBRAS[spec, m] = HeckeAlgebra(spec, m)
    alg = ROUND_TRIP_ALGEBRAS[spec, m]
    tau = data.draw(st.sampled_from(dominant_window(spec.family, spec.n, 2 if spec.n == 2 else 1)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    k1, k2 = random_in_k(spec, rng), random_in_k(spec, rng)
    n_tau = spec.n_of_tau(tau)
    g = k1 @ n_tau @ k2
    fac = cartan(g)
    assert fac.product() == g
    coords = fac.tau.coords
    assert all(x >= y for x, y in zip(coords, coords[1:])) and fac.tau == tau
    assert fac.a.in_k() and fac.b.in_k()
    if m:
        product = alg.convolve(alg.convolve(alg.t(k1), alg.t(n_tau)), alg.t(k2))
    else:  # K_0 = K, so t(k1) = t(k2) = 1 and the product is t(n_tau)
        product = alg.t_of_label(alg.label_of_tau(tau))
    assert product == alg.t_of_label(alg.classify(g))


def test_negative_level_is_invalid_config():
    with pytest.raises(InvalidConfig):
        HeckeAlgebra(SL2_Q2, -1)


def test_structure_constants_tally_guard(monkeypatch):
    # each label tally is its structure constant times its degree
    alg = HeckeAlgebra(SL2_Q2, 1)
    lab = alg.label_of_tau(CartanDatum((1, -1)))
    monkeypatch.setattr(alg, "degree", lambda label: 10**9)
    with pytest.raises(InvariantViolated, match="not divisible"):
        structure_constants_by_tally(alg, lab, lab)


def test_residue_class_product_rule(sl2_m1, rng):
    # t_(k1) * t_(k2) = t_(k1 k2): the tau = 0 case of the product lemma
    for _ in range(10):
        k1, k2 = random_in_k(SL2_Q2, rng), random_in_k(SL2_Q2, rng)
        lhs = sl2_m1.convolve(sl2_m1.t(k1), sl2_m1.t(k2))
        assert lhs == sl2_m1.t(k1 @ k2)


def test_base_change_coherence(sl2_m1, rng):
    labels = sl2_m1.labels_in_window(1)
    for ell in (3, 5):
        ring = PrimeField(ell)
        for _ in range(4):
            l1, l2 = rng.choice(labels), rng.choice(labels)
            over_z = sl2_m1.convolve(sl2_m1.t_of_label(l1), sl2_m1.t_of_label(l2))
            over_l = sl2_m1.convolve(
                sl2_m1.t_of_label(l1, ring), sl2_m1.t_of_label(l2, ring)
            )
            assert base_change(over_z, ring) == over_l


def test_base_change_prime_power_ring(sl2_m1):
    ring = IntegersMod(3, 2)
    lab = sl2_m1.label_of_tau(CartanDatum((1, -1)))
    over_z = sl2_m1.convolve(sl2_m1.t_of_label(lab), sl2_m1.t_of_label(lab))
    over_r = sl2_m1.convolve(sl2_m1.t_of_label(lab, ring), sl2_m1.t_of_label(lab, ring))
    assert base_change(over_z, ring) == over_r


def test_mixed_rings_rejected(sl2_m1):
    with pytest.raises(MixedRings):
        sl2_m1.convolve(sl2_m1.unit(ZZ), sl2_m1.unit(QQ))


def test_residue_char_warning(sl2_m1):
    with pytest.warns(UserWarning):
        sl2_m1.unit(PrimeField(2))  # l = p = 2: pro-order not invertible


def test_window_flagging(sl2_m1):
    f = sl2_m1.t(SL2_Q2.n_of_tau(CartanDatum((1, -1))))
    prod = sl2_m1.convolve(f, f, window=1)
    assert len(prod.flagged) == 1
    assert prod.flagged[0].tau == CartanDatum((2, -2))
    assert max(l.tau.norm for l in prod.terms) == 2
    unflagged = sl2_m1.convolve(f, sl2_m1.unit(ZZ), window=1)
    assert unflagged.flagged == ()


def test_hecke_element_arithmetic(sl2_m1):
    labels = sl2_m1.labels_in_window(1)
    f = HeckeElement(ZZ, {labels[0]: 2, labels[1]: -1})
    g = HeckeElement(ZZ, {labels[1]: 1})
    assert (f + g).terms == {labels[0]: 2}
    assert (f - f).is_zero()
    assert f.scaled(3).terms == {labels[0]: 6, labels[1]: -3}
    data = f.serialize()
    assert data["ring"] == "Z"
    assert len(data["terms"]) == 2


# ---------------------------------------------------------------- generators


def test_generator_cocharacters():
    alg_sl = HeckeAlgebra(SL2_Q2, 1)
    assert [t.coords for t in alg_sl.generator_cocharacters(1)] == [(0, 0), (1, -1)]
    assert [t.coords for t in alg_sl.generator_cocharacters(2)] == [(0, 0), (1, -1)]
    alg_gl = HeckeAlgebra(GL2_Q2, 1)
    assert [t.coords for t in alg_gl.generator_cocharacters(1)] == [
        (0, 0), (1, 0), (1, 1), (-1, -1),
    ]
    sl3 = HeckeAlgebra(GroupSpec("SL", 3, Q2), 1)
    gens3 = [t.coords for t in sl3.generator_cocharacters(2)]
    assert (1, 0, -1) in gens3 and (1, 1, -2) in gens3 and (2, -1, -1) in gens3
    assert (2, 0, -2) not in gens3  # decomposable


def test_generator_set_size(sl2_m1):
    gens = sl2_m1.generators(1)
    assert len(gens) == 7  # 6 residue classes plus one nonzero tau
    assert all(len(g.terms) == 1 for g in gens)


def test_generator_factorization_identity(sl2_m1, rng):
    # every windowed basis element factors through the generating set:
    # t_(k1 n_tau k2) = t_k1 * t_(n_tau) * t_k2
    for _ in range(20):
        tau = rng.choice([CartanDatum((0, 0)), CartanDatum((1, -1))])
        k1, k2 = random_in_k(SL2_Q2, rng), random_in_k(SL2_Q2, rng)
        n = SL2_Q2.n_of_tau(tau)
        lhs = sl2_m1.t(k1 @ n @ k2)
        rhs = sl2_m1.convolve(
            sl2_m1.convolve(sl2_m1.t(k1), sl2_m1.t(n)), sl2_m1.t(k2)
        )
        assert lhs == rhs


def test_twin_label_is_read_by_group_key(monkeypatch):
    # a label of a second algebra of the same group and level is accepted
    # and equal through its indices and the (spec, m, c) of its group: no
    # residue matrix is compared or hashed, however many classes there are
    alg, twin_alg = HeckeAlgebra(SL2_Q2, 1), HeckeAlgebra(SL2_Q2, 1)
    own, twins = alg.labels_in_window(1), twin_alg.labels_in_window(1)
    expected = {l.sort_key(): alg.structure_constants(l, l) for l in own}
    counts = {"eq": 0, "hash": 0}
    matrix_eq, matrix_hash = ResidueMatrix.__eq__, ResidueMatrix.__hash__

    def counted_eq(self, other):
        counts["eq"] += 1
        return matrix_eq(self, other)

    def counted_hash(self):
        counts["hash"] += 1
        return matrix_hash(self)

    monkeypatch.setattr(ResidueMatrix, "__eq__", counted_eq)
    monkeypatch.setattr(ResidueMatrix, "__hash__", counted_hash)
    assert twins[0].group is not own[0].group
    assert [alg.indices(t) for t in twins] == [(l.x, l.y) for l in own]
    assert twins == own and set(twins) == set(own)
    assert all(hash(t) == hash(l) for t, l in zip(twins, own))
    assert all(alg.structure_constants(t, t) == expected[t.sort_key()] for t in twins)
    monkeypatch.undo()
    assert counts == {"eq": 0, "hash": 0}


def test_label_of_another_group_is_refused(sl2_m1, gl2_m1):
    # GL_2(F_2) = SL_2(F_2), so at m = 1 the two algebras over Q_2 list the
    # same classes; an SL2 label is still no GL2 label: refused with a
    # typed error, and equal to no GL2 label of the same indices
    assert sl2_m1.residue_classes == gl2_m1.residue_classes
    sl_labels, gl_labels = sl2_m1.labels_in_window(1), set(gl2_m1.labels_in_window(1))
    label = sl_labels[0]
    assert any(l.sort_key() == label.sort_key() for l in gl_labels)
    with pytest.raises(MixedRings, match="classes of another"):
        gl2_m1.indices(label)
    with pytest.raises(MixedRings, match="classes of another"):
        gl2_m1.representative(label)
    with pytest.raises(MixedRings, match="classes of another"):
        gl2_m1.structure_constants(label, gl2_m1.label_of_tau(zero_tau(2)))
    assert not any(l in gl_labels for l in sl_labels)


def test_labels_in_window(sl2_m1):
    labels = sl2_m1.labels_in_window(1)
    assert len(labels) == 6 + 9
    assert len(set(labels)) == 15
    assert labels == sorted(labels, key=lambda l: l.sort_key())
    # separately built equal labels, over a group of fresh matrices, whose
    # hash and string are not cached yet: the same hash, string and set
    fresh = _with_matrices(sl2_m1.group,
                           [ResidueMatrix(r.ring, r.rows) for r in sl2_m1.residue_classes])
    rebuilt = [DoubleCosetLabel(CartanDatum(l.tau.coords), l.x, l.y, fresh) for l in labels]
    for old, new in zip(labels, rebuilt):
        assert new is not old and new == old
        assert hash(new) == hash(old) and str(new) == str(old)
        assert hash(new.pair[0]) == hash(old.pair[0])
    assert set(rebuilt) == set(labels)
    assert HeckeAlgebra(SL2_Q2, 1).labels_in_window(1) == labels
