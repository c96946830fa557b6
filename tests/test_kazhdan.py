import collections
import hashlib
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from heckelab.errors import (
    BudgetExceeded,
    InsufficientCloseness,
    InvariantViolated,
    MixedRings,
    SingularBasis,
)
from heckelab import hecke, kazhdan, matgrp
from heckelab.hecke import HeckeAlgebra, HeckeElement
from heckelab.kazhdan import (
    TransportContext,
    WindowedModule,
    check_lattice_stability,
    safety_bound,
    verify_algebra_map,
)
from heckelab.localfield import ClosePair, FieldElement, FieldModel
from heckelab.matgrp import (
    CartanDatum,
    ClassGroup,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    dominant_window,
    zero_tau,
)
from heckelab.rings import ZZ, RationalField
from heckelab.sampling import random_windowed
from oracles import (
    dc_equal_kernel_sweep,
    residue_witnesses_by_exact_elimination,
    transport_element_by_witnesses,
    transport_label_by_witnesses,
)
from samples import random_hecke, random_in_km, random_windowed_module

E3 = FieldModel.equal(3)
SL2_E3 = GroupSpec("SL", 2, E3)

F_MIX = FieldModel.mixed(2, 5)
F_EQ = FieldModel.equal(2)
SL2_F = GroupSpec("SL", 2, F_MIX)
SL2_F2 = GroupSpec("SL", 2, F_EQ)


@pytest.fixture(scope="module")
def identity_ctx():
    pair = ClosePair(E3, E3, 4)
    return TransportContext(pair, SL2_E3, SL2_E3, m=1, N=4, window=1)


@pytest.fixture(scope="module")
def flagship_ctx():
    pair = ClosePair(F_MIX, F_EQ, 5)
    return TransportContext(pair, SL2_F, SL2_F2, m=1, N=5, window=1)


def _swapped_transport(ctx, monkeypatch, a, b):
    """Replace the label bijection by itself composed with the swap a <-> b."""
    transport = ctx.transport_label
    swap = {a: b, b: a}
    monkeypatch.setattr(ctx, "transport_label", lambda label: transport(swap.get(label, label)))


# ---------------------------------------------------------------- safety bound


def test_safety_bound_formula():
    assert safety_bound([], 1) == 1
    assert safety_bound([CartanDatum((0, 0))], 2) == 2
    assert safety_bound([CartanDatum((1, 0))], 1) == 3
    assert safety_bound([CartanDatum((2, -2))], 1) == 5


def test_safety_bound_conjugation_spot_check(rng):
    # g K_(n_C) g^-1 inside K_m for 50 random elements of K_(n_C)
    spec = GroupSpec("SL", 2, FieldModel.mixed(2, 1))
    m = 1
    tau = CartanDatum((1, -1))
    n_c = safety_bound([tau], m)
    assert n_c == 3
    for _ in range(50):
        g = random_windowed(spec, rng, 1, tau=tau)
        k = random_in_km(spec, rng, n_c)
        assert (g @ k @ g.inverse()).in_km(m)


# ---------------------------------------------------------------- elements


def test_transport_identity_pair_fixes_labels(identity_ctx, rng):
    for _ in range(20):
        g = random_windowed(SL2_E3, rng, 1)
        g2 = identity_ctx.transport_element(g)
        assert identity_ctx.algebra.classify(g) == identity_ctx.algebra2.classify(g2)


def test_transport_of_diagonal_uniformizer():
    # pair (Q_2(2^(1/4)), F_2((t))), N = 4, m = 1: diag(pi,1) -> diag(t,1)
    mix4 = FieldModel.mixed(2, 4)
    pair = ClosePair(mix4, F_EQ, 4)
    gl2 = GroupSpec("GL", 2, mix4)
    gl2b = GroupSpec("GL", 2, F_EQ)
    ctx = TransportContext(pair, gl2, gl2b, m=1, N=4, window=1)
    g = gl2.n_of_tau(CartanDatum((1, 0)))
    g2 = ctx.transport_element(g)
    expected = gl2b.n_of_tau(CartanDatum((1, 0)))
    assert ctx.algebra2.classify(g2) == ctx.algebra2.classify(expected)
    assert g2 == expected  # clean witnesses transport to clean witnesses


def test_transport_unipotent_translate(flagship_ctx):
    # k n_tau with k = 1 + pi E_12 lands in the class of k' n'_tau,
    # k' = 1 + t E_12; certified on the F' side by equal labels and by the
    # bounded-kernel search
    model, model2 = F_MIX, F_EQ
    one, zero, pi = model.one(), model.zero(), model.uniformizer()
    k = GroupElement(SL2_F, ((one, pi), (zero, one)))
    tau = CartanDatum((1, -1))
    g2 = flagship_ctx.transport_element(k @ SL2_F.n_of_tau(tau))
    one2, zero2, t = model2.one(), model2.zero(), model2.uniformizer()
    k2 = GroupElement(SL2_F2, ((one2, t), (zero2, one2)))
    h2 = k2 @ SL2_F2.n_of_tau(tau)
    assert flagship_ctx.algebra2.classify(g2) == flagship_ctx.algebra2.classify(h2)
    assert dc_equal_kernel_sweep(g2, h2, 1)


def test_transport_guard_insufficient_closeness(flagship_ctx):
    g = SL2_F.n_of_tau(CartanDatum((3, -3)))  # needs N >= 1 + 6
    with pytest.raises(InsufficientCloseness):
        flagship_ctx.transport_element(g)


def test_transport_witness_independence(flagship_ctx, rng):
    labels = flagship_ctx.algebra.labels_in_window(1)
    lab = [l for l in labels if not l.tau.is_zero()][0]
    target = flagship_ctx.transport_label(lab)
    rep = flagship_ctx.algebra.representative(lab)
    for _ in range(20):
        g = random_in_km(SL2_F, rng, 1) @ rep @ random_in_km(SL2_F, rng, 1)
        g2 = flagship_ctx.transport_element(g)
        assert flagship_ctx.algebra2.classify(g2) == target


@pytest.mark.parametrize("window", [1, 2])
def test_transport_element_is_the_witness_route(window):
    # transport_element replays the elimination on residues of o/pi^N; its
    # image equals the one cartan's exact witnesses give, with and without
    # random pivot tie-breaks (other witnesses, replayed alike)
    ctx = TransportContext(ClosePair(F_MIX, F_EQ, 5), SL2_F, SL2_F2, m=1, N=5, window=window)
    rng = random.Random(2040 + window)
    for _ in range(30):
        g = random_windowed(SL2_F, rng, window)
        assert ctx.transport_element(g) == transport_element_by_witnesses(ctx, g)
        seed = rng.randrange(1 << 30)
        assert (ctx.transport_element(g, rng=random.Random(seed))
                == transport_element_by_witnesses(ctx, g, rng=random.Random(seed)))


def test_transport_element_is_the_witness_route_on_gl2():
    ctx = _close_ctx("GL", 5, 1, 2)
    rng = random.Random(2042)
    for _ in range(30):
        g = random_windowed(ctx.spec, rng, 2)
        assert ctx.transport_element(g) == transport_element_by_witnesses(ctx, g)


def test_transport_element_forms_no_side_1_witness(flagship_ctx, monkeypatch):
    # no GroupElement of side 1 is built: the witnesses exist only as
    # residues of o/pi^N until they are lifted on side 2
    rng = random.Random(2043)
    els = [random_windowed(SL2_F, rng, 2) for _ in range(10)]
    expected = [transport_element_by_witnesses(flagship_ctx, g) for g in els]
    built = collections.Counter()
    element_init = GroupElement.__init__

    def counted_init(self, group, *args, **kwargs):
        built[group] += 1
        element_init(self, group, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted_init)
    images = [flagship_ctx.transport_element(g) for g in els]
    monkeypatch.undo()
    assert built[SL2_F] == 0 and built[SL2_F2] > 0
    assert images == expected


def test_transport_element_with_a_wrong_witness_multiplier_fails_the_oracle(flagship_ctx,
                                                                           monkeypatch):
    # non-tautology: one multiplier of the truncated elimination off by one
    # (its coordinate at pi^0, in o/pi^M) changes the transported element,
    # and the oracle comparison catches it
    rng = random.Random(2044)
    els = [random_windowed(SL2_F, rng, 2, tau=CartanDatum((1, -1))) for _ in range(10)]
    expected = [transport_element_by_witnesses(flagship_ctx, g) for g in els]
    truncated = matgrp.truncated_elimination

    def perturbed(g, a, delta, P, rng=None):
        tau, ops, sign, ring = truncated(g, a, delta, P, rng)
        add = [s for s, op in enumerate(ops) if op[0] == matgrp._ADD]
        if add:
            kind, w, i, j, f = ops[add[0]]
            ops[add[0]] = (kind, w, i, j, (f[0] + 1,) + f[1:])
        return tau, ops, sign, ring

    assert [flagship_ctx.transport_element(g) for g in els] == expected
    monkeypatch.setattr(matgrp, "truncated_elimination", perturbed)
    assert [flagship_ctx.transport_element(g) for g in els] != expected


# close pairs for the truncated residue witnesses: (family, n, side-1
# model, side-2 model, N, window of the drawn tau)
TRUNCATION_PAIRS = {
    "SL2 Q_2(2^(1/5)) ~ F_2((t)) N=5": ("SL", 2, F_MIX, F_EQ, 5, 2),
    "GL2 Q_2(2^(1/4)) ~ F_2((t)) N=4": ("GL", 2, FieldModel.mixed(2, 4), F_EQ, 4, 2),
    "SL3 Q_2(2^(1/3)) ~ F_2((t)) N=3": ("SL", 3, FieldModel.mixed(2, 3), F_EQ, 3, 1),
    "GL2 F_3((t)) ~ F_3((t)) N=3": ("GL", 2, E3, E3, 3, 1),
}


@pytest.mark.parametrize("family, n, model, model2, N, window", TRUNCATION_PAIRS.values(),
                         ids=TRUNCATION_PAIRS.keys())
def test_truncated_residue_witnesses_are_the_exact_ones(family, n, model, model2, N, window):
    # residue_witnesses eliminates mod pi^(N + delta): on both sides of a
    # close pair its tau and residue matrices are those of the exact
    # elimination, with and without equal seeded tie-breaks
    rng = random.Random(2045)
    for side in (model, model2):
        spec = GroupSpec(family, n, side)
        for _ in range(12):
            g = random_windowed(spec, rng, window)
            assert matgrp.residue_witnesses(g, N) == residue_witnesses_by_exact_elimination(g, N)
            seed = rng.randrange(1 << 30)
            assert (matgrp.residue_witnesses(g, N, random.Random(seed))
                    == residue_witnesses_by_exact_elimination(g, N, random.Random(seed)))


def test_truncated_residue_witnesses_one_digit_short_fail(monkeypatch):
    # non-tautology: eliminating mod pi^(M - 1) leaves a digit of the
    # witnesses mod pi^N unknown, and some of them then differ (10 of
    # these 20)
    rng = random.Random(2046)
    els = [random_windowed(SL2_F, rng, 2) for _ in range(20)]
    expected = [residue_witnesses_by_exact_elimination(g, 5) for g in els]
    assert [matgrp.residue_witnesses(g, 5) for g in els] == expected
    truncated = matgrp.truncated_elimination

    def short(g, a, delta, P, rng=None):
        return truncated(g, a, delta, P - 1, rng)

    monkeypatch.setattr(matgrp, "truncated_elimination", short)
    differ = 0
    for g, want in zip(els, expected):
        try:
            differ += matgrp.residue_witnesses(g, 5) != want
        except InvariantViolated:
            differ += 1
    assert differ


# ---------------------------------------------------------------- labels


def _close_ctx(family, e, m, window, n=2):
    """GL_n or SL_n over Q_2(2^(1/e)) ~ F_2((t)) at N = e."""
    model = FieldModel.mixed(2, e)
    pair = ClosePair(model, F_EQ, e)
    spec, spec2 = GroupSpec(family, n, model), GroupSpec(family, n, F_EQ)
    return TransportContext(pair, spec, spec2, m=m, N=e, window=window)


@pytest.mark.parametrize("family, n, e, m, window, admitted", [
    pytest.param("SL", 2, 5, 1, 1, 15, id="SL2 e=5 m=1 B=1"),
    pytest.param("SL", 2, 5, 1, 2, 24, id="SL2 e=5 m=1 B=2"),
    pytest.param("GL", 2, 5, 1, 2, 120, id="GL2 e=5 m=1 B=2"),
    pytest.param("SL", 2, 5, 2, 1, 120, id="SL2 e=5 m=2 B=1"),
    pytest.param("GL", 2, 3, 1, 1, 45, id="GL2 e=3 m=1 B=1"),
    pytest.param("SL", 3, 3, 1, 1, 609, id="SL3 e=3 m=1 B=1"),
])
def test_transport_label_matches_witness_route(family, n, e, m, window, admitted):
    # every window label the witness guard N >= m + 2|tau| admits
    ctx = _close_ctx(family, e, m, window, n)
    labels = [l for l in ctx.algebra.labels_in_window(window)
              if safety_bound([l.tau], m) <= ctx.N]
    assert len(labels) == admitted
    for label in labels:
        assert ctx.transport_label(label) == transport_label_by_witnesses(ctx, label)


@pytest.mark.parametrize("m", [1, 2])
def test_transport_label_follows_class_order(monkeypatch, m):
    # across characteristics both sides enumerate K/K_m in one digit order,
    # so lam is the identity on indices; side 2's closure listed in reverse,
    # its codes, matrices, words and move table alike, makes it a true
    # permutation, which both routes must follow
    congruence_classes = hecke._congruence_classes

    def reversed_on_side_2(spec, level, budget):
        group = congruence_classes(spec, level, budget)
        if spec.model != F_EQ:
            return group
        last = len(group.codes) - 1  # class x is class last - x of the reversed list
        return ClassGroup(
            spec, group.m, group.tables, group.codes[::-1], group.matrices[::-1],
            group.moves, group.move_inverse, group.words[::-1],
            [[last - xs for xs in reversed(row)] for row in group.table], budget,
        )

    monkeypatch.setattr(hecke, "_congruence_classes", reversed_on_side_2)
    ctx = _close_ctx("SL", 5, m, 1)
    assert ctx._class_map() != list(range(len(ctx.algebra.residue_classes)))
    for label in ctx.algebra.labels_in_window(1):
        assert ctx.transport_label(label) == transport_label_by_witnesses(ctx, label)


def test_class_map_and_gamma_transport_sl3_over_q3():
    # the close pair Q_3 ~ F_3((t)) at N = 1: lam is checked on the 5,616 |S|
    # generator pairs of SL3(F_3), and lam x lam maps Gamma_tau onto
    # Gamma'_tau for every tau of the window
    q3 = FieldModel.mixed(3, 1)
    ctx = TransportContext(ClosePair(q3, E3, 1), GroupSpec("SL", 3, q3), GroupSpec("SL", 3, E3),
                           m=1, N=1, window=1)
    lam = ctx._class_map()
    assert sorted(lam) == list(range(5616))
    for tau in dominant_window("SL", 3, 1):
        image = {(lam[s], lam[t]) for s, t in ctx.algebra._gamma(tau)}
        assert image == set(ctx.algebra2._gamma(tau)), tau


def test_transport_label_needs_no_cartan_or_field_inverse(monkeypatch):
    ctx = _close_ctx("SL", 5, 1, 2)
    expected = {l: transport_label_by_witnesses(ctx, l) for l in ctx.algebra.labels_in_window(2)}

    def refuse(*args, **kwargs):
        raise AssertionError("transport_label ran a Cartan factorization or a field inverse")

    monkeypatch.setattr(kazhdan, "cartan", refuse)
    monkeypatch.setattr(hecke, "cartan", refuse)
    monkeypatch.setattr(FieldElement, "inverse", refuse)
    fresh = _close_ctx("SL", 5, 1, 2)
    assert {l: fresh.transport_label(l) for l in expected} == expected


def test_label_of_the_other_side_is_a_typed_error(flagship_ctx):
    # a label indexes its own algebra's classes: side 1 refuses one of side
    # 2, whose indices name other classes, and accepts one of a second
    # algebra of the same group and level
    label = flagship_ctx.algebra.labels_in_window(1)[3]
    other = flagship_ctx.transport_label(label)
    with pytest.raises(MixedRings, match="classes of another"):
        flagship_ctx.algebra.structure_constants(other, label)
    with pytest.raises(MixedRings, match="classes of another"):
        flagship_ctx.algebra.representative(other)
    with pytest.raises(MixedRings, match="classes of another"):
        flagship_ctx.transport_label(other)
    twin = HeckeAlgebra(SL2_F, 1).labels_in_window(1)[3]
    assert twin.group is not label.group and twin == label
    assert flagship_ctx.transport_label(twin) is other


def test_transport_label_rejects_non_multiplicative_class_map():
    # a class map that swaps the identity class with another one is a
    # bijection but not a homomorphism of K/K_m: side 2's code index with
    # the codes of its identity and of its first other class swapped
    ctx = _close_ctx("SL", 5, 1, 1)
    group2 = ctx.algebra2.group
    one, codes = group2.e, group2.codes
    other = next(x for x in range(len(codes)) if x != one)
    swapped = dict(group2.index)
    swapped[codes[one]], swapped[codes[other]] = other, one
    object.__setattr__(group2, "index", swapped)  # past the frozen slot
    with pytest.raises(InvariantViolated, match="multiplicative"):
        ctx.transport_label(ctx.algebra.labels_in_window(1)[0])


# ---------------------------------------------------------------- hecke elements


def test_transport_hecke_unit(flagship_ctx):
    u = flagship_ctx.algebra.unit(ZZ)
    u2 = flagship_ctx.transport_hecke(u)
    assert u2 == flagship_ctx.algebra2.unit(ZZ)


def test_transport_hecke_carries_coefficients(flagship_ctx):
    A = flagship_ctx.algebra
    lab_n = A.label_of_tau(CartanDatum((1, -1)))
    lab_k = A.classify(A.group.lift(2))
    f = HeckeElement(ZZ, {lab_n: 2, lab_k: 5})
    f2 = flagship_ctx.transport_hecke(f)
    assert sorted(f2.terms.values()) == [2, 5]
    assert f2.coefficient(flagship_ctx.transport_label(lab_n)) == 2
    assert f2.coefficient(flagship_ctx.transport_label(lab_k)) == 5


def test_transport_hecke_collision_guard(identity_ctx, monkeypatch):
    # the label transport is a bijection; two labels landing on one is a defect
    A = identity_ctx.algebra
    labels = A.labels_in_window(1)
    f = HeckeElement(ZZ, {labels[0]: 1, labels[1]: 1})
    monkeypatch.setattr(identity_ctx, "transport_label", lambda label: labels[0])
    with pytest.raises(InvariantViolated, match="collided"):
        identity_ctx.transport_hecke(f)


def test_transport_roundtrip_inverse_pair(flagship_ctx, rng):
    inv = flagship_ctx.inverse()
    for _ in range(25):
        f = random_hecke(flagship_ctx.algebra, rng, 1)
        assert inv.transport_hecke(flagship_ctx.transport_hecke(f)) == f


def test_transport_preserves_tau_and_degree(flagship_ctx):
    A, A2 = flagship_ctx.algebra, flagship_ctx.algebra2
    for lab in A.labels_in_window(1):
        lab2 = flagship_ctx.transport_label(lab)
        assert lab2.tau == lab.tau
        assert A.degree(lab) == A2.degree(lab2)


# ---------------------------------------------------------------- verification


def test_verify_identity_pair_small():
    e2 = FieldModel.equal(2)
    spec = GroupSpec("SL", 2, e2)
    ctx = TransportContext(ClosePair(e2, e2, 5), spec, spec, m=1, N=5, window=1)
    report = verify_algebra_map(ctx)
    assert report.success
    assert report.pairs_checked == report.basis_size**2
    assert report.counterexamples == []
    assert report.min_sufficient_n_observed == 5


def test_verify_guard_undersized_n():
    e2 = FieldModel.equal(2)
    spec = GroupSpec("SL", 2, e2)
    ctx = TransportContext(ClosePair(e2, e2, 3), spec, spec, m=1, N=3, window=1)
    with pytest.raises(InsufficientCloseness):
        verify_algebra_map(ctx)


def test_context_validation():
    pair = ClosePair(F_MIX, F_EQ, 5)
    with pytest.raises(InsufficientCloseness):
        TransportContext(pair, SL2_F, SL2_F2, m=1, N=6, window=1)
    gl = GroupSpec("GL", 2, F_MIX)
    from heckelab.errors import IncompatiblePair

    with pytest.raises(IncompatiblePair):
        TransportContext(pair, gl, SL2_F2, m=1, N=5, window=1)
    # witnesses cross through o/pi^N, charged q^N by exponent before any
    # ring of that precision is built
    t0 = time.process_time()
    with pytest.raises(BudgetExceeded):
        TransportContext(ClosePair(F_EQ, F_EQ, 10**9), SL2_F2, SL2_F2, m=1, window=1)
    assert time.process_time() - t0 < 0.1


# ---------------------------------------------------------------- modules


def test_transport_module_identity_pair(identity_ctx, rng):
    ring = RationalField(localized_at=2)
    mod = random_windowed_module(identity_ctx.algebra, rng, 1, ring)
    out = identity_ctx.transport_module(mod)
    assert out.generators == mod.generators
    assert all(out.matrix(l) == mod.matrix(l) for l in mod.generators)


def test_transport_module_relabels(flagship_ctx, rng):
    ring = RationalField(localized_at=3)
    mod = random_windowed_module(flagship_ctx.algebra, rng, 1, ring)
    out = flagship_ctx.transport_module(mod)
    assert out.generators == tuple(
        flagship_ctx.transport_label(l) for l in mod.generators
    )
    for l, l2 in zip(mod.generators, out.generators):
        assert out.matrix(l2) == mod.matrix(l)


def test_transported_matrices_satisfy_relabeled_relations(flagship_ctx, rng):
    # a relation r(t_g's) = 0 on matrices is a polynomial identity; the
    # transported module carries identical matrices under relabeled
    # generators, so recomputing both sides must give the same value
    from heckelab.kazhdan import _fraction_matmul

    ring = RationalField(localized_at=3)
    mod = random_windowed_module(flagship_ctx.algebra, rng, 1, ring, rank=2)
    out = flagship_ctx.transport_module(mod)
    g1, g2 = mod.generators[0], mod.generators[1]
    lhs = _fraction_matmul(mod.matrix(g1), mod.matrix(g2))
    t1, t2 = out.generators[0], out.generators[1]
    rhs = _fraction_matmul(out.matrix(t1), out.matrix(t2))
    assert lhs == rhs


def test_lattice_stability_basic(identity_ctx):
    ring = RationalField(localized_at=3)
    gens = tuple(
        g.support()[0] for g in identity_ctx.algebra.generators(1, ring)
    )
    ident = [[1, 0], [0, 1]]
    mats = {l: ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))) for l in gens}
    mod = WindowedModule(ring=ring, rank=2, generators=gens, matrices=mats)
    assert check_lattice_stability(mod, ident) is True
    bad = dict(mats)
    bad[gens[0]] = ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1)))
    mod_bad = WindowedModule(ring=ring, rank=2, generators=gens, matrices=bad)
    assert check_lattice_stability(mod_bad, ident) is False


def test_lattice_stability_respects_basis_change(identity_ctx):
    ring = RationalField(localized_at=3)
    gens = tuple(
        g.support()[0] for g in identity_ctx.algebra.generators(1, ring)
    )
    # acts with a 1/3 off the standard lattice, but preserves the lattice
    # spanned by (e1, 3 e2)
    mats = {
        l: ((Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(1))) for l in gens
    }
    mod = WindowedModule(ring=ring, rank=2, generators=gens, matrices=mats)
    assert check_lattice_stability(mod, [[1, 0], [0, 1]]) is False
    assert check_lattice_stability(mod, [[1, 0], [0, 3]]) is True
    with pytest.raises(SingularBasis):
        check_lattice_stability(mod, [[1, 1], [1, 1]])


def test_lattice_stability_needs_rational_ring(identity_ctx, rng):
    mod = random_windowed_module(identity_ctx.algebra, rng, 1, RationalField(3))
    bad = WindowedModule(ring=ZZ, rank=mod.rank, generators=mod.generators,
                         matrices=mod.matrices)
    with pytest.raises(MixedRings):
        check_lattice_stability(bad, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_integrality_transfer_sample(flagship_ctx, rng):
    ring = RationalField(localized_at=3)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for integral in (True, False):
        mod = random_windowed_module(
            flagship_ctx.algebra, rng, 1, ring, rank=3, integral=integral
        )
        before = check_lattice_stability(mod, ident)
        after = check_lattice_stability(flagship_ctx.transport_module(mod), ident)
        assert before == after == integral


# ---------------------------------------------------------------- certificate


def test_verify_rejects_unit_swapped_with_tau_0_label(flagship_ctx, monkeypatch):
    alg = flagship_ctx.algebra
    unit = alg.label_of_tau(zero_tau(2))
    other = next(l for l in alg.orbit_table(zero_tau(2)).labels if l != unit)
    _swapped_transport(flagship_ctx, monkeypatch, unit, other)
    rep = verify_algebra_map(flagship_ctx)
    assert rep.success is False
    assert rep.counterexamples


def test_verify_rejects_swapped_tau_1_labels(flagship_ctx, monkeypatch):
    a, b = flagship_ctx.algebra.orbit_table(CartanDatum((1, -1))).labels[:2]
    _swapped_transport(flagship_ctx, monkeypatch, a, b)
    rep = verify_algebra_map(flagship_ctx)
    assert rep.success is False
    assert rep.counterexamples


def test_warm_csv_reads_labels_by_index(monkeypatch):
    # a label carries its class indices: with the orbit tables, brackets and
    # lam built, the flagship CSV hashes no residue matrix and looks no code
    # up in the code index, the way in for a class from outside, and its
    # bytes are those of benchmark/expected.json
    ctx = TransportContext(ClosePair(F_MIX, F_EQ, 5), SL2_F, SL2_F2, m=1, N=5, window=1)
    assert verify_algebra_map(ctx).success
    counts = {"hash": 0, "code_index": 0}
    matrix_hash = ResidueMatrix.__hash__

    def counted_hash(self):
        counts["hash"] += 1
        return matrix_hash(self)

    class Counting(dict):
        def __getitem__(self, code):
            counts["code_index"] += 1
            return super().__getitem__(code)

        def get(self, code, default=None):
            counts["code_index"] += 1
            return super().get(code, default)

    monkeypatch.setattr(ResidueMatrix, "__hash__", counted_hash)
    for alg in (ctx.algebra, ctx.algebra2):
        object.__setattr__(alg.group, "index", Counting(alg.group.index))  # past the frozen slot
    text = kazhdan.structure_constants_csv(ctx)
    monkeypatch.undo()
    assert counts == {"hash": 0, "code_index": 0}
    expected = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "expected.json"
    digest = json.loads(expected.read_text())["cli-verify"]["csv_sha256"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_csv_shows_a_term_only_side_2_has(monkeypatch):
    # a side-2 bracket with one extra term: every pair that translates it
    # gets a row for that term, with an empty side-1 label and constant 0,
    # as the report's counterexamples show it; unperturbed there is none
    ctx = TransportContext(ClosePair(F_MIX, F_EQ, 5), SL2_F, SL2_F2, m=1, N=5, window=1)
    assert ',"",0,"' not in kazhdan.structure_constants_csv(ctx)
    alg2, zero = ctx.algebra2, zero_tau(2)
    extra = alg2.orbit_table(CartanDatum((1, -1))).labels[0]
    bracket = HeckeAlgebra._bracket

    def perturbed(self, tau1, k0, tau2):
        out = bracket(self, tau1, k0, tau2)
        return {**out, extra: 1} if self is alg2 and tau1 == tau2 == zero else out

    monkeypatch.setattr(HeckeAlgebra, "_bracket", perturbed)
    unit = ctx.algebra.label_of_tau(zero)
    unit2 = ctx.transport_label(unit)
    (only_2,) = alg2.structure_constants(unit2, unit2).keys() - {unit2}
    text = kazhdan.structure_constants_csv(ctx)
    assert f'"{unit}","{unit}","",0,"{only_2}",1\n' in text
    assert verify_algebra_map(ctx).counterexamples


def test_verify_computes_one_product_per_bracket(monkeypatch):
    # t_(l1) * t_(l2) is a translate of t_(n_tau1) * t_k * t_(n_tau2), and
    # that of the least k0 in P2 k P1: one double coset each for the tau
    # pairs (0, 0), (0, 1) and (1, 0), and the two Bruhat cells B+ 1 B- and
    # B+ w B- of SL2(F_2) for (1, 1)
    ctx = TransportContext(ClosePair(F_MIX, F_EQ, 5), SL2_F, SL2_F2, m=1, N=5, window=1)
    calls = {id(ctx.algebra): 0, id(ctx.algebra2): 0}
    product = HeckeAlgebra._product

    def counted(self, tau1, k0, tau2):
        calls[id(self)] += 1
        return product(self, tau1, k0, tau2)

    monkeypatch.setattr(HeckeAlgebra, "_product", counted)
    assert verify_algebra_map(ctx).success
    for alg in (ctx.algebra, ctx.algebra2):
        assert calls[id(alg)] == 5
