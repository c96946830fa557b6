"""Acceptance harness: one test per criterion, exact (tolerance-zero) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its measured runtime.
"""

import random
import time

import pytest

from heckelab.hecke import HeckeAlgebra, base_change
from heckelab.kazhdan import (
    TransportContext,
    check_lattice_stability,
    verify_algebra_map,
)
from heckelab.localfield import ClosePair, FieldModel
from heckelab.matgrp import GroupSpec, cartan, dominant_window
from heckelab.rings import PrimeField, RationalField
from heckelab.sampling import random_in_k, random_windowed
from samples import random_hecke, random_in_km, random_windowed_module

Q2 = FieldModel.mixed(2, 1)
Q3 = FieldModel.mixed(3, 1)
SL2_Q2 = GroupSpec("SL", 2, Q2)
GL2_Q2 = GroupSpec("GL", 2, Q2)
GL2_Q3 = GroupSpec("GL", 2, Q3)

FLAG_F = FieldModel.mixed(2, 5)
FLAG_F2 = FieldModel.equal(2)
FLAG_SPEC = GroupSpec("SL", 2, FLAG_F)
FLAG_SPEC2 = GroupSpec("SL", 2, FLAG_F2)

# algebras shared across criteria, so that their tables are built once
ALGEBRAS = {}


def shared_algebra(spec, m):
    key = (spec, m)
    if key not in ALGEBRAS:
        ALGEBRAS[key] = HeckeAlgebra(spec, m)
    return ALGEBRAS[key]


@pytest.fixture(scope="module", autouse=True)
def computed_products():
    """(algebra, l1, l2) -> the constants returned, for every distinct
    product that an algebra computes while this module runs: criterion 4
    audits them all."""
    computed = {}
    compute = HeckeAlgebra.structure_constants

    def recorded(algebra, l1, l2):
        sc = compute(algebra, l1, l2)
        if (algebra, l1, l2) not in computed:
            computed[(algebra, l1, l2)] = dict(sc)
        return sc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HeckeAlgebra, "structure_constants", recorded)
        yield computed


@pytest.fixture(scope="module")
def flagship_ctx():
    pair = ClosePair(FLAG_F, FLAG_F2, 5)
    return TransportContext(pair, FLAG_SPEC, FLAG_SPEC2, m=1, N=5, window=1)


def report(num, desc, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.1f}s) - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# -------------------------------------------------------------- criterion 1


def test_criterion_1_cartan_roundtrip():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    configs = []
    for family, n in (("SL", 2), ("GL", 2), ("SL", 3)):
        for p in (2, 3):
            for model in (
                FieldModel.mixed(p, 1),
                FieldModel.mixed(p, 2),
                FieldModel.mixed(p, 5),
                FieldModel.equal(p),
            ):
                configs.append(GroupSpec(family, n, model))
    assert len(configs) == 24
    for spec in configs:
        one = spec.model.one()
        for _ in range(1000):
            g = random_windowed(spec, rng, 2, depth=1)
            fac = cartan(g)
            coords = fac.tau.coords
            if fac.product() != g:
                ok = False
            if not (fac.a.in_k() and fac.b.in_k()):
                ok = False
            if any(x < y for x, y in zip(coords, coords[1:])):
                ok = False
            if spec.family == "SL" and (
                sum(coords) != 0 or fac.a.det() != one or fac.b.det() != one
            ):
                ok = False
    report(1, "Cartan round-trip, 1000 windowed elements x 24 configs",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 2


def test_criterion_2_convolution_lemma():
    t0 = time.time()
    ok = True
    # exhaustive at SL_2, p = 2, m = 1, window 1
    A = shared_algebra(SL2_Q2, 1)
    taus = dominant_window("SL", 2, 1)
    for t1 in taus:
        for t2 in taus:
            prod = A.convolve(A.t(SL2_Q2.n_of_tau(t1)), A.t(SL2_Q2.n_of_tau(t2)))
            if prod.terms != {A.label_of_tau(t1 + t2): 1}:
                ok = False
    ks = [A.group.lift(i) for i in range(len(A.residue_classes))]
    for tau in taus:
        n_tau = SL2_Q2.n_of_tau(tau)
        t_n = A.t(n_tau)
        for k1 in ks:
            for k2 in ks:
                lhs = A.t(k1 @ n_tau @ k2)
                rhs = A.convolve(A.convolve(A.t(k1), t_n), A.t(k2))
                if lhs != rhs:
                    ok = False
    # 100 random triples at GL_2, p = 3, m = 1
    B = shared_algebra(GL2_Q3, 1)
    rng = random.Random(102)
    taus3 = dominant_window("GL", 2, 1)
    for _ in range(100):
        k1 = random_in_k(GL2_Q3, rng)
        k2 = random_in_k(GL2_Q3, rng)
        tau = rng.choice(taus3)
        n_tau = GL2_Q3.n_of_tau(tau)
        lhs = B.t(k1 @ n_tau @ k2)
        rhs = B.convolve(B.convolve(B.t(k1), B.t(n_tau)), B.t(k2))
        if lhs != rhs:
            ok = False
    report(2, "both convolution identities (exhaustive SL2/p2, 100 random GL2/p3)",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 3


def test_criterion_3_spherical_oracle():
    t0 = time.time()
    A = shared_algebra(GL2_Q2, 0)
    g = GL2_Q2.parse_matrix([[2, 0], [0, 1]])
    f = A.t(g)
    prod = A.convolve(f, f)
    by_tau = {lab.tau.coords: c for lab, c in prod.terms.items()}
    degs = {lab.tau.coords: A.degree(lab) for lab in prod.terms}
    ok = (
        by_tau == {(2, 0): 1, (1, 1): 3}
        and degs == {(2, 0): 6, (1, 1): 1}
        and A.degree(A.classify(g)) == 3
        and (2 + 1) ** 2 == (4 + 2) + 3  # (q+1)^2 = (q^2+q) + 3 at q = 2
    )
    report(3, "spherical oracle t_(1,0)*t_(1,0) = t_(2,0) + 3 t_(1,1)",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 5


def test_criterion_5_associativity_exhaustive():
    t0 = time.time()
    A = shared_algebra(SL2_Q2, 1)
    basis = A.labels_in_window(1)
    assert len(basis) == 15
    elements = [A.t_of_label(l) for l in basis]
    ok = True
    for fa in elements:
        for fb in elements:
            ab = A.convolve(fa, fb)
            for fc in elements:
                lhs = A.convolve(ab, fc)
                rhs = A.convolve(fa, A.convolve(fb, fc))
                if lhs != rhs:
                    ok = False
    report(5, f"associativity on all {len(basis)}^3 = {len(basis)**3} windowed triples",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 6


def test_criterion_6_kazhdan_flagship(flagship_ctx):
    t0 = time.time()
    rep = verify_algebra_map(flagship_ctx)
    ok = (
        rep.success
        and rep.pairs_checked == rep.basis_size**2
        and rep.labels_injective
        and rep.degrees_preserved
        and all(t.gamma_mapped for t in rep.tau_reports)
        and all(t.orbit_count == t.orbit_count_2 for t in rep.tau_reports)
        and rep.min_sufficient_n_observed == 5
    )
    report(6, f"flagship Q_2(2^(1/5)) ~ F_2((t)): {rep.pairs_equal}/{rep.pairs_checked} "
              f"structure-constant pairs equal, min sufficient N = "
              f"{rep.min_sufficient_n_observed}",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 7


def test_criterion_7_identity_pair_degeneracy():
    t0 = time.time()
    e3 = FieldModel.equal(3)
    spec = GroupSpec("SL", 2, e3)
    ctx = TransportContext(ClosePair(e3, e3, 5), spec, spec, m=1, N=5, window=1)
    rng = random.Random(107)
    ok = True
    for _ in range(200):
        f = random_hecke(ctx.algebra, rng, 1)
        if ctx.transport_hecke(f) != f:
            ok = False
    report(7, "identity pair EqualChar(3): transport fixes 200 random elements",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 8


def test_criterion_8_witness_independence(flagship_ctx):
    t0 = time.time()
    rng = random.Random(108)
    ok = True
    basis = flagship_ctx.algebra.labels_in_window(1)
    for lab in basis:
        target = flagship_ctx.transport_label(lab)
        rep_el = flagship_ctx.algebra.representative(lab)
        for _ in range(100):
            g = random_in_km(FLAG_SPEC, rng, 1, depth=1) @ rep_el \
                @ random_in_km(FLAG_SPEC, rng, 1, depth=1)
            g2 = flagship_ctx.transport_element(g, rng=rng)
            if flagship_ctx.algebra2.classify(g2) != target:
                ok = False
    report(8, f"witness independence: 100 refactorizations x {len(basis)} labels, "
              "one transported label each",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 9


def test_criterion_9_base_change_coherence():
    t0 = time.time()
    A = shared_algebra(SL2_Q2, 1)
    basis = A.labels_in_window(1)
    ok = True
    for ell in (3, 5):
        ring = PrimeField(ell)
        for l1 in basis:
            for l2 in basis:
                over_z = A.convolve(A.t_of_label(l1), A.t_of_label(l2))
                over_l = A.convolve(A.t_of_label(l1, ring), A.t_of_label(l2, ring))
                if base_change(over_z, ring) != over_l:
                    ok = False
    report(9, "structure constants over Z reduce to F_3 and F_5 computations",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 10


def test_criterion_10_integrality_transfer(flagship_ctx):
    t0 = time.time()
    rng = random.Random(110)
    ring = RationalField(localized_at=3)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    ok = True
    for i in range(40):
        integral = i % 2 == 0
        mod = random_windowed_module(
            flagship_ctx.algebra, rng, 1, ring, rank=3, integral=integral
        )
        before = check_lattice_stability(mod, ident)
        after = check_lattice_stability(flagship_ctx.transport_module(mod), ident)
        if not (before == after == integral):
            ok = False
    report(10, "integrality verdicts of 40 random modules invariant under transport",
           ok, time.time() - t0)


# -------------------------------------------------------------- criterion 4
# audited last: covers every structure constant computed by the criteria
# before it, and, so that it audits as much when run alone, every window pair
# of both flagship algebras


def test_criterion_4_degree_conservation_audit(flagship_ctx, computed_products):
    t0 = time.time()
    for algebra in (flagship_ctx.algebra, flagship_ctx.algebra2):
        basis = algebra.labels_in_window(1)
        for l1 in basis:
            for l2 in basis:
                algebra.structure_constants(l1, l2)
    ok = True
    for (algebra, l1, l2), sc in computed_products.items():
        if not all(isinstance(c, int) and c > 0 for c in sc.values()):
            ok = False
        lhs = sum(c * algebra.degree(l) for l, c in sc.items())
        if lhs != algebra.degree(l1) * algebra.degree(l2):
            ok = False
    audited = len(computed_products)
    ok = ok and audited > 400
    report(4, f"degree multiplicativity and integrality of {audited} computed products",
           ok, time.time() - t0)
