"""Seeded random generators that only the tests use; those the library
and the benchmark draw from are in ``heckelab.sampling``."""

from fractions import Fraction

from heckelab.hecke import HeckeAlgebra, HeckeElement
from heckelab.kazhdan import WindowedModule
from heckelab.matgrp import GroupElement, GroupSpec, _cofactor_det, _k_element
from heckelab.rings import ZZ
from heckelab.sampling import random_in_k, random_integral


def random_in_km(spec: GroupSpec, rng, m: int, depth: int = 2) -> GroupElement:
    """A random element of K_m (exact; SL determinant-corrected)."""
    if m == 0:
        return random_in_k(spec, rng, depth)
    n = spec.n
    model = spec.model
    pim = model.pi_pow(m)
    one, zero = model.one(), model.zero()
    rows = [
        [
            (one if i == j else zero) + pim * random_integral(model, rng, depth)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _k_element(spec, rows, _cofactor_det(rows, zero))


def random_hecke(algebra: HeckeAlgebra, rng, bound: int, ring=ZZ,
                 terms: int = 3, coeff_span: int = 9) -> HeckeElement:
    """A random window-supported Hecke element with small coefficients."""
    labels = algebra.labels_in_window(bound)
    chosen = rng.sample(labels, min(terms, len(labels)))
    out = {}
    for label in chosen:
        c = 0
        while c == 0:
            c = rng.randrange(-coeff_span, coeff_span + 1)
        out[label] = ring.from_int(c)
    return HeckeElement(ring, out)


def random_windowed_module(algebra: HeckeAlgebra, rng, bound: int, ring,
                           rank: int = 3, integral: bool = True,
                           denominator: int | None = None) -> WindowedModule:
    """A random module over the windowed generators.

    With integral=False exactly one entry receives the non-integral
    denominator (defaults to the ring's designated prime).
    """
    gens = tuple(g.support()[0] for g in algebra.generators(bound, ring))
    mats = {}
    for label in gens:
        mats[label] = tuple(
            tuple(Fraction(rng.randrange(-9, 10)) for _ in range(rank))
            for _ in range(rank)
        )
    if not integral:
        denom = denominator or getattr(ring, "localized_at", None) or 2
        label = rng.choice(gens)
        i, j = rng.randrange(rank), rng.randrange(rank)
        rows = [list(r) for r in mats[label]]
        rows[i][j] = Fraction(rng.randrange(1, denom * 3) * denom + 1, denom)
        mats[label] = tuple(tuple(r) for r in rows)
    return WindowedModule(ring=ring, rank=rank, generators=gens, matrices=mats)
