"""Seeded random generators for property sweeps and harnesses.

Everything takes an explicit random.Random instance; no global state.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hecke import HeckeAlgebra, HeckeElement
from .kazhdan import WindowedModule
from .localfield import MIXED, FieldElement, FieldModel, _mixed_normalize, poly_trim
from .matgrp import (
    CartanDatum,
    GroupElement,
    GroupSpec,
    dominant_window,
    _cofactor_det,
    _k_element,
)
from .rings import ZZ


def random_integral(model: FieldModel, rng, depth: int = 3) -> FieldElement:
    """A random element of the valuation ring with small coordinates.

    Mixed model: coordinate i is nums[i] / dens[i], with dens[i] prime to
    p; the numerators are brought over the lcm of the denominators in
    integers, so no Fraction is formed."""
    p = model.p
    if model.kind == MIXED:
        nums, dens = [], []
        for _ in range(model.e):
            nums.append(rng.randrange(-(p**depth), p**depth + 1))
            den = 1
            if rng.random() < 0.25:
                den = rng.choice([d for d in range(2, 2 * p + 2) if d % p != 0])
            dens.append(den)
        den = math.lcm(*dens)
        data = _mixed_normalize(tuple(n * (den // d) for n, d in zip(nums, dens)), den)
        return FieldElement(model, data, _canonical=True)
    deg = rng.randrange(depth + 1)
    num = poly_trim(tuple(rng.randrange(model.q) for _ in range(deg + 1)))
    den = (1,)
    if rng.random() < 0.25:
        den = poly_trim((rng.randrange(1, model.q),) + tuple(
            rng.randrange(model.q) for _ in range(rng.randrange(2))
        ))
    return FieldElement(model, (num, den))


def random_element(model: FieldModel, rng, depth: int = 3) -> FieldElement:
    """A random field element, possibly of negative valuation."""
    x = random_integral(model, rng, depth)
    shift = rng.randrange(-depth, depth + 1)
    return x * model.pi_pow(shift)


def random_in_k(spec: GroupSpec, rng, depth: int = 2) -> GroupElement:
    """A random element of K = G(o), with entries mixed across depths."""
    n = spec.n
    model = spec.model
    while True:
        rows = [[random_integral(model, rng, depth) for _ in range(n)] for _ in range(n)]
        d = _cofactor_det(rows, model.zero())
        if d.val() == 0:
            return _k_element(spec, rows, d)


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


def random_tau(spec: GroupSpec, rng, bound: int) -> CartanDatum:
    return rng.choice(dominant_window(spec.family, spec.n, bound))


def random_windowed(spec: GroupSpec, rng, bound: int, depth: int = 2,
                    tau: CartanDatum | None = None) -> GroupElement:
    """k1 n_tau k2 with k1, k2 random in K and |tau| <= bound."""
    if tau is None:
        tau = random_tau(spec, rng, bound)
    return random_in_k(spec, rng, depth) @ spec.n_of_tau(tau) @ random_in_k(spec, rng, depth)


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
