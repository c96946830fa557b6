"""Seeded random generators for property sweeps and harnesses.

Everything takes an explicit random.Random instance; no global state.
"""

from __future__ import annotations

import math

from .localfield import MIXED, FieldElement, FieldModel, _mixed_normalize, poly_trim
from .matgrp import (
    CartanDatum,
    GroupElement,
    GroupSpec,
    dominant_window,
    _cofactor_det,
    _k_element,
)


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
    """A random field element, possibly of negative valuation: x pi^k for
    x from ``random_integral`` and k in [-depth, depth], by
    ``FieldElement.shift``, whose data are those of x * pi_pow(k), so each
    seed draws the elements the product drew."""
    x = random_integral(model, rng, depth)
    return x.shift(rng.randrange(-depth, depth + 1))


def random_in_k(spec: GroupSpec, rng, depth: int = 2) -> GroupElement:
    """A random element of K = G(o), with entries mixed across depths."""
    n = spec.n
    model = spec.model
    while True:
        rows = [[random_integral(model, rng, depth) for _ in range(n)] for _ in range(n)]
        d = _cofactor_det(rows, model.zero())
        if d.val() == 0:
            return _k_element(spec, rows, d)


def random_tau(spec: GroupSpec, rng, bound: int) -> CartanDatum:
    return rng.choice(dominant_window(spec.family, spec.n, bound))


def random_windowed(spec: GroupSpec, rng, bound: int, depth: int = 2,
                    tau: CartanDatum | None = None) -> GroupElement:
    """k1 n_tau k2 with k1, k2 random in K and |tau| <= bound."""
    if tau is None:
        tau = random_tau(spec, rng, bound)
    return random_in_k(spec, rng, depth) @ spec.n_of_tau(tau) @ random_in_k(spec, rng, depth)
