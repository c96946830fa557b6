"""Property tests of exact field arithmetic, drawn by hypothesis.

The field axioms that the Hecke algebra rests on, the valuation as a
homomorphism with the ultrametric inequality, the canonical form of
equal-characteristic products and inverses, and lambda_N of the flagship
pair Q_2(2^(1/5)) ~ F_2((t)) as a ring isomorphism of o/pi^5.  The fields
are the mixed Q_2(2^(1/5)) and Q_3 and the equal F_2((t)), F_3((t)) and
F_4((t)); the product by pi^k (``FieldElement.shift``) is checked against
the full product on every Q_p(p^(1/e)) with p = 2, 3 and e = 1..6 as well,
so are the coordinate kernels of o/pi^N (``ResidueRing``) against reduced
exact arithmetic, there and on F_2((t)), F_3((t)) and F_4((t)), and
polynomial division over GF(2), GF(3) and GF(4) against its oracle.
Examples are derandomized, so the suite draws the same ones every run.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.localfield import (
    INF,
    ClosePair,
    FieldElement,
    FieldModel,
    ResidueElement,
    _mixed_normalize,
    gf,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_trim,
)
from oracles import poly_divmod_by_trim, ratfun_product_by_gcd

MODELS = {
    "Q_2(2^(1/5))": FieldModel.mixed(2, 5),
    "Q_3": FieldModel.mixed(3),
    "F_2((t))": FieldModel.equal(2),
    "F_4((t))": FieldModel.equal(2, 2),
}
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def elements(model: FieldModel, nonzero: bool = False):
    """Elements pi^k * u with k in [-3, 3] and u drawn from small data: a
    mixed u has rational coordinates, an equal u is a ratio of polynomials
    of degree < 4 over F_q with a nonzero denominator."""
    if model.kind == "MixedChar":
        coord = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
        unit = st.tuples(*[coord] * model.e).map(lambda data: FieldElement(model, data))
    else:
        poly = st.lists(st.integers(0, model.q - 1), max_size=4).map(tuple)
        nonzero_poly = poly.filter(any)
        unit = st.tuples(poly, nonzero_poly).map(lambda data: FieldElement(model, data))
    drawn = st.builds(lambda u, k: u * model.pi_pow(k), unit, st.integers(-3, 3))
    return drawn.filter(lambda x: not x.is_zero()) if nonzero else drawn


def _by_model(test):
    return pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())(test)


@_by_model
@PROPERTY
@given(data=st.data())
def test_ring_axioms(model, data):
    x, y, z = (data.draw(elements(model)) for _ in range(3))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@_by_model
@PROPERTY
@given(data=st.data())
def test_inverse(model, data):
    x = data.draw(elements(model, nonzero=True))
    assert x * x.inverse() == model.one()
    assert x.inverse().inverse() == x


@_by_model
@PROPERTY
@given(data=st.data())
def test_valuation_is_multiplicative_and_ultrametric(model, data):
    x, y = (data.draw(elements(model, nonzero=True)) for _ in range(2))
    assert (x * y).val() == x.val() + y.val()
    assert (x + y).val() >= min(x.val(), y.val())
    if x.val() != y.val():
        assert (x + y).val() == min(x.val(), y.val())


EQUAL_MODELS = {
    "F_2((t))": FieldModel.equal(2),
    "F_3((t))": FieldModel.equal(3),
    "F_4((t))": FieldModel.equal(2, 2),
}


def _is_canonical(x: FieldElement) -> bool:
    return poly_gcd(x.model.gf, x.num, x.den) == (1,) and x.den[-1] == 1


@pytest.mark.parametrize("model", EQUAL_MODELS.values(), ids=EQUAL_MODELS.keys())
@PROPERTY
@given(data=st.data())
def test_equal_products_and_inverses_are_canonical(model, data):
    # the cross-cancelled product and the gcd-free inverse give the reduced
    # fraction with a monic denominator that one gcd of the full product
    # gives
    x, y = (data.draw(elements(model)) for _ in range(2))
    xy = x * y
    assert _is_canonical(xy)
    assert xy == ratfun_product_by_gcd(model, x.data, y.data)
    if not x.is_zero():
        inv = x.inverse()
        assert _is_canonical(inv)
        assert inv == ratfun_product_by_gcd(model, (x.den, x.num), ((1,), (1,)))


def test_equal_cross_cancellation_cases():
    # t/(1+t) * (1+t)/t: both cross gcds, t and 1+t, are nontrivial
    f2 = FieldModel.equal(2)
    x = FieldElement(f2, ((0, 1), (1, 1)))
    assert (x * x.inverse()).data == ((1,), (1,))
    assert (x * FieldElement(f2, ((1, 1), (0, 1)))) == f2.one()
    # over F_3 the inverse of 2t + 1 has a leading coefficient to scale away:
    # (2t + 1)^-1 = 2 / (t + 2)
    f3 = FieldModel.equal(3)
    inv = FieldElement(f3, ((1, 2), (1,))).inverse()
    assert inv.data == ((2,), (2, 1))
    assert inv * FieldElement(f3, ((1, 2), (1,))) == f3.one()


FIELDS = {"GF(2)": gf(2), "GF(3)": gf(3), "GF(4)": gf(2, 2)}


def polys(k, nonzero_top=False):
    """Coefficient tuples over k of length < 7, trailing zeros allowed
    (untrimmed, and the zero polynomial as () or as zeros), or with a
    nonzero top coefficient for a divisor."""
    coeff = st.integers(0, k.q - 1)
    if nonzero_top:
        return st.tuples(st.lists(coeff, max_size=5), st.integers(1, k.q - 1)).map(
            lambda parts: tuple(parts[0]) + (parts[1],))
    return st.lists(coeff, max_size=6).map(tuple)


@pytest.mark.parametrize("k", FIELDS.values(), ids=FIELDS.keys())
@PROPERTY
@given(data=st.data())
def test_poly_divmod_matches_trimming_division(k, data):
    # a = q b + r with deg r < deg b, and the same q and r as the division
    # that trims its whole remainder on every step
    a, b = data.draw(polys(k)), data.draw(polys(k, nonzero_top=True))
    quot, rem = poly_divmod(k, a, b)
    assert (quot, rem) == poly_divmod_by_trim(k, a, b)
    assert quot == poly_trim(quot) and rem == poly_trim(rem)
    assert len(rem) < len(b)
    assert poly_add(k, poly_mul(k, quot, b), rem) == poly_trim(a)


def test_poly_divmod_edge_cases():
    k = gf(3)
    assert poly_divmod(k, (), (2,)) == ((), ())
    assert poly_divmod(k, (0, 0, 0), (1, 1)) == ((), ())
    assert poly_divmod(k, (1, 0, 0), (1, 1)) == ((), (1,))  # trailing zeros of a
    assert poly_divmod(k, (1, 2), (0, 0, 1)) == ((), (1, 2))  # deg a < deg b
    with pytest.raises(ZeroDivisionError):
        poly_divmod(k, (1,), ())


SHIFT_MODELS = {
    **{f"Q_{p}({p}^(1/{e}))": FieldModel.mixed(p, e) for p in (2, 3) for e in range(1, 7)},
    **EQUAL_MODELS,
}


def shift_operands(model: FieldModel):
    """(x, k) with k in [-3e, 3e] and x any element, zero included: mixed
    coordinates over denominators that p may divide; an equal fraction
    whose denominator t^j d may be divisible by t, and whose numerator may
    be too."""
    if model.kind == "MixedChar":
        coord = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))
        x = st.tuples(*[coord] * model.e).map(lambda data: FieldElement(model, data))
    else:
        coeff = st.integers(0, model.q - 1)
        poly = st.lists(coeff, max_size=4).map(tuple)
        den = st.tuples(st.integers(0, 3), poly.filter(any)).map(
            lambda parts: (0,) * parts[0] + parts[1])
        x = st.tuples(poly, den).map(lambda data: FieldElement(model, data))
    return st.tuples(x, st.integers(-3 * model.e, 3 * model.e))


def shift_agrees(shift, x, k) -> bool:
    """Whether ``shift(x, k)`` has the data of the full product x pi^k."""
    return shift(x, k).data == (x * x.model.pi_pow(k)).data


@pytest.mark.parametrize("model", SHIFT_MODELS.values(), ids=SHIFT_MODELS.keys())
@PROPERTY
@given(data=st.data())
def test_shift_matches_pi_power_product(model, data):
    x, k = data.draw(shift_operands(model))
    assert shift_agrees(FieldElement.shift, x, k)


def rotate_without_p(x, k):
    """A broken double of the mixed shift: the coordinates rotate, but the
    ones that wrap past pi^(e-1) are not multiplied by p."""
    e, p = x.model.e, x.model.p
    a, r = divmod(k, e)
    up, down = p ** max(a, 0), p ** max(-a, 0)
    nums = tuple(up * c for c in x.num[e - r:] + x.num[:e - r])
    return FieldElement(x.model, _mixed_normalize(nums, x.den * down), _canonical=True)


@pytest.mark.parametrize("e", range(2, 7))
@pytest.mark.parametrize("p", (2, 3))
def test_shift_double_without_p_is_rejected(p, e):
    # at e = 1 nothing wraps, so the double is right there; at every e >= 2
    # the check above tells it apart, on x = 1 + pi + .. + pi^(e-1)
    model = FieldModel.mixed(p, e)
    x = FieldElement(model, (1,) * e)
    results = [shift_agrees(rotate_without_p, x, k) for k in range(-3 * e, 3 * e + 1)]
    assert not all(results)
    assert results[3 * e]  # k = 0 rotates nothing


KERNEL_RINGS = {
    **{f"Q_{p}({p}^(1/{e})) N={N}": FieldModel.mixed(p, e).residue_ring(N)
       for p in (2, 3) for e in range(1, 7) for N in sorted({max(1, e - 2), e, e + 3})},
    **{f"{name} N={N}": model.residue_ring(N)
       for name, model in EQUAL_MODELS.items() for N in (1, 3, 6)},
}


def integral(model: FieldModel, low: int = 0):
    """Elements u pi^k of o with k >= low: a mixed u has coordinates over
    denominators prime to p, an equal u is a ratio of polynomials of
    degree < 5 over F_q whose denominator does not vanish at t = 0."""
    if model.kind == "MixedChar":
        den = st.integers(0, 9).map(lambda j: model.p * j + 1)
        coord = st.builds(Fraction, st.integers(-40, 40), den)
        u = st.tuples(*[coord] * model.e).map(lambda data: FieldElement(model, data))
    else:
        coeff = st.integers(0, model.q - 1)
        poly = st.lists(coeff, max_size=5).map(tuple)
        den = st.tuples(st.integers(1, model.q - 1), poly).map(lambda parts: parts[:1] + parts[1])
        u = st.tuples(poly, den).map(lambda data: FieldElement(model, data))
    return st.builds(lambda u, k: u.shift(k), u, st.integers(low, low + 2 * model.e + 2))


def unit_agrees(ring, unit, x, d) -> bool:
    """Whether ``unit`` on the residue of x, v(x) >= d, is x pi^-d mod
    pi^(N - d)."""
    lower = ring.model.residue_ring(ring.N - d)
    return ring.residue(unit(ring.reduce(x).coords, d), lower) == lower.reduce(x.shift(-d)).coords


def divider_agrees(ring, divider, pivot, x, d) -> bool:
    """Whether ``divider`` of the residue of the pivot, v(pivot) = d, takes
    the residue of x, v(x) >= d, to x / pivot mod pi^(N - d)."""
    lower = ring.model.residue_ring(ring.N - d)
    divide = divider(ring.reduce(pivot).coords, d)
    return ring.residue(divide(ring.reduce(x).coords), lower) == lower.reduce(x / pivot).coords


@pytest.mark.parametrize("ring", KERNEL_RINGS.values(), ids=KERNEL_RINGS.keys())
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_ring_kernels_match_exact_arithmetic(ring, data):
    # each coordinate kernel of o/pi^N on residues is the exact operation
    # reduced: sums, products and valuations at precision N, and x pi^-d
    # and x / pivot at precision N - d
    model = ring.model
    x, y = data.draw(integral(model)), data.draw(integral(model))
    rx, ry = ring.reduce(x).coords, ring.reduce(y).coords
    assert ring.add(rx, ry) == ring.reduce(x + y).coords
    assert ring.sub(rx, ry) == ring.reduce(x - y).coords
    assert ring.neg(rx) == ring.reduce(-x).coords
    assert ring.mul(rx, ry) == ring.reduce(x * y).coords
    assert ring.val(rx) == (x.val() if x.val() < ring.N else INF)
    d = data.draw(st.integers(0, ring.N - 1))
    x = data.draw(integral(model, low=d))
    w = data.draw(integral(model))
    pivot = (w if w.val() == 0 else w + 1).shift(d)
    assert pivot.val() == d
    assert unit_agrees(ring, ring.unit, x, d)
    assert divider_agrees(ring, ring.divider, pivot, x, d)


def newton_one_step_short(ring):
    """A broken double of the mixed divider: its Newton loop stops one step
    before the bound on v(u x - 1) reaches N."""
    def divider(pivot, d):
        u, zero = ring.unit(pivot, d), (0,) * ring.model.e
        inv, two = (pow(u[0], -1, ring.moduli[0]),) + zero[1:], (2,) + zero[1:]
        reached = ring.val((0,) + u[1:])
        while 2 * reached < ring.N:
            inv = ring.mul(inv, ring.sub(two, ring.mul(u, inv)))
            reached *= 2
        return lambda x: ring.mul(ring.unit(x, d), inv)

    return divider


def unit_without_p(ring):
    """A broken double of the mixed unit: the coordinates rotate down, but
    the ones that wrap past pi^0 are not divided by p."""
    e, p = ring.model.e, ring.model.p

    def unit(x, d):
        s, r = divmod(d, e)
        return tuple(c // p**s for c in x[r:] + x[:r])

    return unit


@pytest.mark.parametrize("e", range(2, 7))
@pytest.mark.parametrize("p", (2, 3))
def test_ring_kernel_double_newton_one_step_short_is_rejected(p, e):
    # at e = 1 every unit is its coordinate c_0, whose inverse mod p^N
    # needs no step, so the double is right there; at every e >= 2 the
    # check above tells it apart on x = pi^d and pivots pi^d (1 + pi^j),
    # and is right where no step is needed, on pivots pi^d (p - 1)
    model = FieldModel.mixed(p, e)
    ring, divider = model.residue_ring(e + 3), newton_one_step_short(model.residue_ring(e + 3))
    one, pi = model.one(), model.uniformizer()
    results = [divider_agrees(ring, divider, (one + pi**j).shift(d), one.shift(d), d)
               for d in range(ring.N) for j in range(1, ring.N - d)]
    assert not all(results)
    assert all(divider_agrees(ring, divider, model.from_int(p - 1).shift(d), one.shift(d), d)
               for d in range(ring.N))


@pytest.mark.parametrize("e", range(2, 7))
@pytest.mark.parametrize("p", (2, 3))
def test_ring_kernel_double_rotation_without_p_is_rejected(p, e):
    # at e = 1 nothing wraps, so the double is right there; at every e >= 2
    # the check above tells it apart, on x = pi^d (1 + pi + .. + pi^(e-1))
    model = FieldModel.mixed(p, e)
    ring = model.residue_ring(2 * e + 1)
    x = FieldElement(model, (1,) * e)
    results = [unit_agrees(ring, unit_without_p(ring), x.shift(d), d) for d in range(ring.N)]
    assert not all(results)
    assert results[0]  # d = 0 rotates nothing


FLAGSHIP = ClosePair(FieldModel.mixed(2, 5), FieldModel.equal(2), 5)
RING = FLAGSHIP.model_f.residue_ring(5)
RESIDUES = st.tuples(*[st.integers(0, mod - 1) for mod in RING.moduli]).map(
    lambda coords: ResidueElement(RING, coords))


@PROPERTY
@given(a=RESIDUES, b=RESIDUES)
def test_lambda_is_additive_and_multiplicative(a, b):
    lam = FLAGSHIP.apply
    assert lam(a + b) == lam(a) + lam(b)
    assert lam(a * b) == lam(a) * lam(b)
    assert FLAGSHIP.apply_inverse(lam(a)) == a
