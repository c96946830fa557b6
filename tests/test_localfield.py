import itertools
import math
import random
from fractions import Fraction

import pytest

from heckelab import localfield
from heckelab.errors import (
    IncompatiblePair,
    InvariantViolated,
    MixedRings,
    NegativeValuation,
    PrecisionExceeded,
    Singular,
)
from heckelab.localfield import (
    INF,
    ClosePair,
    FieldElement,
    FieldModel,
    GF,
    ResidueElement,
    _mixed_product,
    bareiss_solve,
    gf,
    mixed_dot,
    poly_mul,
    poly_trim,
)
from heckelab.sampling import random_element, random_integral

from conftest import all_models
from oracles import (
    gf_product_by_digits,
    inverse_by_extended_gcd,
    irreducible_by_trial_division,
    random_integral_by_fractions,
)


# ---------------------------------------------------------------- valuations


def test_valuation_of_uniformizer_and_p():
    m = FieldModel.mixed(2, 2)
    assert m.uniformizer().val() == 1
    assert m.from_int(2).val() == 2  # pi^2 = p forces v(p) = e


def test_valuation_equal_char_unit_denominator():
    m = FieldModel.equal(3)
    t = m.uniformizer()
    x = (t * t) / (m.one() + t)
    assert x.val() == 2


def test_valuation_mixed_min_formula():
    # v(3 + pi) over Q_3(pi), pi^2 = 3: min(e*1 + 0, 1) = 1,
    # cross-checked by the factorization 3 + pi = pi * (pi + 1)
    m = FieldModel.mixed(3, 2)
    pi = m.uniformizer()
    x = m.from_int(3) + pi
    assert x.val() == 1
    factored = pi * (pi + m.one())
    assert x == factored
    assert factored.val() == pi.val() + (pi + m.one()).val()


def test_valuation_zero_is_infinite():
    for model in all_models():
        assert model.zero().val() == INF


@pytest.mark.parametrize("model", all_models(), ids=str)
def test_pi_pow_matches_repeated_products(model):
    # the closed form against products of the uniformizer and one inverse
    pi, power = model.uniformizer(), model.one()
    for k in range(13):
        assert model.pi_pow(k).data == power.data
        assert model.pi_pow(-k).data == power.inverse().data
        power = power * pi
    assert model.pi_pow(1000).val() == 1000
    assert model.pi_pow(-1000).val() == -1000


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [1, 2, 5])
def test_rational_inverse_closed_form_matches_extended_gcd(p, e):
    # n/d inverts in closed form; its data is the extended gcd's, canonical
    model = FieldModel.mixed(p, e)
    for x in (1, -1, 2, -2, 3, -6, 12, Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8),
              Fraction(-5, 27), Fraction(p**5, 7)):
        elt = model.from_fraction(x)
        inv = elt.inverse()
        assert inv.data == inverse_by_extended_gcd(elt).data
        assert elt * inv == model.one()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 5, 7])
def test_inverse_matches_extended_gcd(p, e, rng):
    # the integer solve against the Fraction extended gcd, which shares no
    # code with it: random elements, their triple products and rationals
    model = FieldModel.mixed(p, e)
    xs = [x for x in (random_element(model, rng) for _ in range(30)) if not x.is_zero()]
    xs += [xs[i] * xs[i + 1] * xs[i + 2] for i in range(0, 18, 3)]
    xs += [model.from_fraction(Fraction(n, d))
           for n, d in ((1, 1), (-1, 1), (p**3, 7), (-5, p**2))]
    for x in xs:
        inv = x.inverse()
        assert inv.data == inverse_by_extended_gcd(x).data
        assert x * inv == model.one()


def test_bareiss_solve_matches_sympy(rng):
    # M X = D B against sympy's rational inverse, with zero leading pivots
    # that force row swaps, and a singular matrix refused by a typed error
    sympy = pytest.importorskip("sympy")
    for n in (1, 2, 3, 4, 6):
        for _ in range(10):
            M = [[rng.choice([0, 0, rng.randrange(-9, 10)]) for _ in range(n)] for _ in range(n)]
            if sympy.Matrix(M).det() == 0:
                continue
            B = [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(n)]
            X, D = bareiss_solve(M, B)
            assert abs(D) == abs(sympy.Matrix(M).det())
            assert sympy.Matrix(X) / D == sympy.Matrix(M).inv() * sympy.Matrix(B)
    with pytest.raises(Singular):
        bareiss_solve([[0, 1, 2], [0, 3, 4], [0, 5, 6]], [[1], [0], [0]])


@pytest.mark.parametrize("model", [FieldModel.mixed(2, 1), FieldModel.mixed(2, 5),
                                   FieldModel.mixed(3, 2), FieldModel.mixed(5, 3)], ids=str)
def test_random_integral_matches_fraction_construction(model):
    # the same rng calls give the same data as one Fraction per coordinate
    ours, theirs = random.Random(17), random.Random(17)
    for _ in range(500):
        assert random_integral(model, ours).data == random_integral_by_fractions(model, theirs).data
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("model", all_models(), ids=str)
def test_element_layout(model, rng):
    # num and den in their own slots: no instance dict, data formed from
    # them, the hash of (model, data), and one shared one
    x = random_element(model, rng)
    assert not hasattr(x, "__dict__")
    assert x.data == (x.num, x.den)
    assert hash(x) == hash((model, x.data))
    assert model.one() is model.one()


@pytest.mark.parametrize("model", all_models(), ids=str)
def test_valuation_properties_random(model, rng):
    for _ in range(1000):
        x = random_element(model, rng)
        y = random_element(model, rng)
        if not x.is_zero() and not y.is_zero():
            assert (x * y).val() == x.val() + y.val()
        s = x + y
        assert s.val() >= min(x.val(), y.val())
        if x.val() != y.val():
            assert s.val() == min(x.val(), y.val())


@pytest.mark.parametrize("model", all_models(), ids=str)
def test_field_axioms_random(model, rng):
    for _ in range(100):
        x = random_element(model, rng)
        y = random_element(model, rng)
        z = random_element(model, rng)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert x * x.inverse() == model.one()


# ---------------------------------------------------------------- reduce / lift


def test_reduce_trivial_one():
    for model in all_models():
        r = model.one().residue(3)
        assert r == model.residue_ring(3).one()


def test_reduce_p_is_zero_when_fully_ramified():
    m = FieldModel.mixed(2, 2)
    assert m.from_int(2).residue(2).is_zero()


def test_reduce_geometric_series():
    # 1/(1+t) mod t^2 over F_2; oracle: truncation of sum (-t)^k
    m = FieldModel.equal(2)
    t = m.uniformizer()
    x = m.one() / (m.one() + t)
    k = m.gf
    series = poly_trim([1, k.neg(1)])  # 1 - t truncated at t^2
    assert x.residue(2).coords == tuple(series) + (0,) * (2 - len(series))
    assert str(x.residue(2)) == "1 + t@2"


def test_reduce_negative_valuation_rejected():
    m = FieldModel.equal(3)
    bad = m.one() / m.uniformizer()
    with pytest.raises(NegativeValuation):
        bad.residue(2)


def test_lift_examples():
    m = FieldModel.mixed(2, 2)
    r = (m.one() + m.uniformizer()).residue(2)
    assert r.lift() == m.one() + m.uniformizer()
    e = FieldModel.equal(3)
    r2 = (e.from_int(2) * e.uniformizer()).residue(3)
    assert r2.lift() == e.from_int(2) * e.uniformizer()
    for model in all_models():
        assert model.zero().residue(2).lift() == model.zero()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_reduce_lift_identity_exhaustive(p, N):
    for model in (FieldModel.mixed(p, 2), FieldModel.equal(p)):
        ring = model.residue_ring(N)
        for r in ring.elements():
            assert ring.reduce(r.lift()) == r
            assert r.lift().val() >= 0


def test_residue_ring_sizes():
    assert FieldModel.mixed(2, 2).residue_ring(3).size == 8
    assert FieldModel.equal(3).residue_ring(2).size == 9
    assert FieldModel.equal(2, 2).residue_ring(2).size == 16
    assert FieldModel.mixed(2, 5).residue_ring(2).size == 4


def test_residue_ring_is_a_ring(rng):
    for model in (FieldModel.mixed(2, 2), FieldModel.equal(3)):
        ring = model.residue_ring(3)
        els = list(ring.elements())
        for _ in range(300):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("model", all_models(), ids=str)
def test_ring_tables_match_residue_arithmetic(model, N):
    ring = model.residue_ring(N)
    tables = ring.tables(10**6)
    elements = list(ring.elements())
    assert list(tables.elements) == elements
    assert elements[0].is_zero()
    assert [x.coords for x in elements] == sorted(x.coords for x in elements)
    assert all(tables.index[x.coords] == i for i, x in enumerate(elements))
    for i, x in enumerate(elements):
        assert elements[tables.neg[i]] == -x
        for j, y in enumerate(elements):
            assert elements[tables.add[i][j]] == x + y
            assert elements[tables.mul[i][j]] == x * y
    assert ring.tables(10**6) is tables


def test_reduction_is_ring_hom(rng):
    for model in (FieldModel.mixed(3, 2), FieldModel.equal(2)):
        ring = model.residue_ring(3)
        for _ in range(200):
            x = random_integral(model, rng)
            y = random_integral(model, rng)
            assert ring.reduce(x + y) == ring.reduce(x) + ring.reduce(y)
            assert ring.reduce(x * y) == ring.reduce(x) * ring.reduce(y)


def _sympy_mixed_product(sympy, c1, c2, e, p):
    """The coordinates of (sum c1_i x^i)(sum c2_j x^j) mod x^e - p over Q,
    by sympy's polynomial division, as e Fractions."""
    x = sympy.Symbol("x")
    poly = lambda c: sympy.Poly(list(reversed([sympy.Rational(str(v)) for v in c])), x,
                                domain="QQ")
    rem = (poly(c1) * poly(c2)).rem(sympy.Poly(x**e - p, x, domain="QQ"))
    coeffs = [Fraction(str(v)) for v in reversed(rem.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (e - len(coeffs)))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 5, 7])
def test_mixed_product_kernel_matches_sympy(p, e, rng):
    # the one pi-adic product kernel and its three callers against sympy's
    # remainder mod x^e - p, which shares no code with them
    sympy = pytest.importorskip("sympy")
    model = FieldModel.mixed(p, e)
    for _ in range(10):
        n1 = [rng.choice([0, rng.randrange(-p**3, p**3 + 1)]) for _ in range(e)]
        n2 = [rng.choice([0, rng.randrange(-p**3, p**3 + 1)]) for _ in range(e)]
        assert _mixed_product(n1, n2, e, p) == _sympy_mixed_product(sympy, n1, n2, e, p)
    xs = [random_element(model, rng) for _ in range(6)]
    ys = [random_element(model, rng) for _ in range(6)]
    products = [_sympy_mixed_product(sympy, x.coords, y.coords, e, p) for x, y in zip(xs, ys)]
    for x, y, prod in zip(xs, ys, products):
        assert (x * y).coords == prod
    assert mixed_dot(model, xs, ys).coords == tuple(map(sum, zip(*products)))
    for N in (1, e, 2 * e):
        ring = model.residue_ring(N)
        moduli = [p ** max(0, math.ceil((N - i) / e)) for i in range(e)]
        for _ in range(10):
            a = ResidueElement(ring, [rng.randrange(mod) for mod in moduli])
            b = ResidueElement(ring, [rng.randrange(mod) for mod in moduli])
            prod = _sympy_mixed_product(sympy, a.coords, b.coords, e, p)
            assert (a * b).coords == tuple(int(c) % mod for c, mod in zip(prod, moduli))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_equal_residue_product_matches_sympy(p, N):
    # every product in F_p[t]/t^N against sympy's product over F_p, truncated
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    ring = FieldModel.equal(p).residue_ring(N)
    poly = lambda c: sympy.Poly(list(reversed(c)), t, modulus=p)
    for a, b in itertools.product(ring.elements(), repeat=2):
        coeffs = [int(c) % p for c in reversed((poly(a.coords) * poly(b.coords)).all_coeffs())]
        assert (a * b).coords == tuple((coeffs + [0] * N)[:N])


@pytest.mark.parametrize("p, f", [(2, 1), (3, 1), (2, 2)])
def test_truncated_poly_mul_is_the_product_mod_t_n(p, f):
    # poly_mul(a, b, N) against every coefficient of the schoolbook product
    k = gf(p, f)
    rng = random.Random(1801)
    for _ in range(100):
        a, b = (poly_trim(rng.randrange(k.q) for _ in range(rng.randrange(6))) for _ in "ab")
        full = [0] * (len(a) + len(b))
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            full[i + j] = k.add(full[i + j], k.mul(x, y))
        assert poly_mul(k, a, b) == poly_trim(full)
        for N in range(len(full) + 2):
            assert poly_mul(k, a, b, N) == poly_trim(full[:N])


def _mixed_rings_cases():
    q2, f2 = FieldModel.mixed(2, 2), FieldModel.equal(2)
    return {
        "coerce": lambda: q2.one() + f2.one(),
        "reduce": lambda: q2.residue_ring(1).reduce(f2.one()),
        "lift": lambda: q2.residue_ring(2).lift(q2.residue_ring(1).one()),
        "residue-op": lambda: q2.residue_ring(1).one() * q2.residue_ring(2).one(),
        "lambda": lambda: ClosePair(q2, f2, 2).apply(f2.residue_ring(1).one()),
    }


@pytest.mark.parametrize("case", sorted(_mixed_rings_cases()))
def test_mixing_models_raises_mixed_rings(case):
    # the typed error, as GroupElement and ResidueMatrix products raise it
    with pytest.raises(MixedRings):
        _mixed_rings_cases()[case]()


def test_reduce_of_canonical_lift_is_identity():
    # canonical lifts have denominator 1 and reduce to their own class
    ring = FieldModel.equal(2, 4).residue_ring(2)
    elements = list(ring.elements())
    assert len(elements) == 256
    for r in elements:
        assert r.lift().den == (1,)
        assert ring.reduce(r.lift()) == r
    # a denominator that is not 1 still takes the series inverse:
    # (1 + t)^-1 = 1 - t mod t^2
    model = ring.model
    x = FieldElement(model, ((1,), (1, 1)))
    assert ring.reduce(x) == ring.one() - ring.uniformizer()


# ---------------------------------------------------------------- lambda


def test_lambda_maps_uniformizer_to_uniformizer():
    pair = ClosePair(FieldModel.mixed(2, 2), FieldModel.equal(2), 2)
    image = pair.apply(FieldModel.mixed(2, 2).uniformizer().residue(2))
    assert image == FieldModel.equal(2).residue_ring(2).uniformizer()
    assert str(image) == "t@2"


def test_lambda_respects_characteristic():
    m = FieldModel.mixed(2, 2)
    pair = ClosePair(m, FieldModel.equal(2), 2)
    assert pair.apply(m.from_int(2).residue(2)).is_zero()


def test_lambda_identity_pair():
    e3 = FieldModel.equal(3)
    pair = ClosePair(e3, e3, 4)
    x = (e3.one() + e3.from_int(2) * e3.uniformizer()).residue(4)
    assert pair.apply(x) == x


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_lambda_ring_isomorphism_exhaustive(p, N):
    src = FieldModel.mixed(p, 2)
    dst = FieldModel.equal(p)
    pair = ClosePair(src, dst, N)
    ring = src.residue_ring(N)
    els = list(ring.elements())
    images = set()
    for a in els:
        images.add(pair.apply(a).coords)
        for b in els:
            assert pair.apply(a + b) == pair.apply(a) + pair.apply(b)
            assert pair.apply(a * b) == pair.apply(a) * pair.apply(b)
    assert len(images) == dst.residue_ring(N).size
    assert pair.apply(ring.one()) == dst.residue_ring(N).one()


def test_lambda_flagship_pair_sampled(rng):
    src = FieldModel.mixed(2, 5)
    dst = FieldModel.equal(2)
    pair = ClosePair(src, dst, 5)
    ring = src.residue_ring(5)
    for _ in range(1000):
        a = ring.reduce(random_integral(src, rng))
        b = ring.reduce(random_integral(src, rng))
        assert pair.apply(a + b) == pair.apply(a) + pair.apply(b)
        assert pair.apply(a * b) == pair.apply(a) * pair.apply(b)


def test_lambda_inverse_roundtrip(rng):
    pair = ClosePair(FieldModel.mixed(2, 5), FieldModel.equal(2), 5)
    ring = FieldModel.mixed(2, 5).residue_ring(4)
    for _ in range(200):
        a = ring.reduce(random_integral(FieldModel.mixed(2, 5), rng))
        assert pair.apply_inverse(pair.apply(a)) == a
        assert pair.inverse().apply(pair.apply(a)) == a


def test_lambda_lower_precision():
    pair = ClosePair(FieldModel.mixed(2, 5), FieldModel.equal(2), 5)
    x = FieldModel.mixed(2, 5).uniformizer().residue(3)
    assert pair.apply(x) == FieldModel.equal(2).residue_ring(3).uniformizer()


def test_lambda_precision_exceeded():
    pair = ClosePair(FieldModel.mixed(2, 2), FieldModel.equal(2), 2)
    x = FieldModel.mixed(2, 2).one().residue(3)
    with pytest.raises(PrecisionExceeded):
        pair.apply(x)


def test_incompatible_pairs_rejected():
    with pytest.raises(IncompatiblePair):
        ClosePair(FieldModel.mixed(2, 1), FieldModel.equal(2), 2)  # e < N
    with pytest.raises(IncompatiblePair):
        ClosePair(FieldModel.mixed(2, 2), FieldModel.equal(3), 2)  # p differs
    with pytest.raises(IncompatiblePair):
        ClosePair(FieldModel.mixed(2, 3), FieldModel.equal(2, 2), 2)  # f > 1
    # identical models pair at any level, even past the ramification
    ClosePair(FieldModel.mixed(2, 1), FieldModel.mixed(2, 1), 7)


# ---------------------------------------------------------------- serialization


@pytest.mark.parametrize("model", all_models()[:6], ids=str)
def test_element_string_roundtrip(model, rng):
    for _ in range(100):
        x = random_element(model, rng)
        assert model.parse(str(x)) == x


def test_parse_specific_forms():
    m = FieldModel.mixed(2, 2)
    assert m.parse("1 + 1/2*pi") == m.one() + m.from_fraction(Fraction(1, 2)) * m.uniformizer()
    assert m.parse("-3") == m.from_int(-3)
    e = FieldModel.equal(2)
    t = e.uniformizer()
    assert e.parse("(1 + t)/(1 + t + t^2)") == (e.one() + t) / (e.one() + t + t * t)


def test_residue_string_has_precision_suffix():
    m = FieldModel.mixed(3, 2)
    assert str(m.one().residue(2)).endswith("@2")


# ---------------------------------------------------------------- GF(p^f)


def test_gf4_field_axioms():
    k = gf(2, 2)
    els = range(4)
    for a, b in itertools.product(els, els):
        assert k.add(a, b) == k.add(b, a)
        assert k.mul(a, b) == k.mul(b, a)
        for c in els:
            assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
    for a in range(1, 4):
        assert k.mul(a, k.inv(a)) == 1


def test_gf9_inverses():
    k = gf(3, 2)
    for a in range(1, 9):
        assert k.mul(a, k.inv(a)) == 1


@pytest.mark.parametrize(
    "p, f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
             (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)],
)
def test_gf_inverse_matches_brute_force(p, f):
    # every q = p^f <= 27; a fresh GF, so no memo is shared with other tests
    k = GF(p, f)
    for a in range(1, k.q):
        assert k.inv(a) == next(b for b in range(1, k.q) if k.mul(a, b) == 1)


def test_gf_inverse_at_large_q():
    k = GF(2, 16)
    rng = random.Random(216)
    for a in [1, 2, k.q - 1] + [rng.randrange(1, k.q) for _ in range(200)]:
        assert k.mul(a, k.inv(a)) == 1


@pytest.mark.parametrize("p, f", [(2, 2), (2, 3), (3, 2)])
def test_gf_product_matches_digit_oracle(p, f):
    # the log/antilog product on every pair, and every inverse, against the
    # schoolbook product of digit polynomials
    k = GF(p, f)
    for a, b in itertools.product(range(k.q), repeat=2):
        assert k.mul(a, b) == gf_product_by_digits(k, a, b)
    for a in range(1, k.q):
        assert gf_product_by_digits(k, a, k.inv(a)) == 1


def test_gf_product_matches_digit_oracle_at_large_q():
    k = gf(2, 16)
    rng = random.Random(2016)
    for a, b in [(0, 5), (1, k.q - 1), (k.q - 1, k.q - 1)] + [
        (rng.randrange(1, k.q), rng.randrange(1, k.q)) for _ in range(500)
    ]:
        assert k.mul(a, b) == gf_product_by_digits(k, a, b)
        if a:
            assert gf_product_by_digits(k, a, k.inv(a)) == 1


@pytest.mark.parametrize("p, f_max", [(2, 16), (3, 9)])
def test_gf_modulus_matches_trial_division(p, f_max):
    # Rabin's test picks the same modulus as dividing by every monic
    # polynomial up to degree f // 2, so every F_(p^f) encoding is unchanged
    for f in range(2, f_max + 1):
        assert gf(p, f).modulus == irreducible_by_trial_division(p, f), f


def test_gf_without_irreducible_raises_typed_error(monkeypatch):
    monkeypatch.setattr(localfield, "_is_irreducible", lambda poly, p: False)
    with pytest.raises(InvariantViolated, match="no irreducible polynomial"):
        GF(2, 3)


def test_equal_char_f2_arithmetic(rng):
    model = FieldModel.equal(2, 2)
    t = model.uniformizer()
    x = model.one() + t
    assert (x * x.inverse()) == model.one()
    ring = model.residue_ring(2)
    assert ring.size == 16
    els = list(ring.elements())
    units = [e for e in els if e.is_unit()]
    assert len(units) == 12  # unit constant term: 3 choices, times 4 for the t digit
