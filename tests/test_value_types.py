"""The value-type contract of the library's 16 record classes.

Each class is built positionally, by keyword and with its defaults; its
equality holds only within the class, a frozen class hashes as the tuple of
its compared fields (the order of every set and dict of them, and so the
report bytes, rests on that formula) and refuses assignment, a mutable one
is unhashable, and its repr is pinned as a literal.
"""

import pytest

from heckelab.cli import RunConfig
from heckelab.hecke import OrbitTable
from heckelab.kazhdan import TauReport, VerificationReport, WindowedModule
from heckelab.localfield import ClosePair, FieldModel, RingTables
from heckelab.matgrp import CartanDatum, CartanFactorization, ClassGroup, GroupSpec
from heckelab.rings import QQ, ZZ, IntegerRing, IntegersMod, PrimeField, RationalField

M = FieldModel.mixed(2, 5)
E = FieldModel.equal(2)
M_REPR = "FieldModel(kind='MixedChar', p=2, e=5, f=1)"
E_REPR = "FieldModel(kind='EqualChar', p=2, e=1, f=1)"
TAU = CartanDatum((1, -1))
SPEC = GroupSpec("GL", 2, M)
ONE = SPEC.identity()
SWAP = SPEC.parse_matrix([[0, 1], [1, 0]])


def _case(cls, kwargs, text, compare, frozen=True, defaults=None):
    """One class: its fields in order (positional args are their values),
    the repr of that instance, the names of the compared fields, and
    optionally (kwargs, repr) of a construction that leaves defaults out."""
    return pytest.param(cls, kwargs, text, compare, frozen, defaults, id=cls.__name__)


CASES = [
    _case(RunConfig,
          dict(field=M, field2=E, closeness=5, family="SL", n=2, level=1, window=1, ring=ZZ,
               budget=10**6, seed=7),
          f"RunConfig(field={M_REPR}, field2={E_REPR}, closeness=5, family='SL', n=2, "
          "level=1, window=1, ring=IntegerRing(), budget=1000000, seed=7)",
          ("field", "field2", "closeness", "family", "n", "level", "window", "ring", "budget",
           "seed"), frozen=False),
    _case(OrbitTable,
          dict(tau=TAU, labels=("x", "y"), gamma_index=((0, 0),), group="G", x0=[0], tcol=[0],
               slot=[0, 1], base=[0]),
          "OrbitTable(tau=CartanDatum(coords=(1, -1)), labels=('x', 'y'), "
          "gamma_index=((0, 0),))",
          ("tau", "labels", "gamma_index")),
    _case(WindowedModule, dict(ring=QQ, rank=1, generators=("g",), matrices={"g": [[2]]}),
          "WindowedModule(ring=RationalField(localized_at=None), rank=1, generators=('g',), "
          "matrices={'g': [[2]]})",
          ("ring", "rank", "generators")),
    _case(TauReport,
          dict(tau=(1, -1), orbit_count=4, orbit_count_2=4, gamma_size=8, gamma_size_2=8,
               gamma_mapped=True, degree=2, degree_2=2),
          "TauReport(tau=(1, -1), orbit_count=4, orbit_count_2=4, gamma_size=8, "
          "gamma_size_2=8, gamma_mapped=True, degree=2, degree_2=2)",
          ("tau", "orbit_count", "orbit_count_2", "gamma_size", "gamma_size_2", "gamma_mapped",
           "degree", "degree_2"), frozen=False),
    _case(VerificationReport,
          dict(config={"level": 1}, basis_size=3, pairs_checked=9, pairs_equal=9,
               counterexamples=[], tau_reports=[], labels_injective=True,
               degrees_preserved=True, min_sufficient_n_observed=5),
          "VerificationReport(config={'level': 1}, basis_size=3, pairs_checked=9, "
          "pairs_equal=9, counterexamples=[], tau_reports=[], labels_injective=True, "
          "degrees_preserved=True, min_sufficient_n_observed=5)",
          ("config", "basis_size", "pairs_checked", "pairs_equal", "counterexamples",
           "tau_reports", "labels_injective", "degrees_preserved", "min_sufficient_n_observed"),
          frozen=False),
    _case(FieldModel, dict(kind="EqualChar", p=3, e=1, f=2),
          "FieldModel(kind='EqualChar', p=3, e=1, f=2)", ("kind", "p", "e", "f"),
          defaults=(dict(kind="MixedChar", p=3), "FieldModel(kind='MixedChar', p=3, e=1, f=1)")),
    _case(RingTables,
          dict(elements=("0", "1"), index={(0,): 0, (1,): 1}, add=[[0, 1], [1, 0]],
               mul=[[0, 0], [0, 1]], neg=[0, 1]),
          "RingTables(elements=('0', '1'), index={(0,): 0, (1,): 1}, add=[[0, 1], [1, 0]], "
          "mul=[[0, 0], [0, 1]], neg=[0, 1])",
          ("elements", "index", "add", "mul", "neg")),
    _case(ClosePair, dict(model_f=M, model_f2=E, N=5),
          f"ClosePair(model_f={M_REPR}, model_f2={E_REPR}, N=5)", ("model_f", "model_f2", "N")),
    _case(GroupSpec, dict(family="SL", n=2, model=M),
          f"GroupSpec(family='SL', n=2, model={M_REPR})", ("family", "n", "model")),
    _case(CartanDatum, dict(coords=(1, -1)), "CartanDatum(coords=(1, -1))", ("coords",)),
    _case(CartanFactorization, dict(a=SWAP, tau=TAU, b=ONE),
          "CartanFactorization(a=[0, 1; 1, 0], tau=CartanDatum(coords=(1, -1)), b=[1, 0; 0, 1])",
          ("a", "tau", "b")),
    _case(ClassGroup,
          dict(spec=SPEC, m=1, tables=None, codes=[(1,)], matrices=["I"], moves=[],
               move_inverse=[0], words=[()], table=None, budget=10),
          f"ClassGroup(spec=GroupSpec(family='GL', n=2, model={M_REPR}), m=1, "
          "tables=None, codes=[(1,)], matrices=['I'], moves=[], move_inverse=[0], words=[()], "
          "table=None, budget=10)",
          ("spec", "m", "tables", "codes", "matrices", "moves", "move_inverse", "words",
           "table", "budget")),
    _case(IntegerRing, {}, "IntegerRing()", ()),
    _case(RationalField, dict(localized_at=3), "RationalField(localized_at=3)",
          ("localized_at",), defaults=({}, "RationalField(localized_at=None)")),
    _case(IntegersMod, dict(l=3, k=2), "IntegersMod(l=3, k=2)", ("l", "k"),
          defaults=(dict(l=3), "IntegersMod(l=3, k=1)")),
    _case(PrimeField, dict(l=3), "PrimeField(l=3)", ("l", "k")),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize("cls, kwargs, text, compare, frozen, defaults", CASES)
def test_construction_equality_and_repr(cls, kwargs, text, compare, frozen, defaults):
    x = cls(*kwargs.values())
    assert repr(x) == text
    assert repr(cls(**kwargs)) == text
    assert x == cls(**kwargs) and not x != cls(**kwargs)
    if defaults is not None:
        partial, partial_text = defaults
        assert repr(cls(**partial)) == partial_text
    # equality is within the class only: never with another class, even one
    # whose compared fields are the same values
    other = next(c for c in (IntegerRing(), QQ) if type(c) is not cls)
    assert x != other and other != x and x != object()
    assert x.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls, kwargs, text, compare, frozen, defaults", CASES)
def test_hash_and_mutability(cls, kwargs, text, compare, frozen, defaults):
    x = cls(**kwargs)
    if not frozen:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        name = compare[-1]
        setattr(x, name, "changed")
        assert getattr(x, name) == "changed" and x != cls(**kwargs)
        return
    assert _hash_or_error(x) == _hash_or_error(tuple(getattr(x, name) for name in compare))
    for name in compare[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in compare[:1]:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(**kwargs)


def test_fields_outside_equality():
    # the group and canonical map, matrices and modulus are kept but neither
    # compared nor hashed
    table = OrbitTable(TAU, ("x",), ((0, 0),), "G", [0], [0], [0], [0])
    assert table == OrbitTable(TAU, ("x",), ((0, 0),), "H", [1], [1], [1], [])
    assert hash(table) == hash(OrbitTable(TAU, ("x",), ((0, 0),), None, [], [], [], []))
    module = WindowedModule(QQ, 1, ("g",), {"g": [[1]]})
    assert module == WindowedModule(QQ, 1, ("g",), {"g": [[5]]})
    assert IntegersMod(3, 2).modulus == 9 and "modulus" not in repr(IntegersMod(3, 2))


def test_prime_field_is_integers_mod_at_k_1_under_its_own_class():
    f3 = PrimeField(3)
    assert f3.k == 1 and f3.modulus == 3
    assert f3 != IntegersMod(3) and IntegersMod(3) != f3
    assert hash(f3) == hash(IntegersMod(3)) == hash((3, 1))
    assert len({f3, IntegersMod(3)}) == 2
    with pytest.raises(TypeError):
        PrimeField(3, 1)  # k is no argument
    with pytest.raises(TypeError):
        PrimeField(l=3, k=1)


def test_init_checks_are_kept():
    for build in (lambda: FieldModel("Other", 2), lambda: FieldModel.mixed(4),
                  lambda: FieldModel("MixedChar", 2, f=2), lambda: GroupSpec("SL", 1, M),
                  lambda: GroupSpec("PGL", 2, M), lambda: IntegersMod(3, 0),
                  lambda: IntegersMod(4), lambda: PrimeField(4), lambda: RationalField(4)):
        with pytest.raises(ValueError):
            build()
    assert CartanDatum([2.0, 0, -2]).coords == (2, 0, -2)
    assert str(CartanDatum((2, 0, -2))) == "(2,0,-2)"


def test_value_types_keep_no_instance_dict():
    for param in CASES:
        cls, kwargs = param.values[:2]
        assert not hasattr(cls(**kwargs), "__dict__"), cls.__name__
