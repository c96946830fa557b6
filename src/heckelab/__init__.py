"""heckelab: exact Hecke algebras of split groups over close local fields.

A desk-scale computational laboratory: exact arithmetic in dense models of
local fields, Cartan decomposition over the valuation ring, double-coset
enumeration for the congruence levels K_m, convolution with integral
structure constants, and the transport of all of it across an m-close pair
of fields, certified by exact counting.
"""

from .errors import (
    BudgetExceeded,
    HeckelabError,
    IncompatiblePair,
    InsufficientCloseness,
    InvalidConfig,
    InvariantViolated,
    MixedRings,
    NegativeValuation,
    NonUnitDet,
    NotDominant,
    NotInK,
    ParseError,
    PrecisionExceeded,
    Singular,
    SingularBasis,
    SLTraceNonzero,
)
from .hecke import (
    DoubleCosetLabel,
    HeckeAlgebra,
    HeckeElement,
    OrbitTable,
    base_change,
)
from .kazhdan import (
    TransportContext,
    VerificationReport,
    WindowedModule,
    check_lattice_stability,
    safety_bound,
    verify_algebra_map,
)
from .localfield import ClosePair, FieldElement, FieldModel, ResidueElement, ResidueRing
from .matgrp import (
    CartanDatum,
    CartanFactorization,
    GroupElement,
    GroupSpec,
    ResidueMatrix,
    cartan,
    dominant_window,
    enumerate_residue,
    lift_group,
    reduce_group,
)
from .rings import QQ, ZZ, IntegersMod, PrimeField, RationalField

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "HeckelabError", "IncompatiblePair", "InsufficientCloseness",
    "InvalidConfig", "InvariantViolated", "MixedRings", "NegativeValuation",
    "NonUnitDet", "NotDominant", "NotInK", "ParseError", "PrecisionExceeded",
    "Singular", "SingularBasis", "SLTraceNonzero",
    "DoubleCosetLabel", "HeckeAlgebra", "HeckeElement", "OrbitTable", "base_change",
    "TransportContext", "VerificationReport", "WindowedModule",
    "check_lattice_stability", "safety_bound", "verify_algebra_map",
    "ClosePair", "FieldElement", "FieldModel", "ResidueElement", "ResidueRing",
    "CartanDatum", "CartanFactorization", "GroupElement", "GroupSpec",
    "ResidueMatrix", "cartan", "dominant_window", "enumerate_residue", "lift_group",
    "reduce_group",
    "QQ", "ZZ", "IntegersMod", "PrimeField", "RationalField",
]
