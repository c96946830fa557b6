"""Transport of Hecke data between the two sides of a close pair.

Basis labels move by table lookup: the residue isomorphism lambda_m is a
bijection of the classes of K/K_m on the two sides, and the label
t_(x n_tau y^-1) goes to t_(x' n'_tau y'^-1) with [x'] = lambda_m [x],
[y'] = lambda_m [y], canonicalized in the other side's orbit table; this
needs N >= m.  Elements move by re-factorization: g = a n_tau b with
witnesses in K, formed only mod pi^N (by replaying an elimination run mod
a power of pi on residues), cross through lambda_N at the working
precision, and the image
is a' n'_tau b'; this needs N >= m + 2|tau|.
The verification harness certifies exact equality of all windowed
structure constants, the label bijection, and the compatibility of
stabilizers under the residue isomorphism.  Windowed modules transport by
relabeling their acting generators, which yields the desk-scale
integrality transfer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    IncompatiblePair,
    InsufficientCloseness,
    InvalidConfig,
    InvariantViolated,
    MixedRings,
    ParseError,
    Singular,
    SingularBasis,
)
from .hecke import DoubleCosetLabel, HeckeAlgebra, HeckeElement
from .localfield import ClosePair, bareiss_solve
from .matgrp import (
    DEFAULT_BUDGET,
    CartanDatum,
    GroupElement,
    GroupSpec,
    cartan,  # not called here; the benchmark tracer patches kazhdan.cartan
    lift_group,
    residue_witnesses,
    _check_budget,
    _check_budget_power,
)
from .record import FrozenRecord, Record, _set
from .rings import RationalField


def safety_bound(taus, m: int) -> int:
    """A level n_C with g K_(n_C) g^-1 inside K_m for all g in G_C.

    For C a set of cocharacters the certified bound is m + 2 max |tau|:
    conjugation by a n_tau b changes entry valuations by at most
    2 max |tau|, so the inclusion follows from the valuation inequality.
    The bound is sound, not claimed minimal.
    """
    taus = list(taus)
    if not taus:
        return m
    return m + 2 * max(t.norm for t in taus)


class TransportContext:
    """A matched pair of Hecke algebras plus the working precision.

    N is the precision at which witnesses cross lambda.  Labels, Hecke
    elements and modules transport at any N >= m; an element of Cartan
    type tau needs N >= m + 2|tau|, the certified bound of
    safety_bound({tau}, m).
    """

    def __init__(self, pair: ClosePair, spec: GroupSpec, spec2: GroupSpec,
                 m: int, N: int | None = None, window: int = 1,
                 budget: int = DEFAULT_BUDGET):
        if spec.family != spec2.family or spec.n != spec2.n:
            raise IncompatiblePair("transport needs the same group on both sides")
        if spec.model != pair.model_f or spec2.model != pair.model_f2:
            raise IncompatiblePair("group specs do not match the close pair models")
        N = pair.N if N is None else N
        if N > pair.N:
            raise InsufficientCloseness(f"working precision {N} exceeds pair level {pair.N}")
        if m < 1:
            raise InvalidConfig(f"transport level m must be >= 1, got m={m}")
        if N < m:
            raise InsufficientCloseness(f"need N >= m, got N={N}, m={m}")
        # witnesses cross through o/pi^N, a ring of q^N elements
        _check_budget_power(spec.model.q, N, budget)
        self.pair = pair
        self.spec = spec
        self.spec2 = spec2
        self.m = m
        self.N = N
        self.window = window
        self.budget = budget
        self.algebra = HeckeAlgebra(spec, m, budget)
        self.algebra2 = HeckeAlgebra(spec2, m, budget)
        self._lam = None

    def inverse(self) -> "TransportContext":
        return TransportContext(
            self.pair.inverse(), self.spec2, self.spec,
            self.m, self.N, self.window, self.budget,
        )

    def _require_transportable(self, tau: CartanDatum):
        required = safety_bound([tau], self.m)
        if self.N < required:
            raise InsufficientCloseness(
                f"transport of tau={tau} needs N >= {required}, have N={self.N}"
            )

    # -- elements -------------------------------------------------------------------

    def transport_element(self, g: GroupElement, rng=None) -> GroupElement:
        """Transport along witnesses: a n_tau b -> a' n'_tau b', with a' =
        lift'(lambda_N (a mod pi^N)) and b' likewise (``ctx.inverse()`` is
        the way back).

        No exact witness is formed and no exact elimination runs:
        ``matgrp.residue_witnesses`` eliminates pi^-a g mod pi^(N + delta)
        (``matgrp.truncated_elimination``), whose multipliers and units
        are cartan's mod pi^N, and replays the ops on residues of o/pi^N;
        reduction o -> o/pi^N is a ring homomorphism, so the replay gives a
        mod pi^N and b mod pi^N for the witnesses a, b that ``cartan(g,
        rng)`` builds (proof in the ``residue_witnesses`` docstring).
        lambda_N applies entry by entry, and the lift is ``lift_group``:
        the image is the one that the exact witnesses give.

        The double-coset label of the image does not depend on the witness
        choice; that independence is a verified property of the harness,
        not an assumption of this function.  ``rng`` randomizes the SNF
        pivot tie-breaks, deliberately varying the witnesses.
        """
        tau, a, b = residue_witnesses(g, self.N, rng)
        self._require_transportable(tau)
        ring2 = self.pair.model_f2.residue_ring(self.N)
        a2, b2 = (lift_group(w.map_entries(self.pair.apply, ring2), self.spec2) for w in (a, b))
        return a2 @ self.spec2.n_of_tau(tau) @ b2

    # -- labels and Hecke elements -----------------------------------------------------

    def _class_map(self):
        """lam[i] = the class on side 2 of lambda_m of class i of K/K_m,
        lambda_m on o/pi^m applied entry by entry and checked to be an
        isomorphism (``ClassGroup.class_map``)."""
        if self._lam is None:
            self._lam = self.algebra.group.class_map(self.algebra2.group, self.pair.apply,
                                                     "lambda_m")
        return self._lam

    def transport_label(self, label: DoubleCosetLabel) -> DoubleCosetLabel:
        """(tau, [x], [y]) -> (tau, lambda_m [x], lambda_m [y]), canonicalized
        on side 2.

        This is the label of the witness route, classify'(transport_element(
        x~ n_tau y~^-1)), wherever that route is defined (N >= m + 2|tau|):

        1. Witnesses differ by Gamma_tau.  If a n_tau b = c n_tau d with a,
           b, c, d in K, then (s, t) = (c^-1 a, d b^-1) has s n_tau t^-1 =
           n_tau, so (s, t) is in Gamma_tau and ([a], [b]^-1) = ([c] [s],
           [d]^-1 [t]).  With c = x~, d = y~^-1 and cartan's witnesses a, b
           of the representative: ([a], [b]^-1) lies in the orbit ([x],
           [y]) Gamma_tau; on side 2, classify' of a' n'_tau b' names the
           orbit of ([a'], [b']^-1) whatever witnesses its cartan picks.
        2. The image is a' n'_tau b' with a' = lift(lambda_N (a mod pi^N)),
           and lift(lambda_N r) mod pi'^m = lambda_m (r mod pi^m), as
           lambda_N reduces to lambda_m and a lift (with the SL column fix)
           keeps residues.  So ([a'], [b']^-1) = (lam[a], lam[b^-1]).
        3. lam x lam maps Gamma_tau onto Gamma'_tau: ``_gamma`` builds it
           in o/pi^m from ring operations and powers of pi alone, which the
           ring isomorphism lambda_m carries to the same construction on
           side 2 (``verify_algebra_map`` reports this as gamma_mapped).
           With lam multiplicative, the image of the orbit ([x], [y])
           Gamma_tau is the orbit (lam[x], lam[y]) Gamma'_tau.

        By 1-3 both routes name the orbit of (lam[x], lam[y]).  No Cartan
        factorization, classification or field inverse runs here.
        """
        lam = self._class_map()
        x, y = self.algebra.indices(label)
        return self.algebra2.canonical_label(label.tau, lam[x], lam[y])

    def transport_hecke(self, f: HeckeElement) -> HeckeElement:
        """Coefficient-preserving relabeling along the label bijection."""
        terms = {}
        for label, c in f.terms.items():
            target = self.transport_label(label)
            if target in terms:
                raise InvariantViolated(f"label transport collided at {target}")
            terms[target] = c
        return HeckeElement(f.ring, terms, f.flagged)

    # -- windowed modules ---------------------------------------------------------------

    def transport_module(self, module: "WindowedModule") -> "WindowedModule":
        """Relabel the acting generators; the matrices are carried as-is."""
        gens = tuple(self.transport_label(l) for l in module.generators)
        return WindowedModule(
            ring=module.ring,
            rank=module.rank,
            generators=gens,
            matrices=dict(zip(gens, (module.matrices[l] for l in module.generators))),
        )


class WindowedModule(FrozenRecord, compare=("ring", "rank", "generators")):
    """A finite-rank module over the windowed Hecke generators.

    One exact rank x rank matrix over the coefficient ring per generator
    label; for lattice checks the ring must be the rational field with its
    designated integral subring.
    """

    __slots__ = ("ring", "rank", "generators", "matrices")

    def __init__(self, ring, rank: int, generators: tuple, matrices: dict):
        for label in generators:
            mat = matrices[label]
            if len(mat) != rank or any(len(row) != rank for row in mat):
                raise ParseError(f"generator {label} needs a {rank} x {rank} matrix")
        _set(self, "ring", ring)
        _set(self, "rank", rank)
        _set(self, "generators", generators)
        _set(self, "matrices", matrices)

    def matrix(self, label):
        return self.matrices[label]


def check_lattice_stability(module: WindowedModule, lattice_basis) -> bool:
    """Does the designated basis span a stable integral lattice?

    True iff every generator matrix, rewritten in the given basis, has all
    entries in the integral subring of the coefficient ring.  Raises
    SingularBasis for a non-invertible basis.
    """
    ring = module.ring
    if not isinstance(ring, RationalField):
        raise MixedRings("lattice checks need rational coefficients")
    d = module.rank
    basis = [[Fraction(x) for x in row] for row in lattice_basis]
    if len(basis) != d or any(len(row) != d for row in basis):
        raise SingularBasis("basis has the wrong shape")
    # basis^-1 = scale (scale basis)^-1, and scale basis is an integer matrix
    scale = math.lcm(*(x.denominator for row in basis for x in row))
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    try:
        X, D = bareiss_solve([[int(x * scale) for x in row] for row in basis], identity)
    except Singular:
        raise SingularBasis("basis matrix is singular")
    inv = [[Fraction(scale * x, D) for x in row] for row in X]
    for label in module.generators:
        mat = [[Fraction(x) for x in row] for row in module.matrix(label)]
        conj = _fraction_matmul(_fraction_matmul(inv, mat), basis)
        for row in conj:
            for x in row:
                if not ring.is_integral(x):
                    return False
    return True


def _fraction_matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# the verification harness
# ---------------------------------------------------------------------------


class TauReport(Record):
    __slots__ = ("tau", "orbit_count", "orbit_count_2", "gamma_size", "gamma_size_2",
                 "gamma_mapped", "degree", "degree_2")

    def __init__(self, tau: tuple, orbit_count: int, orbit_count_2: int, gamma_size: int,
                 gamma_size_2: int, gamma_mapped: bool, degree: int, degree_2: int):
        self.tau = tau
        self.orbit_count = orbit_count
        self.orbit_count_2 = orbit_count_2
        self.gamma_size = gamma_size
        self.gamma_size_2 = gamma_size_2
        self.gamma_mapped = gamma_mapped
        self.degree = degree
        self.degree_2 = degree_2

    def ok(self) -> bool:
        return (
            self.orbit_count == self.orbit_count_2
            and self.gamma_size == self.gamma_size_2
            and self.gamma_mapped
            and self.degree == self.degree_2
        )


class VerificationReport(Record):
    """Outcome of the windowed structure-constant comparison."""

    __slots__ = ("config", "basis_size", "pairs_checked", "pairs_equal", "counterexamples",
                 "tau_reports", "labels_injective", "degrees_preserved",
                 "min_sufficient_n_observed")

    def __init__(self, config: dict, basis_size: int, pairs_checked: int, pairs_equal: int,
                 counterexamples: list, tau_reports: list, labels_injective: bool,
                 degrees_preserved: bool, min_sufficient_n_observed: int):
        self.config = config
        self.basis_size = basis_size
        self.pairs_checked = pairs_checked
        self.pairs_equal = pairs_equal
        self.counterexamples = counterexamples
        self.tau_reports = tau_reports
        self.labels_injective = labels_injective
        self.degrees_preserved = degrees_preserved
        self.min_sufficient_n_observed = min_sufficient_n_observed

    @property
    def success(self) -> bool:
        return (
            self.pairs_checked == self.pairs_equal
            and not self.counterexamples
            and self.labels_injective
            and self.degrees_preserved
            and all(t.ok() for t in self.tau_reports)
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "basis_size": self.basis_size,
            "pairs_checked": self.pairs_checked,
            "pairs_equal": self.pairs_equal,
            "counterexamples": self.counterexamples,
            "tau_tables": [
                {
                    "tau": list(t.tau),
                    "orbit_count": [t.orbit_count, t.orbit_count_2],
                    "gamma_size": [t.gamma_size, t.gamma_size_2],
                    "gamma_mapped": t.gamma_mapped,
                    "degree": [t.degree, t.degree_2],
                }
                for t in self.tau_reports
            ],
            "labels_injective": self.labels_injective,
            "degrees_preserved": self.degrees_preserved,
            "min_sufficient_N_observed": self.min_sufficient_n_observed,
            "success": self.success,
        }


def verify_algebra_map(ctx: TransportContext) -> VerificationReport:
    """Certify the transport on the window: exact structure constants.

    For every ordered pair of basis labels with |tau| <= B the structure
    constants are computed on both sides and compared through the label
    bijection.  Requires N >= m + 4B so that the product supports remain
    transportable; smaller N raises InsufficientCloseness (the guard, not
    a counterexample to the theorem).
    """
    B = ctx.window
    required = ctx.m + 4 * B
    if ctx.N < required:
        raise InsufficientCloseness(
            f"windowed verification at B={B} needs N >= {required}, have N={ctx.N}"
        )
    A, A2 = ctx.algebra, ctx.algebra2

    basis = A.labels_in_window(B)
    _check_budget(len(basis) ** 2, ctx.budget)  # the pairs compared; none is kept
    transported = {l: ctx.transport_label(l) for l in basis}
    labels_injective = len(set(transported.values())) == len(basis)

    # per-tau structure: orbit counts, stabilizer transport, degrees; the
    # stabilizers compare as class-index pairs through the class map lam
    lam = ctx._class_map()
    tau_reports = []
    taus_touched = {l.tau for l in basis}
    for tau in sorted(taus_touched, key=lambda t: t.sort_key()):
        tab = A.orbit_table(tau)
        tab2 = A2.orbit_table(tau)
        gamma_image = {(lam[s], lam[t]) for s, t in tab.gamma_index}
        tau_reports.append(
            TauReport(
                tau=tau.coords,
                orbit_count=tab.orbit_count,
                orbit_count_2=tab2.orbit_count,
                gamma_size=tab.gamma_size,
                gamma_size_2=tab2.gamma_size,
                gamma_mapped=gamma_image == set(tab2.gamma_index),
                degree=A.degree(tau),
                degree_2=A2.degree(tau),
            )
        )

    degrees_preserved = all(
        A.degree(l) == A2.degree(transported[l]) for l in basis
    )

    pairs_checked = 0
    pairs_equal = 0
    counterexamples = []
    for l1 in basis:
        for l2 in basis:
            sc = A.structure_constants(l1, l2)
            lhs = {}
            for lab, c in sc.items():
                taus_touched.add(lab.tau)
                lhs[ctx.transport_label(lab)] = c
            rhs = A2.structure_constants(transported[l1], transported[l2])
            pairs_checked += 1
            if lhs == rhs:
                pairs_equal += 1
            else:
                counterexamples.append(
                    {
                        "g": l1.serialize(),
                        "h": l2.serialize(),
                        "lhs_transported": _serialize_constants(lhs),
                        "rhs": _serialize_constants(rhs),
                    }
                )

    report = VerificationReport(
        config={
            "pair": str(ctx.pair),
            "group": f"{ctx.spec.family}{ctx.spec.n}",
            "m": ctx.m,
            "N": ctx.N,
            "window": B,
        },
        basis_size=len(basis),
        pairs_checked=pairs_checked,
        pairs_equal=pairs_equal,
        counterexamples=counterexamples,
        tau_reports=tau_reports,
        labels_injective=labels_injective,
        degrees_preserved=degrees_preserved,
        min_sufficient_n_observed=safety_bound(taus_touched, ctx.m),
    )
    return report


def _serialize_constants(constants) -> list:
    return [
        {"x": lab.serialize(), "c": c}
        for lab, c in sorted(constants.items(), key=lambda kv: kv[0].sort_key())
    ]


def structure_constants_csv(ctx: TransportContext) -> str:
    """Matched windowed structure constants as CSV text.  A side-2 term that
    no side-1 term transports to gets a row with an empty x and c = 0."""
    A = ctx.algebra
    lines = ["g,h,x,c,x_transported,c_transported"]
    basis = A.labels_in_window(ctx.window)
    _check_budget(len(basis) ** 2, ctx.budget)
    for l1 in basis:
        for l2 in basis:
            sc = A.structure_constants(l1, l2)
            sc2 = ctx.algebra2.structure_constants(
                ctx.transport_label(l1), ctx.transport_label(l2)
            )
            rows = [(lab, c, ctx.transport_label(lab))
                    for lab, c in sorted(sc.items(), key=lambda kv: kv[0].sort_key())]
            extra = sorted(sc2.keys() - {lab2 for _, _, lab2 in rows}, key=lambda l: l.sort_key())
            for lab, c, lab2 in rows + [("", 0, lab2) for lab2 in extra]:
                lines.append(f'"{l1}","{l2}","{lab}",{c},"{lab2}",{sc2.get(lab2, 0)}')
    return "\n".join(lines) + "\n"
