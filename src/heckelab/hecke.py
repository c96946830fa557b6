"""The level-K_m Hecke algebra of a split matrix group.

Double cosets K_m g K_m are classified by a label (tau, [x], [y]) meaning
g lies in K_m x n_tau y^-1 K_m, with the residue pair ([x], [y]) canonical
(minimal) in its orbit under the stabilizer Gamma_tau of K_m n_tau K_m
inside (K/K_m)^2.  A label holds [x] and [y] as indices into the
algebra's classes of K/K_m, which are in ``sort_key`` order, so the
least pair is the least index pair; residue matrices are formed only to
print or serialize a label.  Convolution uses the normalization mu(K_m)
= 1, under which all structure constants are non-negative integers

    t_g * t_h = sum_x c_x t_x,   c_x = #{i : alpha_i^-1 x in K_m h K_m},

where alpha_i runs over the left cosets K_m g K_m = |_| alpha_i K_m.
Coefficients over any supported ring are obtained by base change from Z.
"""

from __future__ import annotations

import itertools
import math
import warnings

from .errors import InvalidConfig, InvariantViolated, MixedRings
from .matgrp import (
    DEFAULT_BUDGET,
    CartanDatum,
    GroupElement,
    GroupSpec,
    cartan,
    cartan_type,
    dominant_window,
    kernel_count,  # not called here; the benchmark tracer patches hecke.kernel_count
    lift_group,
    zero_tau,
    _check_budget,
    _check_budget_power,
    _congruence_classes,
    _eliminate,
    _replay,
    _subgroup_generators,
)
from .record import FrozenRecord, _set
from .rings import ZZ


class DoubleCosetLabel:
    """Canonical identifier of a double coset K_m g K_m.

    ``x`` and ``y`` index ``classes``, the classes of K/K_m of the algebra
    that made the label (``HeckeAlgebra.residue_classes``); the labelled
    coset is that of x~ n_tau y~^-1 for the canonical lifts x~, y~ of
    classes[x], classes[y].  ``pair`` forms the two residue matrices, as
    the string and ``serialize`` do.  Labels sort by (tau, x, y), the
    order of their matrices' ``sort_key``: the classes are in that order.
    Labels sharing a class list compare by index, others by matrix, so
    equal labels of two algebras over one ring are equal, hash alike and
    print alike.  The hash and the string are computed once, on first use,
    so a CSV formats each label once.
    """

    __slots__ = ("tau", "x", "y", "classes", "_hash", "_str")

    def __init__(self, tau: CartanDatum, x: int, y: int, classes):
        self.tau = tau
        self.x = x
        self.y = y
        self.classes = classes
        self._hash = self._str = None

    @property
    def pair(self):
        return (self.classes[self.x], self.classes[self.y])

    def sort_key(self):
        return (self.tau.coords, self.x, self.y)

    def __eq__(self, other):
        if not isinstance(other, DoubleCosetLabel) or other.tau != self.tau:
            return False
        if other.classes is self.classes:
            return other.x == self.x and other.y == self.y
        return other.pair == self.pair

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tau.coords, self.pair))
        return self._hash

    def __str__(self):
        if self._str is None:
            x, y = self.pair
            if self.tau.is_zero() and self.x == self.y:
                self._str = f"[tau={self.tau}, k={x}]"
            else:
                self._str = f"[tau={self.tau}, x={x}, y={y}]"
        return self._str

    __repr__ = __str__

    def serialize(self):
        x, y = self.pair
        return {"tau": list(self.tau.coords), "pair": [x.serialize(), y.serialize()]}


class OrbitTable(FrozenRecord, fields=("tau", "labels", "gamma_index")):
    """The orbit/stabilizer data of K_m n_tau K_m under (K/K_m)^2.

    ``gamma_index`` holds the stabilizing pairs as index pairs into ``classes``
    (``gamma`` forms them as residue-matrix pairs), ``labels`` one canonical
    label per orbit; the counting identity |X_tau| |Gamma_tau| = |K/K_m|^2 holds.
    """

    __slots__ = ("tau", "labels", "gamma_index", "classes")

    def __init__(self, tau: CartanDatum, labels: tuple, gamma_index: tuple, classes: list):
        _set(self, "tau", tau)
        _set(self, "labels", labels)
        _set(self, "gamma_index", gamma_index)
        _set(self, "classes", classes)

    @property
    def gamma(self) -> tuple:
        return tuple((self.classes[s], self.classes[t]) for s, t in self.gamma_index)

    @property
    def orbit_count(self) -> int:
        return len(self.labels)

    @property
    def gamma_size(self) -> int:
        return len(self.gamma_index)


class HeckeElement:
    """A finitely supported map DoubleCosetLabel -> R, no explicit zeros."""

    __slots__ = ("ring", "terms", "flagged")

    def __init__(self, ring, terms, flagged=()):
        self.ring = ring
        self.terms = {l: c for l, c in terms.items() if not ring.is_zero(c)}
        self.flagged = tuple(flagged)

    def support(self):
        return sorted(self.terms, key=lambda l: l.sort_key())

    def coefficient(self, label):
        return self.terms.get(label, self.ring.zero)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if other.ring != self.ring:
            raise MixedRings(f"{self.ring} vs {other.ring}")
        out = dict(self.terms)
        for l, c in other.terms.items():
            out[l] = self.ring.add(out.get(l, self.ring.zero), c)
        return HeckeElement(self.ring, out)

    def __neg__(self):
        return HeckeElement(self.ring, {l: self.ring.neg(c) for l, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "HeckeElement":
        return HeckeElement(self.ring, {l: self.ring.mul(c, v) for l, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.ring.coeff_str(c)}*t{l}" for l, c in sorted(
                self.terms.items(), key=lambda lc: lc[0].sort_key()
            )
        )

    __repr__ = __str__

    def serialize(self):
        return {
            "ring": self.ring.name,
            "terms": [
                dict(label.serialize(), coeff=self.ring.coeff_str(c))
                for label, c in sorted(self.terms.items(), key=lambda lc: lc[0].sort_key())
            ],
        }


def base_change(f: HeckeElement, target) -> HeckeElement:
    """Map an integral Hecke element into another coefficient ring."""
    if f.ring != ZZ:
        raise MixedRings("base change starts from Z coefficients")
    return HeckeElement(target, {l: target.from_int(c) for l, c in f.terms.items()}, f.flagged)


class HeckeAlgebra:
    """All level-m Hecke operations for one group spec, with caching.

    The heavy objects (residue classes, orbit tables, left-coset systems of
    the n_tau, structure constants of label pairs and the bracket products
    they are translated from) are computed once and reused; every public
    operation is otherwise pure.
    """

    def __init__(self, spec: GroupSpec, m: int, budget: int = DEFAULT_BUDGET):
        if m < 0:
            raise InvalidConfig(f"level m must be >= 0, got {m}")
        # q^(m n^2) bounds |K/K_m|, each |Gamma_tau| and (n >= 2) the ring tables:
        # refuse before any is built (the closure's move table is charged apart)
        _check_budget_power(spec.model.q, m * spec.n**2, budget)
        self.spec = spec
        self.m = m
        self.budget = budget
        self._q = None
        self._code_index = None
        self._q_lift = None
        self._closure = None
        self._steps = None
        self._words = None
        self._e = None
        self._q_inv = None
        self._orbit_tables = {}
        self._canonical = {}
        self._gamma_shapes = {}
        self._double_coset_cache = {}
        self._ntau_cosets_cache = {}
        self._degrees = {}
        self._rep_cache = {}
        self._sc_cache = {}
        self._bracket_cache = {}
        self._warned_rings = set()

    # -- residue classes K/K_m --------------------------------------------------

    @property
    def residue_classes(self):
        """The classes of K/K_m in ``sort_key`` order, as the closure that
        built them (``matgrp.ClassClosure``) lists them: labels and every
        table of the algebra index this list.  ``_code_index`` maps a
        class's code back to it, the one way in for a class from outside
        (``_witness_classes``), and ``_words[i]`` lists the moves whose
        product is q[i]."""
        if self._q is None:
            closure = _congruence_classes(self.spec, 0, self.m, self.budget)
            self._closure, self._words = closure, closure.words
            self._code_index = {code: i for i, code in enumerate(closure.codes)}
            self._e = self._words.index(())
            self._q = closure.matrices
        return self._q

    def _move_table(self):
        """steps[s][i] = q[i] s: the closure's table, its |K/K_m| |S|
        entries charged as when the closure recorded them."""
        if self._steps is None:
            _check_budget(len(self.residue_classes) * len(self._closure.moves), self.budget)
            self._steps = self._closure.table
        return self._steps

    def _indices(self, label: DoubleCosetLabel):
        """The class indices (x, y) of a label, which must index this
        algebra's classes: its own list, or an equal one (another algebra
        of the same group and level), else MixedRings."""
        if label.classes is not self.residue_classes and label.classes != self._q:
            raise MixedRings(f"label {label} indexes the classes of another K/K_m")
        return label.x, label.y

    def class_lift(self, i: int) -> GroupElement:
        if self._q_lift is None:
            self._q_lift = [None] * len(self.residue_classes)
        if self._q_lift[i] is None:
            self._q_lift[i] = lift_group(self.residue_classes[i], self.spec)
        return self._q_lift[i]

    def _mul(self, a: int, b: int) -> int:
        """The index of q[a] q[b]: b's word s_1 .. s_k walked from a along
        the move table, a s_1 .. s_k, k table reads.  Nothing per pair of
        classes is stored."""
        steps = self._steps or self._move_table()
        for s in self._words[b]:
            a = steps[s][a]
        return a

    def _unit_index(self) -> int:
        """Index of the identity class of K/K_m, the one with the empty word."""
        self.residue_classes
        return self._e

    def _inv_index(self):
        """inv[a] is the index of q[a]^-1: for q[a] = s_1 .. s_k, the word
        s_k^-1 .. s_1^-1 walked from the identity (the moves are closed
        under inverses)."""
        if self._q_inv is None:
            e, steps, inverse = self._unit_index(), self._move_table(), self._closure.inverse
            out = []
            for word in self._words:
                x = e
                for s in reversed(word):
                    x = steps[inverse[s]][x]
                out.append(x)
            self._q_inv = out
        return self._q_inv

    # -- left cosets ---------------------------------------------------------------

    def left_cosets(self, g: GroupElement):
        """Representatives alpha_i with K_m g K_m = |_| alpha_i K_m."""
        fac = cartan(g)
        return [fac.a @ alpha @ fac.b for alpha in self._ntau_cosets(fac.tau)]

    def degree(self, label_or_tau) -> int:
        """deg t_g = [K_m : K_m meet g K_m g^-1], the left-coset count, in
        closed form; no coset is built.  It only depends on the tau of g
        (K_m is normal in K), and is cached per tau:

            m >= 1:  q^<2rho,tau>,
            m = 0:   q^(<2rho,tau> - N + N_tau) [n]_q! / prod_i [m_i]_q!,

        with m_i the multiplicities of the entries a_1 >= .. >= a_n of tau,
        N = n(n-1)/2, N_tau = sum_i m_i(m_i - 1)/2 and [k]_q! = prod_(j<=k)
        (q^j - 1)/(q - 1) (Macdonald, Symmetric Functions and Hall
        Polynomials, ch. V (2.7)-(2.9), where it reads q^<2rho,tau>
        v_n(q^-1) / v_tau(q^-1)).

        Proof.  Write n = n_tau, and let U-, T, U+ be the lower
        unitriangular, diagonal and upper unitriangular matrices.  For m >=
        1, K_m = U-_m T_m U+_m (Iwahori factorization: every factor
        integral and = 1 mod pi^m), and for g in the big cell U- T U+ the
        factors are unique.
        1. The index is [K_m : J], J = K_m meet n K_m n^-1 = {k in K_m :
           n^-1 k n in K_m}, and (n^-1 k n)_ij = pi^(a_j - a_i) k_ij.  For
           k = v d u in K_m, n^-1 v n is again in U-_m (a_j - a_i >= 0 for
           i > j), so k is in J iff u is: J = U-_m T_m U+_c with c_ij = m +
           a_i - a_j.  Then J k = J u for k = v d u, and J u = J u' iff u'
           u^-1 is in J meet U+ = U+_c: [K_m : J] = [U+_m : U+_c].
        2. Haar measure on U+ is the product of the additive measures of
           its entries (left translation is unitriangular in them), so
           [U+_m : U+_c] = prod_(i<j) q^(c_ij - m) = q^<2rho,tau>.
        3. At m = 0, J = K meet n K n^-1 = {k in K : k_ij in pi^(a_i - a_j)
           o for a_i > a_j}.  Reduction K -> G(F_q) has kernel K_1, so
           [K : J] = [K : K_1 J] [K_1 J : J] = [G(F_q) : P] [K_1 : K_1 meet
           J], with P the image of J: the block lower triangular matrices
           whose blocks are the runs of equal a_i, every one of which lifts
           into J.  [G(F_q) : P] counts the flags of type (m_i) in F_q^n,
           [n]_q! / prod_i [m_i]_q! (for SL too: SL_n(F_q) acts
           transitively on them, with stabilizer P meet SL_n).  As in 1. and
           2., with K_1 in place of K_m and c_ij = max(a_i - a_j, 1),
           [K_1 : K_1 meet J] = prod_(i<j) q^(c_ij - 1) = q^(<2rho,tau> - N +
           N_tau): each of the N - N_tau pairs with a_i > a_j loses 1.

        The budget is charged what ``_ntau_cosets`` would charge for the
        cosets (``_coset_shapes``), so a product still charges the coset
        systems of both factors before it classifies anything.
        """
        tau = label_or_tau.tau if isinstance(label_or_tau, DoubleCosetLabel) else label_or_tau
        return self._degree(tau)

    def _degree(self, tau: CartanDatum) -> int:
        """The closed form of ``degree``, charged and cached per tau; what
        ``_ntau_cosets`` audits its cosets against."""
        if tau not in self._degrees:
            self._coset_shapes(tau)
            q, n, a = self.spec.model.q, self.spec.n, tau.coords
            two_rho = sum(a[i] - a[j] for i in range(n) for j in range(i + 1, n))
            if self.m >= 1:
                self._degrees[tau] = q**two_rho
            else:
                def q_factorial(k):
                    return math.prod((q**j - 1) // (q - 1) for j in range(1, k + 1))

                mults = [a.count(x) for x in set(a)]
                n_tau = sum(k * (k - 1) // 2 for k in mults)
                num = q ** (two_rho - n * (n - 1) // 2 + n_tau) * q_factorial(n)
                den = math.prod(q_factorial(k) for k in mults)
                deg, rem = divmod(num, den)
                if rem:
                    raise InvariantViolated(f"spherical degree of tau={tau}: {num} / {den}")
                self._degrees[tau] = deg
        return self._degrees[tau]

    def _ntau_cosets(self, tau: CartanDatum):
        """Left-coset system of K_m n_tau K_m: the list of the alpha.

        For m >= 1, by the Iwahori factorization of K_m, alpha = u n_tau
        with u upper unitriangular, u_ij = pi^m x_ij for i < j and x_ij
        running over the canonical lifts of o/pi^(a_i - a_j): q^<2rho,tau>
        cosets.  For m = 0 the cosets are the lattices alpha o^n in Hermite
        normal form: alpha = pi^(a_n) h with h upper triangular, h_ii =
        pi^(c_i), 0 <= c_i <= a_1 - a_n, sum c_i = sum (a_i - a_n), and h_ij
        (i < j) over the lifts of o/pi^(c_i), kept when alpha has Cartan
        type tau.  Either way det alpha = det n_tau exactly, so SL needs no
        determinant fix.  The budget is charged the number of candidates
        before any of them is built (``_coset_shapes``), and the system
        built must have the closed-form size of ``degree``: an enumerated
        count is audited against the formula, else InvariantViolated.
        """
        if tau in self._ntau_cosets_cache:
            return self._ntau_cosets_cache[tau]
        det = self.spec.n_of_tau(tau).det()
        out = []
        for diag, entries in self._coset_shapes(tau):
            for alpha in self._triangular(diag, entries, det):
                if self.m == 0 and cartan_type(alpha) != tau:
                    continue
                out.append(alpha)
        if len(out) != self._degree(tau):
            raise InvariantViolated(
                f"left-coset system of tau={tau} has {len(out)} cosets, "
                f"degree {self._degree(tau)}"
            )
        self._ntau_cosets_cache[tau] = out
        return out

    def _coset_shapes(self, tau: CartanDatum):
        """The (diagonal, entries) shapes of ``_triangular`` whose elements
        are the coset candidates of ``_ntau_cosets``, after charging the
        budget their number: q^<2rho,tau> at m >= 1; at m = 0 first the
        (a_1 - a_n + 1)^n diagonal candidates, by exponent, then the
        Hermite-normal-form candidate count."""
        m, q, n, a = self.m, self.spec.model.q, self.spec.n, tau.coords
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if m >= 1:
            _check_budget_power(q, sum(a[i] - a[j] for i, j in upper), self.budget)
            return [(a, [(i, j, m + a[j], a[i] - a[j]) for i, j in upper])]
        total = sum(x - a[-1] for x in a)
        _check_budget_power(tau.spread + 1, n, self.budget)
        diags = [c for c in itertools.product(range(tau.spread + 1), repeat=n) if sum(c) == total]
        sizes = [sum(c[i] for i, _ in upper) for c in diags]
        for size in sizes:
            _check_budget_power(q, size, self.budget)
        _check_budget(sum(q**size for size in sizes), self.budget)
        return [
            ([a[-1] + ci for ci in c], [(i, j, a[-1], c[i]) for i, j in upper])
            for c in diags
        ]

    def _triangular(self, diag, entries, det):
        """Upper triangular elements with diagonal pi^diag[i] and, for each
        (i, j, s, N) in ``entries``, (i, j) entry pi^s x with x running over
        the canonical lifts of o/pi^N; all other entries are zero."""
        model, n = self.spec.model, self.spec.n
        pools = [
            [model.pi_pow(s) * w.lift() for w in model.residue_ring(N).elements()]
            for _, _, s, N in entries
        ]
        zero = model.zero()
        for combo in itertools.product(*pools):
            rows = [[model.pi_pow(diag[i]) if i == j else zero for j in range(n)]
                    for i in range(n)]
            for (i, j, _, _), x in zip(entries, combo):
                rows[i][j] = x
            yield GroupElement(self.spec, rows, _det=det)

    # -- orbits, stabilizers, classification ----------------------------------------

    def orbit_table(self, tau: CartanDatum) -> OrbitTable:
        if tau not in self._orbit_tables:
            self._build_orbit_table(tau)
        return self._orbit_tables[tau]

    def _build_orbit_table(self, tau: CartanDatum):
        """The orbit table of tau, and its canonical map: the lists x0,
        tcol and slot over K/K_m and the label rows, from which
        ``canonical_label`` reads the label of any pair (q[xi], q[yi]).

        Gamma = Gamma_tau acts on Q^2, Q = K/K_m, by (x, y)(s, t) = (x s,
        y t), and an orbit's label is its least pair of indices (indices
        are ordered as the classes' sort keys).  It is found in two stages
        (Holt-Eick-O'Brien, Handbook of Computational Group Theory, ch. 4),
        with Gamma_1 = {s : (s, t) in Gamma} and K_2 = {t : (1, t) in Gamma}:

        1. Gamma is a subgroup of Q x Q, the stabilizer of K_m n_tau K_m
           (``_gamma``), so Gamma_1 and K_2 are subgroups of Q.
        2. The fibre {t : (s, t) in Gamma} is t_s K_2 for any t_s in it:
           (s, t) and (s, t') in Gamma give (1, t^-1 t') in Gamma.
        3. So the orbit of (x, y) is {(x s, y t_s k) : s in Gamma_1, k in
           K_2}.  Its least first entry is x0 = min(x Gamma_1), met at the
           one s = x^-1 x0, and its least pair is (x0, min(y t_s K_2)).
           For x = x0 s', s = s'^-1 and t_s = t_s'^-1 will do.
        4. Q acts freely on itself, so Gamma acts freely on Q^2: every
           orbit has |Gamma| pairs.  The labels are the pairs (x0, y0) of a
           least element of a coset x Gamma_1 and one of a coset y K_2
           ((x0, y0) is its own least pair: s = 1 and t_1 in K_2), in
           index order exactly as the first pairs met by a sweep of Q^2.

        Two passes over Q (``_coset_minima``) give x0[x] = min(x Gamma_1)
        with s' = via[x], and min(z K_2) for every z, kept as slot[z], its
        position in the row of x0; tcol[x] = t_s'^-1 is the class whose
        word, walked from y, gives y t_s (``_mul``).  That is O(|Q| +
        |labels|) per tau, nothing per pair; the |Q|^2 / |Gamma| labels
        are charged to the budget before they are built.  Either pass
        fails unless the translates of its subgroup partition Q, and the
        counts must give |Gamma_1| |K_2| = |Gamma|, which a Gamma that is
        not a subgroup breaks (orbit-stabilizer).
        """
        q = self.residue_classes
        size = len(q)
        gamma_idx = self._gamma(tau)
        inv, e = self._inv_index(), self._unit_index()
        fibre = {}  # s -> t_s, the least t with (s, t) in Gamma
        for s, t in gamma_idx:
            fibre.setdefault(s, t)
        k2 = [t for s, t in gamma_idx if s == e]
        if len(fibre) * len(k2) != len(gamma_idx):
            raise InvariantViolated(
                f"orbit-stabilizer mismatch at tau={tau}: "
                f"|Gamma_1| |K_2| = {len(fibre)} * {len(k2)} != |Gamma| = {len(gamma_idx)}"
            )
        _check_budget(size * size // len(gamma_idx), self.budget)
        x0, via = self._coset_minima(tau, list(fibre))
        y0 = self._coset_minima(tau, k2)[0]
        ys = [y for y in range(size) if y0[y] == y]
        position = {y: j for j, y in enumerate(ys)}
        slot = [position[y] for y in y0]
        tcol = [inv[fibre[s]] for s in via]  # x = x0 s: (x, y) ~ (x0, y t_s^-1)
        rows = [None] * size
        labels = []
        for x in range(size):
            if x0[x] == x:
                rows[x] = [DoubleCosetLabel(tau, x, y, q) for y in ys]
                labels.extend(rows[x])
        table = OrbitTable(tau, tuple(labels), tuple(gamma_idx), q)
        self._orbit_tables[tau] = table
        self._canonical[tau] = (x0, tcol, slot, rows)

    def _coset_minima(self, tau: CartanDatum, sub):
        """least[z] = min(z H) and via[z] = s with z = least[z] s, for H
        the subgroup of K/K_m listed by ``sub``: one pass in index order,
        in which the first index met of each coset x H is its least.  Raises
        unless the cosets met partition K/K_m, |H| indices each."""
        size = len(self.residue_classes)
        least, via = [None] * size, [None] * size
        for x in range(size):
            if least[x] is not None:
                continue
            coset = [self._mul(x, s) for s in sub]
            if x not in coset or any(least[z] is not None for z in coset):
                raise InvariantViolated(
                    f"orbit-stabilizer mismatch at tau={tau}: the cosets of a "
                    f"projection of Gamma_tau do not partition K/K_{self.m}"
                )
            for s, z in zip(sub, coset):
                least[z], via[z] = x, s
        return least, via

    def _gamma(self, tau: CartanDatum):
        """Gamma_tau as the sorted index pairs of its classes ([x], [y]).

        (x, y) in K x K fixes K_m n_tau K_m iff x n_tau y^-1 lies in it.
        Computed in o/pi^m alone, from three facts; write d = a_i - a_j.

        1. Entrywise relation.  x n_tau y^-1 = k1 n_tau k2 with k1, k2 in
           K_m iff x' = n_tau y' n_tau^-1 for x' = k1^-1 x, y' = k2 y, so
           ([x], [y]) is in Gamma_tau iff some y' in K has n_tau y' n_tau^-1
           in K and [n_tau y' n_tau^-1] = [x], [y'] = [y].  The (i, j) entry
           of n_tau y' n_tau^-1 is pi^d y'_ij; it and y'_ij are integral iff
           y'_ij = pi^max(-d,0) u_ij with u_ij in o, and then the entry is
           pi^max(d,0) u_ij.
        2. u mod pi^m suffices.  The residues of x', y' are those of the
           u_ij times fixed integral powers of pi, so they depend only on
           u mod pi^m; any lift of a residue matrix u gives integral x', y'
           with det x' = det y', and for m >= 1 y' is in GL_n(o) iff det [y']
           is a unit, i.e. iff [y'] is a class of K/K_m for GL.
        3. The SL fix keeps residues.  For SL, [y'] is a class iff det y' =
           1 mod pi^m.  Scaling column 0 of y' (and so of x') by the unit
           s = (det y')^-1 gives det y' = 1 exactly, keeps the entry
           conditions of 1., and changes no residue, as s = 1 mod pi^m.

        So Gamma_tau = {([x(u)], [y(u)]) : u in M_n(o/pi^m), y(u) a class},
        x(u)_ij = pi^sx u_ij, y(u)_ij = pi^sy u_ij, sx = min(max(d, 0), top),
        sy = min(max(-d, 0), top), top = min(a_1 - a_n, m) (pi^m = 0 in
        o/pi^m).  One pass over the classes y finds it: where sy = 0, u_ij =
        y_ij and x_ij = pi^sx y_ij; where sy > 0, sx = 0 and x_ij = u_ij runs
        over the q^sy preimages of y_ij under pi^sy, or none (no u gives y).
        So each u with y(u) a class is met once, at y(u).  x(u) is a class:
        lifting u as in 1. gives x' = n_tau y' n_tau^-1, det x' = det y',
        and x', y' reduce to x(u), y(u).  Pairs are distinct (each u_ij is
        x_ij or y_ij), so |Gamma_tau| <= q^(m n^2), as ``__init__`` charged,
        and each x is looked up once.  At m = 0 (o/pi^0 = 0) Gamma_tau =
        {(1, 1)}.  The list, which callers must not change, depends on tau
        only through its (sx, sy): each such shape is built once.
        """
        n, a = self.spec.n, tau.coords
        top = min(tau.spread, self.m)
        shape = tuple((min(max(a[i] - a[j], 0), top), min(max(a[j] - a[i], 0), top))
                      for i in range(n) for j in range(n))  # (sx, sy) at entry i n + j
        if shape in self._gamma_shapes:
            return self._gamma_shapes[shape]
        ring = self.residue_classes[0].ring
        tables, cidx, codes = self._closure.tables, self._code_index, self._closure.codes
        mul, q = tables.mul, self.spec.model.q
        pi, pi_pows = tables.index[ring.uniformizer().coords], [tables.index[ring.one().coords]]
        for _ in range(top):
            pi_pows.append(mul[pi_pows[-1]][pi])
        preimages = [[[] for _ in tables.elements] for _ in pi_pows]  # [s][v]: u with pi^s u = v
        for s, p in enumerate(pi_pows):
            for u, v in enumerate(mul[p]):
                preimages[s][v].append(u)
        # picks[k][t] maps y_ij to x_ij = pi^sx u at entry k, u its t-th
        # preimage under pi^sy: one pick per entry is one u for each y kept
        picks, ys = [], range(len(codes))
        for k, (sx, sy) in enumerate(shape):
            row, pre = mul[pi_pows[sx]], preimages[sy]
            picks.append([[row[us[t]] if us else None for us in pre] for t in range(q**sy)])
            if sy:  # keep the y whose y_ij lies in the image of pi^sy
                ys = [yi for yi in ys if pre[codes[yi][k]]]
        columns = list(zip(*map(codes.__getitem__, ys)))  # columns[k][r] = codes[ys[r]][k]
        out = []
        for chosen in itertools.product(*picks):
            xs = zip(*[map(pick.__getitem__, col) for pick, col in zip(chosen, columns)])
            out.extend(zip(map(cidx.__getitem__, xs), ys))
        return self._gamma_shapes.setdefault(shape, sorted(out))

    def classify(self, g: GroupElement) -> DoubleCosetLabel:
        """The canonical label of K_m g K_m: for g = a n_tau b as ``cartan``
        factors it, that of the classes ([a], [b]^-1).  K_m g K_m = K_m h
        K_m iff classify(g) == classify(h): each double coset has one label.

        No witness is formed.  ``cartan`` builds a and b by replaying the
        operations of ``matgrp._eliminate`` on exact identity matrices, so
        each of their entries is a polynomial with integer coefficients in
        the multipliers f and units u of the elimination (the SL fix scales
        by sign = +-1), and each f and u is integral.  Reduction o -> o/pi^m
        is a ring homomorphism, so it carries each entry to the same
        polynomial in the residues of the f and u, which is what the replay
        of the same operations on the add and mul tables of o/pi^m
        evaluates (``_witness_classes``).  So the replayed codes are [a]
        and [b], and the label is canonical_label(tau, [a], [b]^-1): the
        identical object (the orbit table's own) that cartan's witnesses
        name, not merely an equal one.  No GroupElement, determinant or
        reduction of a witness entry is formed; each f and u is reduced
        once."""
        tau, ops, _ = _eliminate(g)
        xi, yi = self._witness_classes(ops)
        return self.canonical_label(tau, xi, yi)

    def _witness_classes(self, ops):
        """The class indices ([a], [b]^-1) of the witnesses that ``ops`` of
        ``matgrp._eliminate`` make: their codes replayed in the ring tables
        of o/pi^m and read in ``_code_index``, and [b]^-1 read off
        ``_inv_index``.  A code that is no class, which the integral ops of
        an elimination cannot give, raises InvariantViolated."""
        ring = self.residue_classes[0].ring
        tables = self._closure.tables
        index, add, mul = tables.index, tables.add, tables.mul
        a_t, b = _replay(
            ops, self.spec.n, index[ring.one().coords], 0,
            lambda x, y: add[x][y], lambda x, y: mul[x][y],
            lambda x: index[ring.reduce(x).coords],
        )
        xi = self._code_index.get(tuple(x for col in zip(*a_t) for x in col))
        bi = self._code_index.get(tuple(x for row in b for x in row))
        if xi is None or bi is None:
            raise InvariantViolated(f"a replayed Cartan witness is no class of K/K_{self.m}")
        return xi, self._inv_index()[bi]

    def canonical_label(self, tau: CartanDatum, xi: int, yi: int) -> DoubleCosetLabel:
        """The label of K_m x n_tau y^-1 K_m for the classes x = q[xi], y =
        q[yi] of K/K_m: the canonical pair of the Gamma_tau orbit of (x, y).
        With x0 = min(x Gamma_1) and t_s as in ``_build_orbit_table``, it
        is (x0, min(y t_s K_2)): three list reads and one product
        (``_mul``).  It is the orbit table's own label object, so its hash
        and string are computed once however often it is asked for."""
        if tau not in self._canonical:
            self.orbit_table(tau)
        x0, tcol, slot, rows = self._canonical[tau]
        return rows[x0[xi]][slot[self._mul(yi, tcol[xi])]]

    def representative(self, label: DoubleCosetLabel) -> GroupElement:
        """The canonical element x~ n_tau y~^-1 of a label."""
        if label not in self._rep_cache:
            x, y = self._indices(label)
            n_tau = self.spec.n_of_tau(label.tau)
            self._rep_cache[label] = self.class_lift(x) @ n_tau @ self.class_lift(y).inverse()
        return self._rep_cache[label]

    def label_of_tau(self, tau: CartanDatum) -> DoubleCosetLabel:
        """The label of K_m n_tau K_m, read off the orbit table: n_tau =
        1 n_tau 1^-1, so no Cartan factorization is needed."""
        e = self._unit_index()
        return self.canonical_label(tau, e, e)

    def labels_in_window(self, bound: int):
        """All basis labels with cocharacter norm <= bound, sorted."""
        out = []
        for tau in dominant_window(self.spec.family, self.spec.n, bound, self.budget):
            out.extend(self.orbit_table(tau).labels)
        return sorted(out, key=lambda l: l.sort_key())

    # -- Hecke elements -----------------------------------------------------------

    def _check_ring(self, ring):
        rc = ring.residue_char
        if rc is not None and rc == self.spec.model.p and ring not in self._warned_rings:
            self._warned_rings.add(ring)
            warnings.warn(
                f"coefficient characteristic {rc} equals the residue characteristic; "
                "the pro-order of K_m is not invertible in this ring",
                stacklevel=3,
            )

    def t(self, g: GroupElement, ring=ZZ) -> HeckeElement:
        """The characteristic function of K_m g K_m."""
        self._check_ring(ring)
        return HeckeElement(ring, {self.classify(g): ring.one})

    def t_of_label(self, label: DoubleCosetLabel, ring=ZZ) -> HeckeElement:
        self._check_ring(ring)
        return HeckeElement(ring, {label: ring.one})

    def unit(self, ring=ZZ) -> HeckeElement:
        return self.t_of_label(self.label_of_tau(zero_tau(self.spec.n)), ring)

    def structure_constants(self, l1: DoubleCosetLabel, l2: DoubleCosetLabel):
        """Integer constants c_x with t_(l1) * t_(l2) = sum c_x t_x.

        Computed by K/K_m translation.  For k in K write t_k for the
        characteristic function of K_m k = k K_m (K_m is normal in K).
        With mu(K_m) = 1, (t_k * f)(g) = f(k^-1 g) and (f * t_k)(g) =
        f(g k^-1), so t_k * 1_S * t_k' = 1_(k S k') for every union S of
        K_m double cosets.  A label l = (tau, [x], [y]) is the double coset
        K_m x n_tau y^-1 K_m = x (K_m n_tau K_m) y^-1, hence

            t_l = t_x * t_(n_tau) * t_(y^-1).

        Since t_a * t_b = t_(ab) for a, b in K, writing l_i = (tau_i,
        [x_i], [y_i]) and k = y1^-1 x2 gives

            t_(l1) * t_(l2) = t_(x1) * [t_(n_tau1) * t_k * t_(n_tau2)] * t_(y2^-1).

        The bracket only depends on (tau1, [k], tau2), and fewer brackets
        suffice.  Lemma: if (s, t) is in Gamma_tau1 and (s', t') in
        Gamma_tau2, then for k = t k0 s'

            t_(n_tau1) * t_k * t_(n_tau2) = t_s * [t_(n_tau1) * t_(k0) * t_(n_tau2)] * t_(t').

        Proof.  (s, t) in Gamma_tau means s n_tau t^-1 lies in K_m n_tau
        K_m, so s (K_m n_tau K_m) t^-1 = K_m n_tau K_m and t_s * t_(n_tau)
        * t_(t^-1) = t_(n_tau), that is, t_s * t_(n_tau) = t_(n_tau) * t_t.
        Then t_(n_tau1) * t_t = t_s * t_(n_tau1) and t_(s') * t_(n_tau2) =
        t_(n_tau2) * t_(t'), and t_k = t_t * t_(k0) * t_(s') gives the
        claim.  So the bracket is needed only for one k0 in each double
        coset P2 k P1 of K/K_m, P2 = {t : (s, t) in Gamma_tau1} and P1 =
        {s' : (s', t') in Gamma_tau2} (both are subgroups, as Gamma_tau
        is); ``_double_coset`` gives k0 and the partners s, t'^-1, and
        ``_bracket`` computes the bracket of k0 once, from deg(tau2)
        classifications, and caches it.

        Every term c t_z of the k0 bracket, z = (tau, [x], [y]), becomes c
        t_(x1 s z t' y2^-1), and

            (x1 s) (x n_tau y^-1) (y2 t'^-1)^-1 = (x1 s x) n_tau (y2 t'^-1 y)^-1,

        so the translated label is (tau, [x1 s x], [y2 t'^-1 y]),
        canonicalized in the orbit table of tau.  Translation is a
        bijection on labels, so the constants carry over unchanged:
        relabeling is index arithmetic, products of classes of K/K_m
        walked along the move table (``_mul``), with no field operation.
        """
        key = (l1, l2)
        if key in self._sc_cache:
            return self._sc_cache[key]
        (x1, y1), (x2, y2), mul = self._indices(l1), self._indices(l2), self._mul
        k0, s, t2_inv = self._double_coset(l1.tau, l2.tau)[mul(self._inv_index()[y1], x2)]
        left, right = mul(x1, s), mul(y2, t2_inv)
        out = {}
        for tau, xi, yi, c in self._bracket(l1.tau, k0, l2.tau):
            out[self.canonical_label(tau, mul(left, xi), mul(right, yi))] = c
        out = dict(sorted(out.items(), key=lambda kv: kv[0].sort_key()))
        self._sc_cache[key] = out
        return out

    def _double_coset(self, tau1: CartanDatum, tau2: CartanDatum):
        """table[k] = (k0, s, t'^-1) with k = t k0 s', (s, t) in Gamma_tau1,
        (s', t') in Gamma_tau2 and k0 the least index of P2 k P1 (see
        ``structure_constants``).

        One sweep over K/K_m: the least index not yet reached starts a new
        double coset, which is closed under left steps by generators t_a
        of P2 and right steps by generators s'_a of P1.  A left step t_a k
        = (t_a t) k0 s' has the partner (s_a s, t_a t); a right step k s'_a
        = t k0 (s' s'_a) has (s' s'_a, t' t'_a), so t'^-1 becomes t'_a^-1
        t'^-1.  Each index is reached once, so double cosets partition
        K/K_m, and every index below k0 was reached from a smaller start,
        so k0 is least in its own.
        """
        key = (tau1, tau2)
        if key not in self._double_coset_cache:
            mul, inv = self._mul, self._inv_index()
            self.orbit_table(tau1)
            self.orbit_table(tau2)
            left = self._generating_pairs(self._gamma(tau1), 1)
            right = [(s, inv[t]) for s, t in self._generating_pairs(self._gamma(tau2), 0)]
            e = self._unit_index()
            table = [None] * len(inv)
            for k0 in range(len(inv)):
                if table[k0] is not None:
                    continue
                table[k0] = (k0, e, e)
                reached = [k0]
                for k in reached:
                    _, s, t_inv = table[k]
                    for s_a, t_a in left:
                        c = mul(t_a, k)
                        if table[c] is None:
                            table[c] = (k0, mul(s_a, s), t_inv)
                            reached.append(c)
                    for s_a, t_a_inv in right:
                        c = mul(k, s_a)
                        if table[c] is None:
                            table[c] = (k0, s, mul(t_a_inv, t_inv))
                            reached.append(c)
            self._double_coset_cache[key] = table
        return self._double_coset_cache[key]

    def _generating_pairs(self, pairs, side: int):
        """Pairs of ``pairs`` whose ``side`` components generate the
        projection of the group ``pairs`` to that side: the first pair met
        with each component that ``matgrp._subgroup_generators`` keeps."""
        first = {}
        for pair in pairs:
            first.setdefault(pair[side], pair)
        return [first[g] for g in _subgroup_generators(first, self._mul, self._unit_index())]

    def _bracket(self, tau1: CartanDatum, k0: int, tau2: CartanDatum):
        """t_(n_tau1) * t_(k0) * t_(n_tau2) as (tau, x index, y index, c)
        terms, for k0 the least index of its double coset in
        ``_double_coset(tau1, tau2)``: one coset product per double coset."""
        key = (tau1, k0, tau2)
        if key not in self._bracket_cache:
            self._bracket_cache[key] = [
                (lab.tau, lab.x, lab.y, c) for lab, c in self._product(tau1, k0, tau2).items()
            ]
        return self._bracket_cache[key]

    def _product(self, tau1: CartanDatum, k0: int, tau2: CartanDatum):
        """The constants of t_g * t_h, g = n_tau1 and h = k0~ n_tau2, from
        one sweep of the cosets of tau2.  As t_(k0) * 1_S = 1_(k0 S), t_h
        = t_(k0) * t_(n_tau2), so this is the bracket of ``_bracket``.

        Let K_m g K_m = |_| alpha_i K_m and K_m h K_m = |_| beta_j K_m;
        K_m is normal in K, so beta_j = k0~ u_j for the left cosets u_j of
        n_tau2 (``_ntau_cosets``).

        1. With mu(K_m) = 1, (t_g * t_h)(y) = #{i : alpha_i^-1 y in K_m h K_m}
           = #{(i, j) : alpha_i beta_j K_m = y K_m}, as alpha_i K_m h K_m =
           |_|_j alpha_i beta_j K_m.  Summing over the deg(x) left cosets
           y K_m of K_m x K_m (counting-measure conservation):
           c_x deg(x) = #{(i, j) : alpha_i beta_j in K_m x K_m}.
        2. Write alpha_i = k g k' with k, k' in K_m.  Left multiplication by
           k' permutes the beta_j K_m: k' beta_j = beta_s(j) kappa_j, kappa_j
           in K_m.  So alpha_i beta_j = k (g beta_s(j)) kappa_j, and the
           multiset {[alpha_i beta_j]}_j is {[g beta_j]}_j for every i.

        Hence c_x deg(x) = deg(tau1) #{j : g beta_j in K_m x K_m}, at every
        m including m = 0 (K_0 = K): deg(tau2) classifications.  A tally
        whose product with deg(tau1) the degree does not divide is a defect.
        """
        # the coset systems of tau1 and tau2 are charged before anything is classified
        deg1 = self._degree(tau1)
        g_k0 = self.spec.n_of_tau(tau1) @ self.class_lift(k0)
        tally = {}
        for u in self._ntau_cosets(tau2):
            lab = self.classify(g_k0 @ u)
            tally[lab] = tally.get(lab, 0) + 1
        out = {}
        for lab, cnt in tally.items():
            c, rem = divmod(deg1 * cnt, self.degree(lab))
            if rem:
                raise InvariantViolated(f"{deg1} * tally {cnt} of {lab} in the bracket of "
                                        f"tau={tau1}, class {k0}, tau={tau2} "
                                        f"not divisible by degree {self.degree(lab)}")
            out[lab] = c
        return out

    def convolve(self, f1: HeckeElement, f2: HeckeElement, window=None) -> HeckeElement:
        """Convolution product; integral structure constants mapped into R.

        When ``window`` is given, support labels outside the window are kept
        but reported in ``flagged`` on the result, so harnesses can restrict
        to certified-safe combinations.
        """
        if f1.ring != f2.ring:
            raise MixedRings(f"{f1.ring} vs {f2.ring}")
        ring = f1.ring
        self._check_ring(ring)
        acc = {}
        for l1, c1 in f1.terms.items():
            for l2, c2 in f2.terms.items():
                cc = ring.mul(c1, c2)
                if ring.is_zero(cc):
                    continue
                for lab, n in self.structure_constants(l1, l2).items():
                    add = ring.mul(cc, ring.from_int(n))
                    acc[lab] = ring.add(acc.get(lab, ring.zero), add)
        flagged = ()
        if window is not None:
            flagged = tuple(
                l for l in sorted(acc, key=lambda l: l.sort_key())
                if l.tau.norm > window and not ring.is_zero(acc[l])
            )
        return HeckeElement(ring, acc, flagged)

    # -- generators ------------------------------------------------------------------

    def generator_cocharacters(self, bound: int):
        """The semigroup generators Sigma of the dominant cone, plus 0.

        GL_n: the fundamental coweights (1,..,1,0,..,0) together with
        (-1,..,-1), the inverse of the central one (the dominant monoid of
        GL has units, so exclusion arguments do not apply).  SL_n: the
        monoid is positively graded, so the indecomposable window elements
        form the Hilbert basis; summands of a dominant sum stay inside the
        window of the sum, which makes the bounded search complete.
        """
        n = self.spec.n
        if self.spec.family == "GL":
            gens = [CartanDatum((1,) * i + (0,) * (n - i)) for i in range(1, n + 1)]
            gens.append(CartanDatum((-1,) * n))
            return [zero_tau(n)] + [t for t in gens if t.norm <= bound]
        nonzero = [t for t in dominant_window("SL", n, bound, self.budget) if not t.is_zero()]
        sums = set()
        for t1 in nonzero:
            for t2 in nonzero:
                sums.add(tuple(x + y for x, y in zip(t1.coords, t2.coords)))
        return [zero_tau(n)] + [t for t in nonzero if t.coords not in sums]

    def generators(self, bound: int, ring=ZZ):
        """Generating set {t_(n_tau) : tau in Sigma} union {t_k : k in K/K_m}.

        The label of k = q[i] is read off the orbit table of tau = 0, as k =
        k n_0 1^-1: no Cartan factorization is needed."""
        self._check_ring(ring)
        seen = {}
        for tau in self.generator_cocharacters(bound):
            lab = self.label_of_tau(tau)
            seen[lab] = self.t_of_label(lab, ring)
        zero, e = zero_tau(self.spec.n), self._unit_index()
        for i in range(len(self.residue_classes)):
            lab = self.canonical_label(zero, i, e)
            if lab not in seen:
                seen[lab] = self.t_of_label(lab, ring)
        return [seen[l] for l in sorted(seen, key=lambda l: l.sort_key())]


def structure_constants_csv(algebra: HeckeAlgebra, bound: int) -> str:
    """All windowed structure constants as CSV (g-label, h-label, x-label, c)."""
    lines = ["g,h,x,c"]
    basis = algebra.labels_in_window(bound)
    _check_budget(len(basis) ** 2, algebra.budget)  # one cached constant set per pair
    for l1 in basis:
        for l2 in basis:
            sc = algebra.structure_constants(l1, l2)
            for lab, c in sorted(sc.items(), key=lambda kv: kv[0].sort_key()):
                lines.append(f'"{l1}","{l2}","{lab}",{c}')
    return "\n".join(lines) + "\n"
