"""Command-line front end.

Commands: cartan, dcosets, convolve, orbits, transport, verify.  A single
JSON config file fixes the field pair, group, level, window, coefficient
ring, budget and seed; flags override individual entries.  Reports are
deterministic for a fixed config and seed (sorted output, no clocks).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys

from . import kazhdan
from .errors import HeckelabError, InvalidConfig, ParseError
from .hecke import HeckeAlgebra, HeckeElement
from .localfield import EQUAL, MIXED, ClosePair, FieldModel
from .matgrp import (
    DEFAULT_BUDGET,
    CartanDatum,
    GroupSpec,
    cartan,
    dominant_window,
    _check_budget,
    _check_budget_power,
)
from .record import Record
from .rings import ZZ, PrimeField, parse_ring
from .sampling import random_in_k, random_windowed

_KINDS = {
    "mixed": MIXED,
    "mixedchar": MIXED,
    "equal": EQUAL,
    "equalchar": EQUAL,
}


def _config_int(value, name: str) -> int:
    """A config integer: a JSON integer (2.0 counts) or a string of one.
    Null, booleans and fractional numbers are InvalidConfig, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidConfig(f"{name} must be an integer, got {json.dumps(value)}")


class RunConfig(Record):
    """Validated run configuration; invalid inputs fail before any work."""

    __slots__ = ("field", "field2", "closeness", "family", "n", "level", "window", "ring",
                 "budget", "seed")

    def __init__(self, field: FieldModel, field2: FieldModel | None, closeness: int | None,
                 family: str, n: int, level: int, window: int, ring, budget: int, seed: int):
        self.field = field
        self.field2 = field2
        self.closeness = closeness
        self.family = family
        self.n = n
        self.level = level
        self.window = window
        self.ring = ring
        self.budget = budget
        self.seed = seed

    @staticmethod
    def _model(raw: dict, where: str, budget: int) -> FieldModel:
        """The field model of ``raw``.  Its sizes are charged to the budget
        before it is built: the trial division of is_prime(p) (isqrt(p)
        steps), the residue field of q = p^f elements, and e^3 for a mixed
        model, the integer elimination of one e x e multiplication matrix
        behind every inverse (a product alone costs e^2)."""
        if not isinstance(raw, dict):
            raise InvalidConfig(f"{where} must be a JSON object, got {json.dumps(raw)}")
        try:
            kind = _KINDS[str(raw.get("kind", "")).lower()]
        except KeyError:
            raise InvalidConfig(f"{where}.kind must be one of {sorted(set(_KINDS))}")
        p = _config_int(raw.get("p"), f"{where}.p")
        e = _config_int(raw.get("e", 1), f"{where}.e") if kind == MIXED else 1
        f = _config_int(raw.get("f", 1), f"{where}.f") if kind == EQUAL else 1
        _check_budget(math.isqrt(max(p, 0)), budget)
        _check_budget_power(p, f, budget)
        _check_budget_power(e, 3, budget)
        try:
            if kind == MIXED:
                return FieldModel.mixed(p, e)
            return FieldModel.equal(p, f)
        except ValueError as exc:
            raise InvalidConfig(f"bad {where}: {exc}")

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if "field" not in raw:
            raise InvalidConfig("config needs a 'field' entry")
        budget = _config_int(raw.get("budget", DEFAULT_BUDGET), "budget")
        if budget < 1:
            raise InvalidConfig("budget must be positive")
        field = RunConfig._model(raw["field"], "field", budget)
        field2 = RunConfig._model(raw["field2"], "field2", budget) if "field2" in raw else None
        group = raw.get("group", {})
        if not isinstance(group, dict):
            raise InvalidConfig(f"group must be a JSON object, got {json.dumps(group)}")
        family = str(group.get("family", "GL")).upper()
        if family not in ("GL", "SL"):
            raise InvalidConfig("group.family must be GL or SL")
        n = _config_int(group.get("n", 2), "group.n")
        level = _config_int(raw.get("level", 1), "level")
        window = _config_int(raw.get("window", 1), "window")
        seed = _config_int(raw.get("seed", 1), "seed")
        closeness = _config_int(raw["closeness"], "closeness") if "closeness" in raw else None
        if family == "SL" and n < 2:
            raise InvalidConfig("SL needs n >= 2")
        if n < 1:
            raise InvalidConfig("n must be >= 1")
        if level < 0:
            raise InvalidConfig("level must be >= 0")
        if window < 0:
            raise InvalidConfig("window must be >= 0")
        try:
            ring = parse_ring(str(raw.get("ring", "Z")), budget)
        except (ParseError, ValueError) as exc:
            raise InvalidConfig(f"bad ring: {exc}")
        cfg = RunConfig(
            field=field, field2=field2, closeness=closeness,
            family=family, n=n, level=level, window=window,
            ring=ring, budget=budget, seed=seed,
        )
        if field2 is not None:
            cfg.close_pair()  # raises IncompatiblePair with a precise reason
        return cfg

    def spec(self) -> GroupSpec:
        return GroupSpec(self.family, self.n, self.field)

    def spec2(self) -> GroupSpec:
        if self.field2 is None:
            raise InvalidConfig("this command needs a 'field2' entry")
        return GroupSpec(self.family, self.n, self.field2)

    def close_pair(self) -> ClosePair:
        if self.field2 is None:
            raise InvalidConfig("this command needs a 'field2' entry")
        if self.closeness is None:
            raise InvalidConfig("this command needs a 'closeness' level")
        pair = ClosePair(self.field, self.field2, self.closeness)
        # the field suite and the transport build o/pi^N, a ring of q^N elements
        _check_budget_power(self.field.q, self.closeness, self.budget)
        return pair

    def transport_context(self) -> kazhdan.TransportContext:
        return kazhdan.TransportContext(
            self.close_pair(), self.spec(), self.spec2(),
            m=self.level, N=self.closeness, window=self.window, budget=self.budget,
        )

    def describe(self) -> dict:
        out = {
            "field": str(self.field),
            "group": f"{self.family}{self.n}",
            "level": self.level,
            "window": self.window,
            "ring": self.ring.name,
            "budget": self.budget,
            "seed": self.seed,
        }
        if self.field2 is not None:
            out["field2"] = str(self.field2)
            out["closeness"] = self.closeness
        return out


def load_config(args) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, bytes or path
            raise InvalidConfig(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
    for key in ("seed", "budget"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    return RunConfig.from_dict(raw)


def _parse_matrix(cfg: RunConfig, text: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"matrix is not valid JSON: {exc}")
    return _matrix(cfg, rows)


def _matrix(cfg: RunConfig, rows):
    n = cfg.n
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a JSON list of rows")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"matrix must be {n} x {n}")
    return cfg.spec().parse_matrix(rows, cfg.budget)


def _parse_tau(cfg: RunConfig, text: str) -> CartanDatum:
    try:
        parts = json.loads(text) if text.strip().startswith("[") else text.split(",")
    except json.JSONDecodeError as exc:
        raise ParseError(f"cocharacter is not valid JSON: {exc}")
    return _cocharacter(cfg, parts)


def _cocharacter(cfg: RunConfig, parts) -> CartanDatum:
    """A dominant cocharacter of the configured group (SL: summing to 0)."""
    try:
        coords = tuple(int(x) for x in parts)
    except (TypeError, ValueError):
        raise ParseError(f"cocharacter must be a list of integers, got {parts!r}")
    if len(coords) != cfg.n:
        raise ParseError(f"cocharacter {coords} needs {cfg.n} entries")
    tau = CartanDatum(coords)
    cfg.spec().n_of_tau(tau)  # raises SLTraceNonzero for an SL cocharacter off sum 0
    return tau


def _parse_hecke(cfg: RunConfig, algebra: HeckeAlgebra, text: str) -> HeckeElement:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"Hecke element is not valid JSON: {exc}")
    if not isinstance(raw, dict) or not isinstance(raw.get("terms", []), list):
        raise ParseError('Hecke element must be a JSON object {"terms": [...]}')
    ring = cfg.ring
    terms = {}
    for item in raw.get("terms", []):
        if not isinstance(item, dict):
            raise ParseError(f"each term must be a JSON object, got {item!r}")
        try:
            coeff = ring.from_int(int(item.get("coeff", 1)))
        except (TypeError, ValueError):
            raise ParseError(f"coefficient must be an integer, got {item.get('coeff')!r}")
        if "tau" in item:
            label = algebra.label_of_tau(_cocharacter(cfg, item["tau"]))
        elif "k" in item:
            label = algebra.classify(_matrix(cfg, item["k"]))
        else:
            raise ParseError("each term needs 'tau' or 'k'")
        terms[label] = ring.add(terms.get(label, ring.zero), coeff)
    return HeckeElement(ring, terms)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InvalidConfig(f"cannot write {path!r}: {exc}")


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------


def cmd_cartan(args) -> int:
    cfg = load_config(args)
    g = _parse_matrix(cfg, args.matrix)
    fac = cartan(g)
    ok = fac.product() == g and fac.a.in_k() and fac.b.in_k()
    print(f"tau = {fac.tau}")
    print(f"a = {fac.a}")
    print(f"b = {fac.b}")
    print(f"exact reconstruction a*n_tau*b == g: {ok}")
    _emit_maybe(args, {
        "tau": list(fac.tau.coords),
        "a": fac.a.serialize(),
        "b": fac.b.serialize(),
        "reconstructs": ok,
    })
    return 0 if ok else 1


def cmd_dcosets(args) -> int:
    cfg = load_config(args)
    algebra = HeckeAlgebra(cfg.spec(), cfg.level, cfg.budget)
    g = _parse_matrix(cfg, args.matrix)
    cosets = algebra.left_cosets(g)
    print(f"degree deg(t_g) = {len(cosets)} at level m = {cfg.level}")
    for rep in cosets:
        print(f"  {rep}")
    _emit_maybe(args, {"degree": len(cosets), "cosets": [r.serialize() for r in cosets]})
    return 0


def cmd_orbits(args) -> int:
    cfg = load_config(args)
    algebra = HeckeAlgebra(cfg.spec(), cfg.level, cfg.budget)
    tau = _parse_tau(cfg, args.tau)
    table = algebra.orbit_table(tau)
    q2 = len(algebra.residue_classes) ** 2
    print(f"tau = {tau}: |X_tau| = {table.orbit_count}, |Gamma_tau| = {table.gamma_size}, "
          f"|K/K_m|^2 = {q2}")
    for label in table.labels:
        print(f"  {label}")
    _emit_maybe(args, {
        "tau": list(tau.coords),
        "orbit_count": table.orbit_count,
        "gamma_size": table.gamma_size,
        "labels": [l.serialize() for l in table.labels],
    })
    return 0


def cmd_convolve(args) -> int:
    cfg = load_config(args)
    algebra = HeckeAlgebra(cfg.spec(), cfg.level, cfg.budget)
    f1 = _parse_hecke(cfg, algebra, args.f1)
    f2 = _parse_hecke(cfg, algebra, args.f2)
    prod = algebra.convolve(f1, f2, window=cfg.window)
    print(f"f1 * f2 = {prod}")
    rows = []
    for label in prod.support():
        rows.append({
            "label": label.serialize(),
            "coeff": prod.ring.coeff_str(prod.terms[label]),
            "degree": algebra.degree(label),
        })
        print(f"  {label}: coeff {prod.ring.coeff_str(prod.terms[label])}, "
              f"deg {algebra.degree(label)}")
    if prod.flagged:
        print(f"flagged outside window B={cfg.window}: {[str(l) for l in prod.flagged]}")
    degree_line = None
    if f1.ring == ZZ and len(f1.terms) == 1 and len(f2.terms) == 1:
        (l1, c1), (l2, c2) = next(iter(f1.terms.items())), next(iter(f2.terms.items()))
        if c1 == 1 and c2 == 1:
            lhs = sum(prod.terms[l] * algebra.degree(l) for l in prod.terms)
            rhs = algebra.degree(l1) * algebra.degree(l2)
            degree_line = {"sum_c_deg": lhs, "deg_g_times_deg_h": rhs, "equal": lhs == rhs}
            print(f"degree check: sum c_x deg(x) = {lhs}, deg(g)*deg(h) = {rhs}")
    _emit_maybe(args, {"product": prod.serialize(), "table": rows, "degree_check": degree_line})
    return 0


def cmd_transport(args) -> int:
    cfg = load_config(args)
    ctx = cfg.transport_context()
    g = _parse_matrix(cfg, args.matrix)
    g2 = ctx.transport_element(g)
    label = ctx.algebra.classify(g)
    label2 = ctx.algebra2.classify(g2)
    print(f"g  = {g}")
    print(f"g' = {g2}")
    print(f"label  over F : {label}")
    print(f"label' over F': {label2}")
    _emit_maybe(args, {
        "transported": g2.serialize(),
        "label": label.serialize(),
        "label_transported": label2.serialize(),
    })
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args)
    rng = random.Random(cfg.seed)
    suites = {}
    failures = []
    which = args.suite
    # One context serves the kazhdan suite, the hecke suite and the CSV, so
    # each windowed structure constant is computed once per run.  The
    # context and the algebra are built only when needed: the field and
    # hecke suites alone run on configs that cannot build one (level 0, no
    # closeness), and the field suite on levels whose K/K_m the budget refuses.
    ctx = algebra = None
    if which in ("kazhdan", "all") or (args.csv and cfg.field2 is not None):
        ctx = cfg.transport_context()
        algebra = ctx.algebra
    elif which == "hecke" or args.csv:
        algebra = HeckeAlgebra(cfg.spec(), cfg.level, cfg.budget)
    if which in ("field", "all"):
        suites["field"] = _suite_field(cfg, rng, failures)
    if which in ("hecke", "all"):
        suites["hecke"] = _suite_hecke(cfg, rng, failures, algebra)
    if which in ("kazhdan", "all"):
        suites["kazhdan"] = _suite_kazhdan(ctx, failures)
    payload = {
        "config": cfg.describe(),
        "seed": cfg.seed,
        "suites": suites,
        "success": not failures,
    }
    _emit(args, payload)
    if args.csv:
        from .hecke import structure_constants_csv

        if ctx is not None:
            text = kazhdan.structure_constants_csv(ctx)
        else:
            text = structure_constants_csv(algebra, cfg.window)
        _write(args.csv, text)
        print(f"structure constants written to {args.csv}")
    if failures:
        print(f"FAILED: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def _check(checks, failures, name, ok, detail=None):
    entry = {"name": name, "ok": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)
    if not ok:
        failures.append(name)


def _suite_field(cfg: RunConfig, rng, failures) -> dict:
    from .sampling import random_element

    checks = []
    models = [cfg.field] + ([cfg.field2] if cfg.field2 else [])
    for model in models:
        ok_mul = ok_ultra = True
        for _ in range(200):
            x, y = random_element(model, rng), random_element(model, rng)
            if not x.is_zero() and not y.is_zero():
                if (x * y).val() != x.val() + y.val():
                    ok_mul = False
            s = x + y
            if s.val() < min(x.val(), y.val()):
                ok_ultra = False
            if x.val() != y.val() and s.val() != min(x.val(), y.val()):
                ok_ultra = False
        _check(checks, failures, f"valuation multiplicative [{model}]", ok_mul)
        _check(checks, failures, f"ultrametric inequality [{model}]", ok_ultra)
        ring = model.residue_ring(min(2, max(1, cfg.level or 1)))
        ok_rt = all(ring.reduce(r.lift()) == r for r in ring.elements())
        _check(checks, failures, f"reduce(lift) identity [{model}]", ok_rt)
    if cfg.field2 is not None:
        pair = cfg.close_pair()
        ringN = cfg.field.residue_ring(pair.N)
        ok_hom = True
        for _ in range(100):
            a = ringN.reduce(_random_residue_lift(cfg.field, rng, pair.N))
            b = ringN.reduce(_random_residue_lift(cfg.field, rng, pair.N))
            if pair.apply(a + b) != pair.apply(a) + pair.apply(b):
                ok_hom = False
            if pair.apply(a * b) != pair.apply(a) * pair.apply(b):
                ok_hom = False
        _check(checks, failures, "lambda is a ring map (sampled)", ok_hom)
        uni = pair.apply(ringN.uniformizer()) == cfg.field2.residue_ring(pair.N).uniformizer()
        _check(checks, failures, "lambda maps uniformizer to uniformizer", uni)
    return {"checks": checks}


def _random_residue_lift(model, rng, N):
    from .sampling import random_integral

    return random_integral(model, rng, depth=N)


def _suite_hecke(cfg: RunConfig, rng, failures, algebra: HeckeAlgebra = None) -> dict:
    # Without an algebra (as benchmark/config_seeds.py calls it) the suite
    # builds its own from the config.
    if algebra is None:
        algebra = HeckeAlgebra(cfg.spec(), cfg.level, cfg.budget)
    checks = []
    spec = algebra.spec
    unit = algebra.unit(ZZ)
    f = algebra.t(random_windowed(spec, rng, cfg.window))
    _check(checks, failures, "unit law",
           algebra.convolve(unit, f) == f and algebra.convolve(f, unit) == f)
    taus = dominant_window(spec.family, spec.n, cfg.window, algebra.budget)
    _check_budget(len(taus) ** 2, algebra.budget)  # one product per pair below
    theta = {tau: algebra.t(spec.n_of_tau(tau)) for tau in taus}  # one classify per tau
    ok_single = True
    for t1 in taus:
        for t2 in taus:
            prod = algebra.convolve(theta[t1], theta[t2])
            target = algebra.label_of_tau(t1 + t2)
            if algebra.m == 0:
                # the spherical algebra: the leading term plus lower terms
                lower = all(_strictly_below(l.tau, target.tau) for l in prod.terms if l != target)
                if prod.coefficient(target) != 1 or not lower:
                    ok_single = False
            elif prod.terms != {target: 1}:
                ok_single = False
    name = "t_(n_tau1) * t_(n_tau2) = t_(n_tau1+tau2)"
    _check(checks, failures, name + (" + lower terms" if algebra.m == 0 else ""), ok_single)
    ok_fact = True
    for _ in range(10):
        k1, k2 = random_in_k(spec, rng), random_in_k(spec, rng)
        tau = taus[rng.randrange(len(taus))]
        n_tau = spec.n_of_tau(tau)
        lhs = algebra.t(k1 @ n_tau @ k2)
        rhs = algebra.convolve(algebra.convolve(algebra.t(k1), algebra.t(n_tau)), algebra.t(k2))
        if lhs != rhs:
            ok_fact = False
    _check(checks, failures, "t_(k1 n_tau k2) = t_k1 * t_n_tau * t_k2", ok_fact)
    ok_deg = True
    labels = algebra.labels_in_window(cfg.window)
    for _ in range(5):
        l1, l2 = rng.choice(labels), rng.choice(labels)
        sc = algebra.structure_constants(l1, l2)
        lhs = sum(c * algebra.degree(l) for l, c in sc.items())
        if lhs != algebra.degree(l1) * algebra.degree(l2):
            ok_deg = False
        if any(c <= 0 for c in sc.values()):
            ok_deg = False
    _check(checks, failures, "degree conservation, positive integer constants", ok_deg)
    ell = next(l for l in (3, 5, 7) if l != spec.model.p)
    fl = PrimeField(ell)
    l1, l2 = rng.choice(labels), rng.choice(labels)
    over_z = algebra.convolve(algebra.t_of_label(l1), algebra.t_of_label(l2))
    over_fl = algebra.convolve(algebra.t_of_label(l1, fl), algebra.t_of_label(l2, fl))
    from .hecke import base_change

    _check(checks, failures, f"base change Z -> F_{ell}", base_change(over_z, fl) == over_fl)
    return {"checks": checks}


def _strictly_below(mu: CartanDatum, lam: CartanDatum) -> bool:
    """mu < lam in dominance order: lam - mu is a nonzero sum of positive
    coroots e_i - e_(i+1), i.e. its partial sums are >= 0 and its total is 0."""
    partial = list(itertools.accumulate(x - y for x, y in zip(lam.coords, mu.coords)))
    return mu != lam and partial[-1] == 0 and all(s >= 0 for s in partial)


def _suite_kazhdan(ctx: kazhdan.TransportContext, failures) -> dict:
    report = kazhdan.verify_algebra_map(ctx)
    if not report.success:
        failures.append("kazhdan structure constants")
    return report.to_dict()


# -- entry point ---------------------------------------------------------------


def _emit_maybe(args, payload):
    if getattr(args, "out", None):
        _emit(args, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact Hecke algebras of split groups over close local fields",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument("--budget", type=int, help="override enumeration budget")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--csv", help="write matched structure constants as CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cartan", help="Cartan factorization of a matrix")
    p.add_argument("matrix", help="JSON matrix, entries ints or element strings")
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("dcosets", help="left cosets of K_m g K_m")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_dcosets)

    p = sub.add_parser("orbits", help="orbit/stabilizer table of a cocharacter")
    p.add_argument("tau", help="cocharacter, e.g. '1,-1' or '[1,0]'")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("convolve", help="convolution of two Hecke elements")
    p.add_argument("f1", help="JSON Hecke element, e.g. {\"terms\":[{\"tau\":[1,0]}]}")
    p.add_argument("f2")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("transport", help="transport an element across the pair")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("verify", help="run invariant suites / the flagship check")
    p.add_argument("--suite", choices=["field", "hecke", "kazhdan", "all"], default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HeckelabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
