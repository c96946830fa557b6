"""Outside-in tracer for heckelab's layers.

The tracer replaces public functions and methods of ``heckelab.localfield``,
``matgrp``, ``hecke``, ``kazhdan`` and ``cli`` with timing wrappers, at every
name a caller looks them up by: ``heckelab.hecke`` and ``heckelab.kazhdan``
import ``cartan``, ``reduce_group``, ``lift_group``, ``iter_kernel`` and
``enumerate_residue_matrices`` by name, so those module attributes are
patched as well as the defining module.  ``uninstall`` puts every original
back.  Nothing in ``src/heckelab`` is edited.

Per wrapped name the tracer keeps a call count, inclusive time and self time
(inclusive time minus the time of wrapped calls made underneath it), plus a
few counters that expose repeated or wasted work.  Spans (id, parent, root,
name, start, end) of the coarse layers are kept in memory and written by
``write_spans`` when the run ends; field arithmetic is only aggregated,
because it runs millions of times.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.  The
# benchmark's BENCHMARK.json lists exactly these names.
_FIELD_OPS = ("mul", "inverse", "add", "dot")
PER_LAYER = (
    [
        (f"localfield.{op}.{model}.{stat}", unit, "lower")
        for op in _FIELD_OPS
        for model in (("mixed",) if op == "dot" else ("mixed", "equal"))
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"localfield.{op}.{stat}", unit, "lower")
        for op in ("val", "residue", "residue_mul")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [("localfield.lambda.calls", "count", "lower")]
    + [
        ("matgrp.cartan.calls", "count", "lower"),
        ("matgrp.cartan.self_s", "s", "lower"),
        ("matgrp.cartan.incl_s", "s", "lower"),
    ]
    + [
        (f"matgrp.{op}.{stat}", unit, "lower")
        for op in ("matmul", "inverse", "in_km", "reduce_group", "lift_group", "residue_matmul")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("matgrp.enumerate_residue_matrices.calls", "count", "lower"),
        ("matgrp.enumerate_residue_matrices.incl_s", "s", "lower"),
        ("matgrp.enumerate_residue_matrices.points", "count", "lower"),
        ("matgrp.iter_kernel.points", "count", "lower"),
        ("matgrp.iter_kernel.incl_s", "s", "lower"),
    ]
    + [
        ("hecke.algebras.mixed", "count", "lower"),
        ("hecke.algebras.equal", "count", "lower"),
        ("hecke.degree.calls", "count", "lower"),
        ("hecke.degree.misses", "count", "lower"),
        ("hecke.degree.incl_s", "s", "lower"),
        ("hecke.coset_sweep.kept", "count", "lower"),
        ("hecke.coset_sweep.points", "count", "lower"),
        ("hecke.coset_sweep_yield", "ratio", "higher"),
        ("hecke.orbit_table.calls", "count", "lower"),
        ("hecke.orbit_table.misses", "count", "lower"),
        ("hecke.orbit_table.incl_s", "s", "lower"),
        ("hecke.orbit_table.entries", "count", "lower"),
        ("hecke.classify.calls", "count", "lower"),
        ("hecke.classify.self_s", "s", "lower"),
        ("hecke.classify.incl_s", "s", "lower"),
        ("hecke.structure_constants.calls", "count", "lower"),
        ("hecke.structure_constants.misses", "count", "lower"),
        ("hecke.structure_constants.self_s", "s", "lower"),
        ("hecke.structure_constants.incl_s", "s", "lower"),
        ("hecke.convolve.calls", "count", "lower"),
        ("hecke.convolve.incl_s", "s", "lower"),
    ]
    + [
        (f"kazhdan.{fn}.{stat}", unit, "lower")
        for fn in ("transport_label", "transport_element")
        for stat, unit in (("calls", "count"), ("misses", "count"), ("incl_s", "s"))
    ]
    + [
        ("kazhdan.verify_algebra_map.incl_s", "s", "lower"),
        ("kazhdan.structure_constants_csv.incl_s", "s", "lower"),
        ("cli.main.incl_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# Names whose calls are kept as spans; everything else is only aggregated.
_SPAN_PREFIXES = ("cli.", "kazhdan.", "hecke.", "matgrp.cartan", "matgrp.enumerate_residue",
                  "matgrp.iter_kernel", "bench.")
MAX_SPANS = 500_000


class Tracer:
    """Wraps heckelab's layer boundaries; one instance per traced run."""

    def __init__(self):
        self.stack = []  # one frame [child_time, span_id] per active wrapped call
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, self_s, incl_s]
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.root = 0
        self._next_id = 1
        self._patches = []
        self._seen = defaultdict(weakref.WeakKeyDictionary)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, stat_of, name=None, after=None):
        """A timing wrapper around ``fn``.

        ``stat_of(args)`` picks the [calls, self_s, incl_s] cell to charge;
        ``name`` (when spans are kept for it) names the span; ``after`` is
        called with (args, result) once the call returned.
        """
        stack, clock, spans = self.stack, time.perf_counter, self.spans
        keep = name is not None and name.startswith(_SPAN_PREFIXES)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                cell = stat_of(args)
                cell[0] += 1
                cell[1] += dur - frame[0]
                cell[2] += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, parent, tracer.root, name, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, on_item):
        """Like _wrap for a generator function: each resume is one span."""
        stack, clock, spans = self.stack, time.perf_counter, self.spans
        cell = self.stats[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            cell[0] += 1
            while True:
                parent = stack[-1][1] if stack else 0
                sid = tracer._next_id
                tracer._next_id += 1
                frame = [0.0, sid]
                stack.append(frame)
                t0 = clock()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    cell[1] += dur - frame[0]
                    cell[2] += dur
                    if stack:
                        stack[-1][0] += dur
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, parent, tracer.root, name, t0, t1))
                    else:
                        tracer.dropped_spans += 1
                if done:
                    return
                on_item()
                yield item

        return wrapper

    def _fixed(self, name):
        cell = self.stats[name]
        return lambda args: cell

    def _by_model(self, base):
        from heckelab.localfield import EQUAL, MIXED

        table = {MIXED: self.stats[f"{base}.mixed"], EQUAL: self.stats[f"{base}.equal"]}
        return lambda args: table[args[0].model.kind]

    def _first_seen(self, name, key_of):
        """A test that counts ``<name>.misses``: True the first time its object
        (an algebra or a transport context) sees the key of a call."""
        seen = self._seen[name]
        counts = self.counts

        def is_new(args) -> bool:
            keys = seen.setdefault(args[0], set())
            key = key_of(args)
            if key in keys:
                return False
            keys.add(key)
            counts[f"{name}.misses"] += 1
            return True

        return is_new

    # -- patching ------------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attrs, stat_of, name=None, after=None):
        wrapper = self._wrap(cls.__dict__[attrs[0]], stat_of, name, after)
        for attr in attrs:
            self._set(cls, attr, wrapper)

    def _function(self, modules, attr, wrapper):
        """Patch ``attr`` on every module that holds the original function."""
        original = getattr(modules[0], attr)
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._set(module, attr, wrapper)

    def install(self):
        import heckelab
        from heckelab import cli, hecke, kazhdan, localfield, matgrp

        if self._patches:
            raise RuntimeError("tracer is already installed")
        lf, mg, hk, kz = localfield, matgrp, hecke, kazhdan
        counts = self.counts

        # localfield: field and residue-ring arithmetic, lambda_N
        fe = lf.FieldElement
        self._method(fe, ("__mul__", "__rmul__"), self._by_model("localfield.mul"))
        self._method(fe, ("__add__", "__radd__"), self._by_model("localfield.add"))
        self._method(fe, ("inverse",), self._by_model("localfield.inverse"))
        self._method(fe, ("val",), self._fixed("localfield.val"))
        self._method(lf.ResidueRing, ("reduce",), self._fixed("localfield.residue"))
        self._method(lf.ResidueElement, ("__mul__",), self._fixed("localfield.residue_mul"))
        self._method(lf.ClosePair, ("apply", "apply_inverse"), self._fixed("localfield.lambda"))
        self._function([lf, mg], "mixed_dot",
                       self._wrap(lf.mixed_dot, self._fixed("localfield.dot.mixed")))

        # matgrp: group elements, cartan, K/K_m and kernel enumeration
        ge = mg.GroupElement
        self._method(ge, ("__matmul__",), self._fixed("matgrp.matmul"))
        self._method(ge, ("inverse",), self._fixed("matgrp.inverse"))
        self._method(ge, ("in_km",), self._fixed("matgrp.in_km"))
        self._method(mg.ResidueMatrix, ("__matmul__",), self._fixed("matgrp.residue_matmul"))
        importers = [mg, hk, kz, cli, heckelab]
        for attr in ("cartan", "reduce_group", "lift_group"):
            name = f"matgrp.{attr}"
            self._function(importers, attr,
                           self._wrap(getattr(mg, attr), self._fixed(name), name))

        def count_points(args, result):
            counts["matgrp.enumerate_residue_matrices.points"] += len(result)

        name = "matgrp.enumerate_residue_matrices"
        self._function(importers, "enumerate_residue_matrices",
                       self._wrap(mg.enumerate_residue_matrices, self._fixed(name), name,
                                  count_points))

        def count_yield():
            counts["matgrp.iter_kernel.points"] += 1
            counts["hecke.coset_sweep.points"] += 1

        self._function(importers, "iter_kernel",
                       self._wrap_generator(mg.iter_kernel, "matgrp.iter_kernel", count_yield))

        # the Z_p integer sweep of hecke asks kernel_count for the points it sweeps
        original_count = hk.kernel_count

        def kernel_count(*args, **kwargs):
            result = original_count(*args, **kwargs)
            counts["hecke.coset_sweep.points"] += result
            return result

        self._set(hk, "kernel_count", kernel_count)

        # hecke: transversals, orbit tables, classify, structure constants
        ha = hk.HeckeAlgebra

        def count_algebra(args, result):
            kind = "mixed" if args[1].model.kind == lf.MIXED else "equal"
            counts[f"hecke.algebras.{kind}"] += 1

        self._method(ha, ("__init__",), self._fixed("hecke.HeckeAlgebra"), None, count_algebra)

        def tau_of(args):
            x = args[1]
            return x.tau if isinstance(x, hk.DoubleCosetLabel) else x

        degree_new = self._first_seen("hecke.degree", tau_of)
        self._method(ha, ("degree",), self._fixed("hecke.degree"), "hecke.degree",
                     lambda args, result: degree_new(args))
        orbit_new = self._first_seen("hecke.orbit_table", tau_of)

        def count_entries(args, result):
            if orbit_new(args):
                counts["hecke.orbit_table.entries"] += len(args[0].residue_classes) ** 2

        self._method(ha, ("orbit_table",), self._fixed("hecke.orbit_table"),
                     "hecke.orbit_table", count_entries)
        self._method(ha, ("classify",), self._fixed("hecke.classify"), "hecke.classify")
        sc_new = self._first_seen("hecke.structure_constants", lambda a: (a[1], a[2]))
        self._method(ha, ("structure_constants",), self._fixed("hecke.structure_constants"),
                     "hecke.structure_constants", lambda args, result: sc_new(args))
        self._method(ha, ("convolve",), self._fixed("hecke.convolve"), "hecke.convolve")
        if "_ntau_cosets" in ha.__dict__:
            # the left-coset system of n_tau; its size on first computation is
            # the number of cosets a sweep kept
            cosets_new = self._first_seen("hecke._ntau_cosets", lambda a: a[1])

            def count_kept(args, result):
                if cosets_new(args) and not args[1].is_zero():
                    counts["hecke.coset_sweep.kept"] += len(result)

            self._method(ha, ("_ntau_cosets",), self._fixed("hecke._ntau_cosets"),
                         None, count_kept)

        # kazhdan: transport and the verification harness
        tc = kz.TransportContext
        for attr in ("transport_label", "transport_element"):
            name = f"kazhdan.{attr}"
            is_new = self._first_seen(name, lambda a: a[1])
            self._method(tc, (attr,), self._fixed(name), name,
                         lambda args, result, is_new=is_new: is_new(args))
        for attr in ("verify_algebra_map", "structure_constants_csv"):
            name = f"kazhdan.{attr}"
            self._function([kz, heckelab], attr,
                           self._wrap(getattr(kz, attr), self._fixed(name), name))

        # cli: the entry point
        self._function([cli], "main", self._wrap(cli.main, self._fixed("cli.main"), "cli.main"))
        return self

    def reset(self):
        """Forget counts and spans, but not the keys already seen."""
        if self._patches:
            raise RuntimeError("reset needs the tracer uninstalled")
        self.stats.clear()
        self.counts.clear()
        self.spans.clear()
        self.dropped_spans = 0

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans opened by the benchmark itself --------------------------------------

    def begin_op(self):
        """Start one benchmark operation; its spans share a root id."""
        self.root = self._next_id
        self._next_id += 1
        self._op_start = time.perf_counter()

    def end_op(self, name):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.root, 0, self.root, f"bench.{name}", self._op_start,
                               time.perf_counter()))

    # -- results -----------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, in PER_LAYER order."""
        values = dict(self.counts)
        for name, (calls, self_s, incl_s) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            values[f"{name}.incl_s"] = incl_s
        kept = values.get("hecke.coset_sweep.kept", 0)
        points = values.get("hecke.coset_sweep.points", 0)
        values["hecke.coset_sweep_yield"] = kept / points if points else 0.0
        values["trace.overhead_s"] = overhead_s
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\troot\tname\tstart_s\tend_s\n")
            for sid, parent, root, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{root}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
