"""The benchmark's three workloads and their exactness gates.

Each workload is built from a seed and has three parts:

* ``setup()``: the work done before timing (imports, inputs from the seed,
  cache warm-up);
* ``prepare()``: untimed work before each iteration (its inputs);
* ``iteration()``: one timed unit of work, returning one ``Op`` per
  operation, each with its wall-clock interval and CPU time (see
  hostspeed.py), whether it passed its exactness gate, and a digest of its
  output;
* ``replay(tracer, iterations)``: the work of the first ``iterations``
  iterations again, with the tracer on and its spans grouped per
  operation.

The package is always reached through module attributes (``matgrp.cartan``,
never a name imported into this file) so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass

import heckelab.cli
from heckelab import hecke, kazhdan, localfield, matgrp, sampling
from hostspeed import stamp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

with open(os.path.join(BENCH_DIR, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


@dataclass
class Op:
    ok: bool
    digest: str
    start: float  # wall time, as stamp() gives it
    end: float
    cpu_s: float


def timed_op(ok, digest, begin, end=None) -> Op:
    """The operation timed from stamp ``begin`` to stamp ``end`` (now when
    omitted)."""
    (t0, c0), (t1, c1) = begin, end or stamp()
    return Op(ok, digest, t0, t1, c1 - c0)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# cli-verify: the flagship `heckelab verify --suite all` as a fresh process
# ---------------------------------------------------------------------------

FLAGSHIP = {
    "field": {"kind": "mixed", "p": 2, "e": 5},
    "field2": {"kind": "equal", "p": 2},
    "closeness": 5,
    "group": {"family": "SL", "n": 2},
    "level": 1,
}

_SEED_LINE = re.compile(rb'^ *"seed": -?\d+,?\n', re.MULTILINE)


class CliVerify:
    """``heckelab --config C --out R --csv S verify --suite all``, one process
    per iteration, on SL2 over Q_2(2^(1/5)) ~ F_2((t)), m=1, N=5, B=1.

    The benchmark seed shuffles a pool of config seeds, and each process
    takes the next one.  The CLI's own sampling decides whether its degree
    check needs the cosets of tau = (2,-2), a 6 s sweep that a third of all
    config seeds skip; the pool (see config_seeds.py) holds only seeds that
    run it, so every process does the same checks.
    """

    name = "cli-verify"
    setup_repeats = 3
    min_iterations = 2
    tail_percentile = None  # two processes a run: the tail is the maximum

    def __init__(self, seed: int, window: int = 1, expected=None):
        self.seed = seed
        self.window = window
        self.expected = EXPECTED["cli-verify"] if expected is None else expected
        self.dir = os.path.join(OUT, f"cli-verify-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.config_seeds = list(self.expected.get("config_seeds", [seed]))
        random.Random(seed).shuffle(self.config_seeds)
        self.configs = []

    def _config(self, i) -> str:
        """The config file of iteration i, written on first use."""
        while len(self.configs) <= i:
            path = os.path.join(self.dir, f"config-{len(self.configs)}.json")
            with open(path, "w") as fh:
                seed = self.config_seeds[len(self.configs) % len(self.config_seeds)]
                json.dump(dict(FLAGSHIP, window=self.window, seed=seed), fh)
            self.configs.append(path)
        return self.configs[i]

    def setup(self):
        """Write the first config, then start a fresh interpreter that imports
        the CLI and validates it: the part of every CLI run that is not the
        verification itself."""
        os.makedirs(self.dir, exist_ok=True)
        code = ("import json, sys, heckelab.cli as c; "
                "c.RunConfig.from_dict(json.load(open(sys.argv[1])))")
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code, self._config(0)], env=self.env,
                       check=True, stdout=subprocess.DEVNULL)
        self.done = 0

    def _argv(self, i):
        report = os.path.join(self.dir, f"report-{i}.json")
        csv = os.path.join(self.dir, f"constants-{i}.csv")
        return report, csv, ["--config", self._config(i), "--out", report, "--csv", csv,
                             "verify", "--suite", "all"]

    def _check(self, code, report, csv, begin, end) -> Op:
        ok = code == 0
        digest = f"exit {code}"
        if ok:
            with open(report, "rb") as fh:
                report_digest = sha256(_SEED_LINE.sub(b"", fh.read()))
            with open(csv, "rb") as fh:
                csv_digest = sha256(fh.read())
            digest = f"{report_digest}:{csv_digest}"
            ok = (report_digest == self.expected.get("report_sha256")
                  and csv_digest == self.expected.get("csv_sha256"))
        return timed_op(ok, digest, begin, end)

    def prepare(self):
        self._config(self.done)

    def iteration(self):
        report, csv, argv = self._argv(self.done)
        self.done += 1
        begin = stamp()
        proc = subprocess.run([sys.executable, "-m", "heckelab.cli", *argv], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
        end = stamp()
        return [self._check(proc.returncode, report, csv, begin, end)]

    def replay(self, tracer, iterations):
        """The same commands in this process, through the traced ``cli.main``."""
        ops = []
        for i in range(iterations):
            report, csv, argv = self._argv(i)
            tracer.begin_op()
            begin = stamp()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = heckelab.cli.main(argv)
            end = stamp()
            tracer.end_op("cli-verify")
            ops.append(self._check(code, report, csv, begin, end))
        return ops


# ---------------------------------------------------------------------------
# coset-tables: degree and orbit table of every tau, from a fresh algebra
# ---------------------------------------------------------------------------

# (family, n, field, m, B).  The first three put the work in the three
# left-coset sweeps: the Z_p integer path (SL3/Q_2), the generic path at m=0
# (GL2/Q_2) and the generic equal-characteristic path (SL2/F_2((t))).
COSET_CONFIGS = (
    ("SL", 3, ("mixed", 2), 1, 1),
    ("GL", 2, ("mixed", 2), 0, 2),
    ("SL", 2, ("equal", 2), 1, 2),
    ("GL", 2, ("mixed", 3), 1, 1),
    ("SL", 2, ("mixed", 2), 1, 2),
)


def _model(field):
    kind, p = field
    return localfield.FieldModel.mixed(p) if kind == "mixed" else localfield.FieldModel.equal(p)


def expected_degree(family, n, q, m, tau) -> int:
    """deg t_(n_tau): q^<2rho,tau> at m >= 1; at m = 0 for GL2 the spherical
    degree q^<2rho,tau> (q+1)/q when a_1 > a_2, else 1."""
    a = tau.coords
    two_rho = sum(a[i] - a[j] for i in range(n) for j in range(i + 1, n))
    if m >= 1:
        return q**two_rho
    if family == "GL" and n == 2:
        return q ** (two_rho - 1) * (q + 1) if a[0] > a[1] else 1
    raise ValueError("no closed-form degree for this configuration")


class CosetTables:
    """From a fresh HeckeAlgebra, degree(tau) then orbit_table(tau) for every
    tau in the window; one operation per configuration."""

    name = "coset-tables"
    setup_repeats = 3
    min_iterations = 2
    tail_percentile = None  # ten operations a run: the tail is the maximum

    def __init__(self, seed: int, configs=COSET_CONFIGS):
        self.seed = seed
        self.configs = configs
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def setup(self):
        """Fix the tau order of every configuration from the seed, and import
        the package in a fresh interpreter (the import this process did)."""
        rng = random.Random(self.seed)
        self.jobs = []
        for family, n, field, m, bound in self.configs:
            spec = matgrp.GroupSpec(family, n, _model(field))
            taus = list(matgrp.dominant_window(family, n, bound))
            rng.shuffle(taus)
            self.jobs.append((spec, m, taus))
        subprocess.run([sys.executable, "-c", "import heckelab"], env=self.env, check=True)

    def _run(self, spec, m, taus) -> Op:
        begin = stamp()
        try:
            algebra = hecke.HeckeAlgebra(spec, m)
            rows = []
            for tau in taus:
                degree = algebra.degree(tau)
                table = algebra.orbit_table(tau)
                rows.append((tau, degree, table))
        except Exception as exc:  # a raised error is a failed operation, not a crash
            return timed_op(False, f"error {type(exc).__name__}: {exc}", begin)
        end = stamp()
        size = len(algebra.residue_classes)
        ok = True
        lines = []
        for tau, degree, table in sorted(rows, key=lambda r: r[0].sort_key()):
            ok &= table.orbit_count * table.gamma_size == size * size
            ok &= degree == expected_degree(spec.family, spec.n, spec.model.q, m, tau)
            lines.append(f"{tau} {degree} {table.orbit_count} {table.gamma_size} "
                         + " ".join(str(label) for label in table.labels))
        return timed_op(ok, sha256("\n".join(lines)), begin, end)

    def prepare(self):
        pass

    def iteration(self):
        return [self._run(*job) for job in self.jobs]

    def replay(self, tracer, iterations):
        ops = []
        for _ in range(iterations):
            for job in self.jobs:
                tracer.begin_op()
                ops.append(self._run(*job))
                tracer.end_op("coset-tables")
        return ops


# ---------------------------------------------------------------------------
# query-stream: a closed loop of classify/transport queries on warm tables
# ---------------------------------------------------------------------------


class QueryStream:
    """One client, no think time, on the flagship pair with B = 2.  A query
    is g = k1 n_tau k2 with k1, k2 from random_in_k and tau in the window;
    every query of a run is drawn afresh from the seeded stream.  Each batch
    holds every tau of the window equally often, in seeded order, because a
    query's cost depends mostly on its tau."""

    name = "query-stream"
    setup_repeats = 1  # one set-up already sweeps the cosets of every tau
    min_iterations = 1
    tail_percentile = 98  # 790-1100 queries a run: 98 is the highest with 10 beyond
    per_tau = 8  # queries of each tau in a batch
    prefix = 16  # untimed queries run at the end of set-up

    def __init__(self, seed: int, window: int = 2):
        self.seed = seed
        self.window = window

    def setup(self):
        """Build the pair, fill the orbit tables, the coset systems, the label
        transport and every structure constant a query can ask for, then run
        an untimed prefix of the seeded stream."""
        lf = localfield
        f1, f2 = lf.FieldModel.mixed(2, 5), lf.FieldModel.equal(2)
        self.spec = matgrp.GroupSpec("SL", 2, f1)
        self.ctx = kazhdan.TransportContext(
            lf.ClosePair(f1, f2, 5), self.spec, matgrp.GroupSpec("SL", 2, f2),
            m=1, N=5, window=self.window,
        )
        algebra = self.ctx.algebra
        self.taus = matgrp.dominant_window("SL", 2, self.window)
        for tau in self.taus:
            algebra.degree(tau)
            algebra.orbit_table(tau)
            self.ctx.algebra2.orbit_table(tau)
        for label in algebra.labels_in_window(self.window):
            self.ctx.transport_label(label)
        # t(k1) * t(n_tau) * t(k2): k1 and k2 have tau = 0 labels
        units = algebra.orbit_table(matgrp.zero_tau(2)).labels
        for tau in self.taus:
            n_label = algebra.label_of_tau(tau)
            for u1 in units:
                for label in algebra.structure_constants(u1, n_label):
                    for u2 in units:
                        algebra.structure_constants(label, u2)
        self.rng = random.Random(self.seed)
        for query in self._draw_batch()[: self.prefix]:
            self._query(query)
        self.batches = []

    @property
    def batch(self) -> int:
        return self.per_tau * len(self.taus)

    def _draw_batch(self):
        rng = self.rng
        taus = list(self.taus) * self.per_tau
        rng.shuffle(taus)
        return [(sampling.random_in_k(self.spec, rng), tau, sampling.random_in_k(self.spec, rng))
                for tau in taus]

    def _query(self, query) -> Op:
        k1, tau, k2 = query
        ctx = self.ctx
        algebra = ctx.algebra
        begin = stamp()
        try:
            n_tau = self.spec.n_of_tau(tau)
            g = k1 @ n_tau @ k2
            ok = matgrp.cartan(g).product() == g
            label = algebra.classify(g)
            label2 = ctx.algebra2.classify(ctx.transport_element(g))
            ok &= label2 == ctx.transport_label(label)
            product = algebra.convolve(algebra.convolve(algebra.t(k1), algebra.t(n_tau)),
                                       algebra.t(k2))
            ok &= product == algebra.t(g)
            digest = f"{label}|{label2}"
        except Exception as exc:  # a raised error is a failed query, not a crash
            ok, digest = False, f"error {type(exc).__name__}: {exc}"
        return timed_op(ok, digest, begin)

    def prepare(self):
        """Draw the next batch; drawing is the client's work, not timed."""
        self.batches.append(self._draw_batch())

    def iteration(self):
        return [self._query(query) for query in self.batches[-1]]

    def replay(self, tracer, iterations):
        ops = []
        for batch in self.batches[:iterations]:
            for query in batch:
                tracer.begin_op()
                ops.append(self._query(query))
                tracer.end_op("query")
        return ops


WORKLOADS = {w.name: w for w in (CliVerify, CosetTables, QueryStream)}
