"""Self-test of the benchmark at a tiny size of each workload.

    python3 -m pytest benchmark/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import heckelab  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from heckelab import cli, hecke, kazhdan, localfield, matgrp  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

MODULES = (heckelab, cli, hecke, kazhdan, localfield, matgrp)
CLASSES = (localfield.FieldElement, localfield.ResidueRing, localfield.ResidueElement,
           localfield.ClosePair, matgrp.GroupElement, matgrp.ResidueMatrix,
           hecke.HeckeAlgebra, kazhdan.TransportContext)


def snapshot():
    return {(id(owner), name): value for owner in MODULES + CLASSES
            for name, value in vars(owner).items() if callable(value)}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_uninstall_restores_every_original():
    before = snapshot()
    tracer = Tracer()
    original = matgrp.cartan
    with tracer:
        assert hecke.cartan is matgrp.cartan is cli.cartan is kazhdan.cartan
        assert hecke.cartan.__wrapped__ is original
        assert snapshot() != before
    assert heckelab.hecke.cartan is heckelab.matgrp.cartan is original
    assert snapshot() == before


def traced_run(workload):
    """A traced run at a tiny size: its replay must match the untraced
    outputs digest for digest, and every output must be exact."""
    lines = []
    result = run.run(workload, seconds=0.01, trace=1, out=lines.append)
    assert result["correct"] and result["failed"] == 0, lines
    assert "traced outputs differ from the untraced outputs" not in lines
    assert heckelab.hecke.cartan is heckelab.matgrp.cartan
    return result["metrics"]


def test_cli_verify_tiny():
    probe = workloads.CliVerify(seed=3, window=0, expected={})
    probe.setup()
    probe.prepare()
    report, csv = probe.iteration()[0].digest.split(":")
    metrics = traced_run(workloads.CliVerify(
        seed=3, window=0, expected={"report_sha256": report, "csv_sha256": csv}))
    assert metrics["cli.main.incl_s"]["value"] > 0
    assert metrics["kazhdan.verify_algebra_map.incl_s"]["value"] > 0


def test_coset_tables_tiny():
    configs = (("GL", 2, ("mixed", 3), 1, 1), ("SL", 2, ("equal", 2), 1, 1),
               ("GL", 2, ("mixed", 2), 0, 1))
    metrics = traced_run(workloads.CosetTables(seed=3, configs=configs))
    taus = sum(len(matgrp.dominant_window(f, n, b)) for f, n, _, _, b in configs)
    assert metrics["hecke.orbit_table.misses"]["value"] == taus
    assert metrics["hecke.coset_sweep.points"]["value"] > 0
    assert metrics["matgrp.cartan.calls"]["value"] == 0


def test_query_stream_tiny():
    stream = workloads.QueryStream(seed=3, window=1)
    metrics = traced_run(stream)
    assert metrics["hecke.structure_constants.misses"]["value"] == 0
    assert metrics["hecke.classify.calls"]["value"] >= 3 * stream.batch


def test_host_speed_helper_ends_and_scales():
    affinity = os.sched_getaffinity(0)
    with hostspeed.HostSpeed() as host:
        assert len(os.sched_getaffinity(0)) == 1
        t0, c0 = hostspeed.stamp()
        hostspeed.probe()
        t1, c1 = hostspeed.stamp()
    assert host.proc.returncode == 0
    assert host.samples and host.scaled(t0, t1, c1 - c0) > 0
    assert os.sched_getaffinity(0) == affinity
    host.samples = [(0.0, 0.01), (1.0, 0.02), (9.0, 0.04)]
    reference = hostspeed.REFERENCE_S
    assert host.scaled(0.0, 1.0, 3.0) == pytest.approx(3.0 * reference / 0.015)
    assert host.scaled(5.2, 5.2, 1.0) == pytest.approx(reference / 0.04)


@pytest.mark.parametrize("percentile,expected", [(None, (9, "max", 0)), (90, (8, "p90", 1))])
def test_tail(percentile, expected):
    assert run.tail(range(10), percentile) == expected


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "coset-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_config_seed_pool_runs_the_large_sweep():
    import config_seeds

    pool = workloads.EXPECTED["cli-verify"]["config_seeds"]
    assert all(config_seeds.sweeps_large_tau(seed) for seed in pool)
    assert not config_seeds.sweeps_large_tau(2)
