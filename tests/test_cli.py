import hashlib
import json
import pathlib
import random
import re
import time

import pytest

from heckelab import cli, hecke, kazhdan, localfield
from heckelab.cli import RunConfig, main
from heckelab.errors import BudgetExceeded, IncompatiblePair, InvalidConfig, ParseError
from heckelab.matgrp import DEFAULT_BUDGET, GroupSpec, dominant_window
from heckelab.rings import QQ, ZZ, IntegersMod, PrimeField, RationalField, parse_ring


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SMALL_IDENTITY = {
    "field": {"kind": "equal", "p": 2},
    "field2": {"kind": "equal", "p": 2},
    "closeness": 5,
    "group": {"family": "SL", "n": 2},
    "level": 1,
    "window": 1,
    "seed": 11,
}

GL2_Q2 = {
    "field": {"kind": "mixed", "p": 2, "e": 1},
    "group": {"family": "GL", "n": 2},
    "level": 1,
    "window": 1,
    "seed": 11,
}


def test_cartan_command(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "cartan", "[[2,0],[0,1]]"]) == 0
    out = capsys.readouterr().out
    assert "tau = (1,0)" in out
    assert "True" in out


def test_cartan_command_nontrivial_witness(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "cartan", "[[0,1],[2,0]]"]) == 0
    out = capsys.readouterr().out
    assert "tau = (1,0)" in out


def test_cartan_command_identity(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "cartan", "[[1,0],[0,1]]"]) == 0
    assert "tau = (0,0)" in capsys.readouterr().out


def test_dcosets_command(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(GL2_Q2, level=0))
    assert main(["--config", cfg, "dcosets", "[[2,0],[0,1]]"]) == 0
    assert "degree deg(t_g) = 3" in capsys.readouterr().out


def test_convolve_unit(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main([
        "--config", cfg, "convolve",
        '{"terms":[{"tau":[0,0]}]}', '{"terms":[{"tau":[1,0]}]}',
    ]) == 0
    out = capsys.readouterr().out
    assert "tau=(1,0)" in out
    assert "degree check" in out


def test_convolve_spherical_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(GL2_Q2, level=0, window=2))
    assert main([
        "--config", cfg, "convolve",
        '{"terms":[{"tau":[1,0]}]}', '{"terms":[{"tau":[1,0]}]}',
    ]) == 0
    out = capsys.readouterr().out
    assert "tau=(2,0)" in out and "tau=(1,1)" in out
    assert "coeff 3" in out
    assert "sum c_x deg(x) = 9, deg(g)*deg(h) = 9" in out


def test_orbits_command(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    assert main(["--config", cfg, "orbits", "1,-1"]) == 0
    assert "|X_tau| = 9, |Gamma_tau| = 4" in capsys.readouterr().out


def test_orbits_command_sl3_over_q3(tmp_path, capsys):
    # |K/K_1| = |SL3(F_3)| = 5,616: its 3.2e7 pairs exceed the default budget,
    # its move table does not
    cfg = write_config(tmp_path, {
        "field": {"kind": "mixed", "p": 3},
        "group": {"family": "SL", "n": 3},
        "level": 1,
        "window": 1,
        "seed": 11,
    })
    assert main(["--config", cfg, "orbits", "1,0,-1"]) == 0
    out = capsys.readouterr().out
    assert "|X_tau| = 10816, |Gamma_tau| = 2916, |K/K_m|^2 = 31539456" in out
    assert 31539456 > DEFAULT_BUDGET


def test_orbits_command_large_cocharacter(tmp_path, capsys):
    # pi^1000 and pi^-1000 are formed in closed form, not by recursion
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "orbits", "1000,-1000"]) == 0
    captured = capsys.readouterr()
    assert "tau=(1000,-1000)" in captured.out
    assert "Traceback" not in captured.err


def test_orbits_command_huge_cocharacter_is_fast(tmp_path, capsys):
    # Gamma_tau needs pi^0 .. pi^m in o/pi^m only, whatever the spread
    cfg = write_config(tmp_path, GL2_Q2)
    t0 = time.process_time()
    assert main(["--config", cfg, "orbits", "1000000,-1000000"]) == 0
    assert time.process_time() - t0 < 1
    assert "|X_tau| = 9, |Gamma_tau| = 4" in capsys.readouterr().out


def test_transport_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "field": {"kind": "mixed", "p": 2, "e": 4},
        "field2": {"kind": "equal", "p": 2},
        "closeness": 4,
        "group": {"family": "GL", "n": 2},
        "level": 1,
        "window": 1,
    })
    assert main(["--config", cfg, "transport", '[["pi","0"],["0","1"]]']) == 0
    out = capsys.readouterr().out
    assert "g' = [t, 0; 0, 1]" in out


def test_verify_identity_pair_exit_zero(tmp_path):
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    out = tmp_path / "report.json"
    assert main(["--config", cfg, "--out", str(out), "verify", "--suite", "all"]) == 0
    report = json.loads(out.read_text())
    assert report["success"] is True
    assert report["suites"]["kazhdan"]["pairs_equal"] == \
        report["suites"]["kazhdan"]["pairs_checked"]


def test_verify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--config", cfg, "--out", str(out1), "verify", "--suite", "field"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "verify", "--suite", "field"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_emission(tmp_path):
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    out = tmp_path / "r.json"
    csv = tmp_path / "sc.csv"
    assert main([
        "--config", cfg, "--out", str(out), "--csv", str(csv),
        "verify", "--suite", "kazhdan",
    ]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "g,h,x,c,x_transported,c_transported"
    assert len(lines) > 1


def test_flagship_verify_runs_few_extended_gcds(tmp_path, monkeypatch):
    # only pivots that divide something and non-rational elements are
    # inverted by the integer solve: 62 calls at seed 7 (304 when every
    # pivot and every rational went through an extended gcd)
    cfg = write_config(tmp_path, {
        "field": {"kind": "mixed", "p": 2, "e": 5},
        "field2": {"kind": "equal", "p": 2},
        "closeness": 5,
        "group": {"family": "SL", "n": 2},
        "level": 1,
        "window": 1,
        "seed": 7,
    })
    calls = []
    solve = localfield.bareiss_solve
    monkeypatch.setattr(localfield, "bareiss_solve", lambda *a: calls.append(1) or solve(*a))
    assert main([
        "--config", cfg, "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "sc.csv"),
        "verify", "--suite", "all",
    ]) == 0
    assert 0 < len(calls) <= 70


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# sha256 of the labels of the coset-tables benchmark configurations, as
# recorded at commit 26be8a3 (orbit tables by a sweep of (K/K_m)^2): one
# line per tau of the window, f"{tau} {degree} {orbit_count} {gamma_size} "
# and the labels, lines joined by "\n".  SL2 over Q_2 and over F_2((t))
# agree, as both residue rings are F_2.
LABEL_DIGESTS = [
    ("SL", 3, localfield.FieldModel.mixed(2), 1, 1,
     "9770463f7382ba74059774213b21668ae4c8315f716722499d08a9c01c4fcca4"),
    ("GL", 2, localfield.FieldModel.mixed(2), 0, 2,
     "926d35f5da9997b8b0626790dfcab11ba090758cb293766a4b8250f944718661"),
    ("GL", 2, localfield.FieldModel.mixed(3), 1, 1,
     "758710bc80db46d7886a38d59100fecdac5de912930d0c00c899b1a18c0b59a4"),
    ("SL", 2, localfield.FieldModel.equal(2), 1, 2,
     "6da10a84257b8087c946cf8d2cca258be7ca47bcdc8863360eeaaf8865f86508"),
    ("SL", 2, localfield.FieldModel.mixed(2), 1, 2,
     "6da10a84257b8087c946cf8d2cca258be7ca47bcdc8863360eeaaf8865f86508"),
]
EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "expected.json"


def test_label_and_flagship_bytes_are_pinned(tmp_path):
    for family, n, model, m, bound, digest in LABEL_DIGESTS:
        algebra = hecke.HeckeAlgebra(GroupSpec(family, n, model), m)
        lines = []
        for tau in dominant_window(family, n, bound):
            table = algebra.orbit_table(tau)
            lines.append(f"{tau} {algebra.degree(tau)} {table.orbit_count} {table.gamma_size} "
                         + " ".join(str(label) for label in table.labels))
        assert sha256("\n".join(lines)) == digest, (family, n, str(model), m)
    # the flagship verify --suite all: report (without its seed lines) and CSV
    expected = json.loads(EXPECTED.read_text())["cli-verify"]
    cfg = write_config(tmp_path, {
        "field": {"kind": "mixed", "p": 2, "e": 5},
        "field2": {"kind": "equal", "p": 2},
        "closeness": 5,
        "group": {"family": "SL", "n": 2},
        "level": 1,
        "window": 1,
        "seed": 7,
    })
    report, csv = tmp_path / "r.json", tmp_path / "sc.csv"
    assert main(["--config", cfg, "--out", str(report), "--csv", str(csv),
                 "verify", "--suite", "all"]) == 0
    seedless = re.sub(rb'^ *"seed": -?\d+,?\n', b"", report.read_bytes(), flags=re.MULTILINE)
    assert sha256(seedless) == expected["report_sha256"]
    assert sha256(csv.read_bytes()) == expected["csv_sha256"]


def count_algebras(monkeypatch):
    built = []
    init = hecke.HeckeAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hecke.HeckeAlgebra, "__init__", counting_init)
    return built


def test_verify_all_csv_builds_one_algebra_per_side(tmp_path, monkeypatch):
    # the suites and the CSV share one transport context
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    csv = tmp_path / "sc.csv"
    built = count_algebras(monkeypatch)
    assert main([
        "--config", cfg, "--out", str(tmp_path / "r.json"), "--csv", str(csv),
        "verify", "--suite", "all",
    ]) == 0
    assert len(built) == 2
    fresh = RunConfig.from_dict(SMALL_IDENTITY).transport_context()
    assert csv.read_text() == kazhdan.structure_constants_csv(fresh)


def test_verify_csv_without_field2_builds_one_algebra(tmp_path, monkeypatch):
    config = dict(GL2_Q2, window=0)
    cfg = write_config(tmp_path, config)
    csv = tmp_path / "sc.csv"
    built = count_algebras(monkeypatch)
    assert main([
        "--config", cfg, "--out", str(tmp_path / "r.json"), "--csv", str(csv),
        "verify", "--suite", "hecke",
    ]) == 0
    assert len(built) == 1
    run = RunConfig.from_dict(config)
    fresh = hecke.HeckeAlgebra(run.spec(), run.level, run.budget)
    assert csv.read_text() == hecke.structure_constants_csv(fresh, run.window)


def test_hecke_suite_builds_its_own_algebra_when_given_none(monkeypatch):
    # benchmark/config_seeds.py calls the suite as _suite_hecke(cfg, rng, failures)
    run = RunConfig.from_dict(SMALL_IDENTITY)
    built = count_algebras(monkeypatch)
    failures = []
    report = cli._suite_hecke(run, random.Random(run.seed), failures)
    assert len(built) == 1
    assert report["checks"] and failures == []


def test_verify_field_suite_needs_no_transport_context(tmp_path):
    # level 0 admits no transport context; the field suite does not build one
    cfg = write_config(tmp_path, dict(SMALL_IDENTITY, level=0))
    assert main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                 "verify", "--suite", "field"]) == 0


def test_verify_hecke_suite_at_level_0(tmp_path):
    # in the spherical algebra t_(n_tau1) * t_(n_tau2) has lower terms
    cfg = write_config(tmp_path, dict(SMALL_IDENTITY, level=0))
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "--out", str(out), "verify", "--suite", "hecke"]) == 0
    checks = json.loads(out.read_text())["suites"]["hecke"]["checks"]
    assert {"name": "t_(n_tau1) * t_(n_tau2) = t_(n_tau1+tau2) + lower terms",
            "ok": True} in checks


def test_undersized_closeness_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL_IDENTITY, closeness=2))
    code = main(["--config", cfg, "verify", "--suite", "kazhdan"])
    assert code == 2
    assert "InsufficientCloseness" in capsys.readouterr().err


def test_config_rejection_is_fast_and_precise():
    t0 = time.time()
    with pytest.raises(InvalidConfig, match="SL needs n >= 2"):
        RunConfig.from_dict({
            "field": {"kind": "mixed", "p": 2},
            "group": {"family": "SL", "n": 1},
        })
    with pytest.raises(InvalidConfig, match="field.kind"):
        RunConfig.from_dict({"field": {"kind": "padic", "p": 2}})
    with pytest.raises(IncompatiblePair):
        RunConfig.from_dict({
            "field": {"kind": "mixed", "p": 2, "e": 1},
            "field2": {"kind": "equal", "p": 2},
            "closeness": 3,
        })
    assert time.time() - t0 < 0.1


GL1_Q2 = dict(GL2_Q2, group={"family": "GL", "n": 1})
TAU_SQUARED = ["convolve", '{"terms":[{"tau":[1,0]}]}', '{"terms":[{"tau":[1,0]}]}']
Q2_IDENTITY = dict(GL2_Q2, field2=GL2_Q2["field"], closeness=5)


@pytest.mark.parametrize("config, argv", [
    pytest.param(dict(GL1_Q2, level=1e9, budget=100),
                 ["convolve", '{"terms":[{"tau":[0]}]}', '{"terms":[]}'], id="level"),
    pytest.param(dict(GL2_Q2, window=10**6), ["verify", "--suite", "hecke"], id="window"),
    pytest.param(dict(GL2_Q2, window=10**6), ["--csv", "sc.csv", "verify", "--suite", "field"],
                 id="window-csv"),
    pytest.param(dict(Q2_IDENTITY, closeness=10**9), ["verify", "--suite", "field"],
                 id="closeness"),
    pytest.param(dict(GL2_Q2, level=0),
                 ["convolve", '{"terms":[{"tau":[1000000,0]}]}', '{"terms":[{"tau":[1,0]}]}'],
                 id="spherical-cosets"),
    pytest.param(dict(GL2_Q2, field={"kind": "mixed", "p": 2, "e": 10**9}),
                 ["cartan", "[[1,0],[0,1]]"], id="e"),
    pytest.param(dict(GL2_Q2, field={"kind": "mixed", "p": 2, "e": 1000}, level=0),
                 ["verify", "--suite", "field"], id="e-cubed"),
    pytest.param(dict(GL2_Q2, field={"kind": "equal", "p": 2, "f": 10**9}),
                 ["cartan", "[[1,0],[0,1]]"], id="f"),
    pytest.param(dict(GL2_Q2, field={"kind": "mixed", "p": 10**30 + 57}),
                 ["cartan", "[[1,0],[0,1]]"], id="p"),
    pytest.param(dict(GL2_Q2, ring="Z/3^100000"), TAU_SQUARED, id="ring-modulus"),
    pytest.param(dict(GL2_Q2, ring="Z/3^10000000"), TAU_SQUARED, id="ring-exponent"),
    pytest.param(dict(GL2_Q2, ring="F100000000000031"), TAU_SQUARED, id="ring-prime"),
    pytest.param(dict(GL2_Q2, ring="Q@100000000000031"), TAU_SQUARED, id="ring-localization"),
])
def test_huge_sizes_are_refused_at_once(tmp_path, monkeypatch, capsys, config, argv):
    # refused by comparing exponents, before any ring or window is built
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, config)
    t0 = time.process_time()
    assert main(["--config", cfg] + argv) == 2
    assert time.process_time() - t0 < 1
    assert "error [BudgetExceeded]" in capsys.readouterr().err


def test_small_mixed_field_fits_the_budget(tmp_path, capsys):
    # e^3 = 125 of the default budget: the field suite runs as before
    cfg = write_config(tmp_path, dict(GL2_Q2, field={"kind": "mixed", "p": 2, "e": 5}, level=0))
    assert main(["--config", cfg, "verify", "--suite", "field"]) == 0
    assert "error" not in capsys.readouterr().err


def test_field_suite_at_a_deep_level_is_not_refused(tmp_path, capsys):
    # K/K_30 of GL2/Q_2 is charged q^(m n^2) = 2^120 and refused, but only
    # the hecke suite and the CSV build it: the field suite alone runs
    cfg = write_config(tmp_path, dict(GL2_Q2, level=30))
    assert main(["--config", cfg, "verify", "--suite", "field"]) == 0
    assert "error" not in capsys.readouterr().err
    assert main(["--config", cfg, "verify", "--suite", "hecke"]) == 2
    assert "error [BudgetExceeded]: enumeration of 2^120 elements" in capsys.readouterr().err


def test_windowed_pairs_are_charged(tmp_path, capsys):
    # GL1 has one label per cocharacter: 201 fit the budget, their 201^2
    # products do not
    cfg = write_config(tmp_path, dict(GL1_Q2, level=0, window=100, budget=1000))
    assert main(["--config", cfg, "verify", "--suite", "hecke"]) == 2
    assert "error [BudgetExceeded]" in capsys.readouterr().err


@pytest.mark.parametrize("text, ring", [
    ("Z/1000003", IntegersMod(1000003, 1)),
    ("Z/10000019", IntegersMod(10000019, 1)),
    ("Z/1024", IntegersMod(2, 10)),
    ("Z/9", IntegersMod(3, 2)),
])
def test_parse_ring_prime_power_modulus(text, ring):
    t0 = time.process_time()
    assert parse_ring(text, 10**8) == ring
    assert time.process_time() - t0 < 0.1


@pytest.mark.parametrize("text", ["Z/12", "Z/1", "Z/0"])
def test_parse_ring_rejects_non_prime_power(text):
    with pytest.raises(ParseError):
        parse_ring(text, DEFAULT_BUDGET)


@pytest.mark.parametrize("text, ring, name", [
    ("Z", ZZ, "Z"),
    ("Q", QQ, "Q"),
    ("Q@3", RationalField(3), "Q(loc 3)"),
    ("F2", PrimeField(2), "F2"),
    ("F7", PrimeField(7), "F7"),
    ("Z/3", IntegersMod(3, 1), "Z/3"),
    ("Z/3^2", IntegersMod(3, 2), "Z/9"),
])
def test_parse_ring_results_and_names(text, ring, name):
    parsed = parse_ring(text, DEFAULT_BUDGET)
    assert parsed == ring and type(parsed) is type(ring)
    assert str(parsed) == parsed.name == name
    assert parsed.residue_char == getattr(ring, "l", None)


@pytest.mark.parametrize("text", ["Z/1000003", "Z/2^20", "F1000003"])
def test_ring_larger_than_the_budget_needs_a_larger_budget(text):
    # a ring of l^k elements is charged l^k
    with pytest.raises(BudgetExceeded):
        parse_ring(text, DEFAULT_BUDGET)
    assert parse_ring(text, 10**8).residue_char is not None


def test_prime_field_is_not_integers_mod():
    # F_l and Z/l have the same arithmetic but are different rings
    f3, z3 = PrimeField(3), IntegersMod(3)
    assert f3 != z3 and z3 != f3
    assert f3 == PrimeField(3) and hash(f3) == hash(PrimeField(3))
    assert (f3.from_int(-4), f3.mul(2, 2), f3.add(2, 2), f3.neg(1)) == (2, 1, 1, 2)
    assert (f3.zero, f3.one, f3.coeff_str(5)) == (0, 1, "2")
    assert f3.is_zero(3) and not f3.is_zero(1)
    with pytest.raises(ValueError):
        PrimeField(4)


def test_bad_matrix_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "cartan", "not json"]) == 2
    assert "ParseError" in capsys.readouterr().err


SL2_Q2 = dict(GL2_Q2, group={"family": "SL", "n": 2})


@pytest.mark.parametrize("config, argv, error", [
    pytest.param(SL2_Q2, ["orbits", "a,b"], "ParseError", id="orbits-not-integers"),
    pytest.param(SL2_Q2, ["orbits", "1,0"], "SLTraceNonzero", id="orbits-sl-trace"),
    pytest.param(SL2_Q2, ["orbits", "1,0,-1"], "ParseError", id="orbits-wrong-length"),
    pytest.param(SL2_Q2, ["convolve", "{bad}", "{}"], "ParseError", id="convolve-bad-json"),
    pytest.param(dict(SL2_Q2, ring="F4"), ["orbits", "1,-1"], "InvalidConfig",
                 id="ring-not-prime"),
    pytest.param(GL2_Q2, ["cartan", "[[1]]"], "ParseError", id="matrix-wrong-shape"),
    pytest.param(dict(SMALL_IDENTITY, level=0), ["verify", "--suite", "kazhdan"],
                 "InvalidConfig", id="verify-transport-level-0"),
    pytest.param(dict(SMALL_IDENTITY, level=0), ["transport", "[[1,0],[0,1]]"],
                 "InvalidConfig", id="transport-level-0"),
    pytest.param(dict(GL2_Q2, field="Q_2"), ["cartan", "[[1,0],[0,1]]"], "InvalidConfig",
                 id="field-not-an-object"),
    pytest.param(dict(GL2_Q2, group=[]), ["cartan", "[[1,0],[0,1]]"], "InvalidConfig",
                 id="group-not-an-object"),
    pytest.param(dict(GL2_Q2, group={"family": "GL", "n": None}), ["cartan", "[[1,0],[0,1]]"],
                 "InvalidConfig", id="n-null"),
    pytest.param(dict(GL2_Q2, level=None), ["cartan", "[[1,0],[0,1]]"], "InvalidConfig",
                 id="level-null"),
    pytest.param(dict(GL2_Q2, seed=None), ["cartan", "[[1,0],[0,1]]"], "InvalidConfig",
                 id="seed-null"),
    pytest.param(dict(GL2_Q2, group={"family": "GL", "n": 1.7}), ["cartan", "[[1,0],[0,1]]"],
                 "InvalidConfig", id="n-fractional"),
])
def test_bad_input_is_typed_error(tmp_path, capsys, config, argv, error):
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg] + argv) == 2
    assert f"error [{error}]" in capsys.readouterr().err


GL2_F3 = dict(GL2_Q2, field={"kind": "equal", "p": 3})


@pytest.mark.parametrize("config, entry, code, error", [
    pytest.param(GL2_Q2, "1/0", 2, "ParseError", id="mixed-1/0"),
    pytest.param(GL2_Q2, "0/0", 2, "ParseError", id="mixed-0/0"),
    pytest.param(GL2_Q2, "1/0*pi", 2, "ParseError", id="mixed-1/0*pi"),
    pytest.param(GL2_Q2, "1" * 4301, 2, "ParseError", id="mixed-4301-digits"),
    pytest.param(GL2_F3, "1/0*t", 2, "ParseError", id="equal-1/0*t"),
    pytest.param(GL2_F3, "(1)/(0)", 2, "ParseError", id="equal-zero-denominator"),
    pytest.param(GL2_F3, "1" * 4301 + "*t", 2, "ParseError", id="equal-4301-digits"),
    pytest.param(GL2_F3, "1/3*t", 2, "ParseError", id="equal-denominator-of-p"),
    pytest.param(GL2_F3, "t^99999999999999999999", 2, "BudgetExceeded", id="equal-t^(10^20)"),
    pytest.param(dict(GL2_F3, budget=1000), "t^5000", 2, "BudgetExceeded",
                 id="equal-t^5000-budget-1000"),
    pytest.param(GL2_F3, "1/2*t", 0, None, id="equal-p-integral-fraction"),
])
def test_malformed_element_is_typed(tmp_path, capsys, config, entry, code, error):
    # a malformed entry ends in a typed error and exit 2, never a traceback;
    # a t^k term is charged to the budget before its k + 1 coefficients are
    # built, and 1/2 over F_3 is 2, as from_fraction reads it
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg, "cartan", json.dumps([[1, 0], [0, entry]])]) == code
    captured = capsys.readouterr()
    if error is None:
        assert main(["--config", cfg, "cartan", json.dumps([[1, 0], [0, "2*t"]])]) == 0
        assert captured.out == capsys.readouterr().out
    else:
        assert f"error [{error}]" in captured.err


def test_unreadable_config_is_typed_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{bad")
    assert main(["--config", str(path), "orbits", "1,-1"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_is_typed_error(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, SMALL_IDENTITY)
    target = str(tmp_path / "missing" / "file")
    assert main(["--config", cfg, flag, target, "verify", "--suite", "field"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_config_path_with_nul_is_typed_error(capsys):
    assert main(["--config", "cfg\0.json", "orbits", "1,-1"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_singular_matrix_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, GL2_Q2)
    assert main(["--config", cfg, "cartan", "[[1,1],[1,1]]"]) == 2
    assert "Singular" in capsys.readouterr().err
