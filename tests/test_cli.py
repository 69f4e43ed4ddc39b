import cmath
import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import friedzeta
from friedzeta import (
    ComplexLengthRecord,
    CycleZeta,
    DynamicalDeterminant,
    OrbitRecord,
    TruncationPolicy,
    ValidationError,
    cycle_zeta,
    fried_check,
    read_orbit_dump,
    read_spectrum,
    write_spectrum,
)
from friedzeta import cli, config, continuation, kleinian, toral, torsion, variation, zetas
from friedzeta._record import fields
from friedzeta.cli import _COMMANDS, _KNOWN_KEYS, _flag_keys, _jsonify, _parse, main
from friedzeta.config import RunConfig
from friedzeta.continuation import toral_log_zetas
from friedzeta.toral import orbit_table

import euler_oracle
from dump_oracle import read_lines_dump, read_records_dump

CAT_SETTINGS = [
    "model.matrix=2 1 1 1",
    "model.roof=const:1.0",
    "rep.u_fraction=0.5",
]
# the two generators of a rank-2 Schottky group
SCHOTTKY_GENERATORS = ("3 0 0 0 0 0 0.3333333333333333 0;"
                       "1.6666666666666667 0 1.3333333333333333 0 1.3333333333333333 0 1.6666666666666667 0")


# variation whose orbit sum overflows though every length is finite; zeta-continue whose zeta underflows
VARIATION_OVERFLOW = ["model.matrix=2 1 1 1", "model.roof=const:1e308", "model.time_change=const:1",
                      "policy.n_max=1", "tau.grid=0.5", "policy.entropy=1"]
CONTINUE_UNDERFLOW = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.05", "policy.n_max=10",
                      "lambda.grid=-45"]


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


def run(command, *settings, out=None, csv=None):
    argv = [command]
    for s in settings:
        argv += ["--set", s]
    if out:
        argv += ["--out", str(out)]
    if csv:
        argv += ["--csv", str(csv)]
    return main(argv)


class TestOrbitsCommand:
    def test_cat_n3_writes_eight_orbits(self, tmp_path, capsys):
        out = tmp_path / "orbits.txt"
        code = run("orbits", *CAT_SETTINGS, "policy.n_max=3", out=out)
        assert code == 0
        records = read_orbit_dump(out)
        assert len(records) == 8  # 1 + 2 + 5
        assert json.loads(capsys.readouterr().out)["results"]["count"] == 8

    def test_non_anosov_exit_1(self, tmp_path):
        code = run("orbits", "model.matrix=1 1 0 1", "policy.n_max=2", out=tmp_path / "x.txt")
        assert code == 1

    def test_missing_model_exit_1(self, tmp_path):
        assert run("orbits", out=tmp_path / "x.txt") == 1

    def test_no_command_usage_error(self):
        assert main([]) == 1


class TestZetaEval:
    def test_grid_matches_library(self, tmp_path, capsys):
        csv = tmp_path / "grid.csv"
        code = run(
            "zeta-eval", *CAT_SETTINGS, "policy.n_max=8", "lambda.grid=4,5", csv=csv
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["results"]["rows"]
        ruelle_rows = [r for r in rows if r["zeta_kind"] == "ruelle"]
        assert len(ruelle_rows) == 2
        from friedzeta import Character, orbit_records, SuspensionModel, ToralAutomorphism, TrigPolynomial

        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial.const(1.0))
        pol = TruncationPolicy(max_period=8, entropy=model.default_entropy())
        recs = orbit_records(model, 8)
        rep = Character.from_angle_fraction(0.5)
        for lam in (4.0, 5.0):
            values = toral_log_zetas(model, rep, [lam], pol)[0]
            got = [r for r in rows if r["lambda_re"] == lam]
            assert [r["zeta_kind"] for r in got] == ["ruelle", "graded0", "graded1", "graded2"]
            for row, zv in zip(got, values):
                assert complex(row["log_value_re"], row["log_value_im"]) == zv.log_value
                assert (row["tail_bound"], row["tail_kind"], row["n_used"]) == (zv.tail_bound, "certified", zv.n_used)
            # the product over j <= j_max of every orbit to period 8 differs from the series by cells past its depth
            direct, _ = euler_oracle.ruelle(euler_oracle.records_columns(recs, rep), lam, pol)
            assert abs(values[0].log_value - direct.log_value) <= values[0].tail_bound + direct.tail_bound
        header = csv.read_text().splitlines()[0]
        assert header == "lambda_re,lambda_im,log_zeta_re,log_zeta_im,tail"

    def test_lambda_zero_without_flag_exit_2(self, tmp_path):
        assert run("zeta-eval", *CAT_SETTINGS, "lambda.grid=0") == 2

    def test_lambda_zero_with_flag(self, tmp_path, capsys):
        code = main(
            ["zeta-eval", "--allow-formal"]
            + sum((["--set", s] for s in CAT_SETTINGS + ["lambda.grid=0", "policy.n_max=4"]), [])
        )
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value, code", [("false", 2), ("0", 2), ("true", 0), ("1", 0), (None, 2)])
    def test_allow_formal_is_a_boolean(self, value, code, capsys):
        setting = [] if value is None else [f"zeta.allow_formal={value}"]
        assert run("zeta-eval", "model.matrix=2 1 1 1", "policy.n_max=4", "lambda.grid=0.5", *setting) == code
        err = capsys.readouterr().err
        assert err.startswith("error: Re(lambda)=0.5 outside convergence region") if code else err == ""

    @pytest.mark.parametrize("flag", [[], ["--allow-formal"]])
    @pytest.mark.parametrize("value", ["yes", "False", "", "2"])
    def test_allow_formal_other_values_are_refused(self, value, flag, capsys):
        # the flag is zeta.allow_formal=true, applied after --set: it replaces the value set there
        argv = ["zeta-eval", *flag, "--set", "model.matrix=2 1 1 1", "--set", "policy.n_max=4",
                "--set", "lambda.grid=0.5", "--set", f"zeta.allow_formal={value}"]
        if flag:
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["config"]["zeta.allow_formal"] == "true"
            return
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: zeta.allow_formal = {value!r} is not a boolean: true, false, 1 or 0\n")

    def test_default_entropy_taken_at_tau(self, capsys):
        # the certified entropy at tau = 1.5 is 3.85; at tau = 0 it would be 0.962
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1", "model.time_change=cos:1,0:0.5",
                    "tau.value=1.5", "lambda.grid=1"]
        assert run("zeta-eval", *settings) == 2
        assert capsys.readouterr().err.startswith("error: Re(lambda)=1.0 outside convergence region")
        assert main(["zeta-eval", "--allow-formal"] + sum((["--set", s] for s in settings), [])) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        entropy = RunConfig.load(None, settings).model().default_entropy(1.5)
        assert entropy > 3.8
        assert [r["policy"]["entropy"] for r in rows] == [entropy] * len(rows)

    def test_single_orbit_spectrum_hand_sum(self, tmp_path, capsys):
        spec = tmp_path / "one.txt"
        write_spectrum(spec, [ComplexLengthRecord(length=1.0, theta=0.0)])
        code = run(
            "zeta-eval",
            f"io.spectrum={spec}",
            "lambda.grid=3.0",
            "policy.j_max=60",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        row = [r for r in payload["results"]["rows"] if r["zeta_kind"] == "ruelle"][0]
        assert row["log_value_re"] == pytest.approx(math.log(1 - math.exp(-3.0)), rel=1e-12)

    def test_tiny_spectrum_length_exits_with_an_error_line(self, tmp_path, capsys):
        # the Ruelle tail's rate exp(-(3 - 2) * 1e-17) rounds to 1; the graded products then leave floating point
        spec = tmp_path / "tiny.txt"
        write_spectrum(spec, [ComplexLengthRecord(length=1e-17, theta=0.0), ComplexLengthRecord(length=1.0, theta=0.0)])
        assert run("zeta-eval", f"io.spectrum={spec}", "lambda.grid=3") == 2
        assert capsys.readouterr().err.startswith("error: Euler product at lambda=(3+0j) leaves floating point")


ZETA_ROW_KEYS = {"zeta_kind", "lambda_re", "lambda_im", "log_value_re", "log_value_im",
                 "tail_bound", "tail_kind", "policy", "n_used", "warnings"}
CONTINUE_ROW_KEYS = {"zeta_kind", "lambda_re", "lambda_im", "log_value_re", "log_value_im",
                     "tail_bound", "tail_kind", "d_values", "reliable", "policy", "n_used", "warnings"}


@pytest.mark.parametrize("command, source, keys, policy", [
    ("zeta-eval", "model", ZETA_ROW_KEYS, {"max_period", "entropy", "tail_tol"}),
    ("zeta-eval", "io.orbits", ZETA_ROW_KEYS, {"max_period", "entropy"}),
    ("zeta-eval", "io.spectrum", ZETA_ROW_KEYS - {"n_used"}, {"j_max", "entropy", "tail_tol"}),
    ("zeta-continue", "model", CONTINUE_ROW_KEYS, {"max_period", "tail_tol"}),
])
def test_zeta_row_schema(command, source, keys, policy, tmp_path, capsys):
    # a row's policy holds the fields its command and source read: the model and a dump sum their cells p j <= n_max
    # (the model to the depth tail_tol sets), a kleinian file every j <= j_max of its rows, and zeta-continue reads
    # its coefficients to n_max or tail_tol
    settings, path = [*CAT_SETTINGS, "policy.n_max=6"], tmp_path / "source.txt"
    if source == "io.orbits":
        assert run("orbits", *settings, out=path) == 0
        settings = [f"io.orbits={path}", "policy.entropy=1.0"]
    elif source == "io.spectrum":
        write_spectrum(path, kleinian.synthetic_spectrum(2.0, 20, 7))
        settings = [f"io.spectrum={path}"]
    capsys.readouterr()
    assert run(command, *settings, "lambda.grid=4,5") == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert rows
    for row in rows:
        assert set(row) == keys and set(row["policy"]) == policy
        assert row["tail_kind"] == ("certified" if (command, source) == ("zeta-eval", "model") else "heuristic")


@pytest.mark.parametrize("unwritable, reason", [("io.csv", "Is a directory"), ("io.report", "Is a directory"),
                                                ("io.csv", "No such file or directory"),
                                                ("io.report", "No such file or directory")])
def test_an_output_that_cannot_be_written_leaves_none(unwritable, reason, tmp_path, capsys):
    # every output is opened before any is written, so exit 1 comes with its one error line and no file
    paths = {"io.csv": tmp_path / "out.csv", "io.report": tmp_path / "report.json"}
    bad = tmp_path if reason == "Is a directory" else tmp_path / "missing" / "out.txt"
    settings = [f"{key}={bad if key == unwritable else path}" for key, path in paths.items()]
    assert run("zeta-continue", *CAT_SETTINGS, "policy.n_max=4", "lambda.grid=4", *settings) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bad}: {reason}\n"
    assert not any(path.exists() for path in paths.values())
    # the CSV alone, with the report printed: nothing printed
    assert run("zeta-continue", *CAT_SETTINGS, "policy.n_max=4", "lambda.grid=4", f"io.csv={bad}") == 1
    assert capsys.readouterr().out == ""


def test_rows_without_a_bound_run_to_n_max(capsys):
    # q = lam_u exp(-Re(lambda) r_min) >= 1 at lambda = 0.8 under a low entropy, and at lambda = -0.5 under
    # --allow-formal: those rows read to n_max with a finite heuristic tail, and the report holds no Infinity
    assert run("zeta-eval", *CAT_SETTINGS, "policy.n_max=6", "policy.entropy=0.1", "lambda.grid=0.8,4") == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["results"]["rows"]
    assert [(r["lambda_re"], r["tail_kind"]) for r in rows] == [(0.8, "heuristic")] * 4 + [(4.0, "certified")] * 4
    assert all(r["n_used"] == 6 and 0 < r["tail_bound"] for r in rows[:4])
    assert main(["zeta-eval", "--allow-formal", *(a for s in [*CAT_SETTINGS, "policy.n_max=6", "lambda.grid=-0.5"]
                                                   for a in ("--set", s))]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["results"]["rows"]
    assert all(r["tail_kind"] == "heuristic" and r["n_used"] == 6 for r in rows) and len(rows) == 4


def test_zeta_eval_builds_its_table_once_to_the_deepest_row(calls, capsys):
    # a roof no other test uses, so no table of this model is built yet
    builds = calls(toral, "_build_table")
    settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0417", "policy.n_max=12"]
    assert run("zeta-eval", *settings, "lambda.grid=4,5,6.5") == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    deepest = max(r["n_used"] for r in rows)
    assert deepest < 12 and [(n_max, shallower) for _, n_max, shallower in builds] == [(deepest, None)]


def test_variation_builds_no_period_twice(calls, capsys):
    builds = calls(toral, "_build_table")
    settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0419", "model.time_change=cos:1,0:0.05",
                "policy.n_max=9", "tau.grid=0.05,0.1,0.15"]
    assert run("variation", *settings) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == 3
    assert [(n_max, shallower) for _, n_max, shallower in builds] == [(9, None)]


class TestFriedCheckCommand:
    def test_exact_case_deviation_zero(self, tmp_path, capsys):
        csv = tmp_path / "fried.csv"
        code = run(
            "fried-check", *CAT_SETTINGS, "policy.n_max=12", "tau.grid=0.0", csv=csv
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["max_deviation"] < 1e-12
        assert not payload["results"]["tolerance_exceeded"]
        assert csv.read_text().startswith("tau,zeta_modulus,deviation\n")

    def test_trivial_character_exit_2(self):
        assert run("fried-check", "model.matrix=2 1 1 1", "rep.u_fraction=0.0") == 2

    def test_perturbed_sweep(self, tmp_path, capsys):
        code = run(
            "fried-check",
            "model.matrix=2 1 1 1",
            "model.roof=const:1.0",
            "model.time_change=cos:1,0:0.05",
            "rep.u_fraction=0.5",
            "policy.n_max=10",
            "tau.grid=0:0.02:6",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["max_deviation"] < 1e-6
        assert len(payload["results"]["rows"]) == 6

    def test_rows_compare_complex_values(self, capsys):
        # det A = -1 and u = exp(0.6 pi i): zeta(0) and the torsion are 1 - 0.5257i, not real
        assert run("fried-check", "model.matrix=1 1 1 0", "model.roof=const:1 cos:1,0:0.05",
                   "rep.u_fraction=0.3", "policy.n_max=14") == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]["rows"]
        zeta, torsion = (complex(row[key]["re"], row[key]["im"]) for key in ("zeta_value", "torsion_value"))
        assert abs(zeta) == pytest.approx(row["zeta_modulus"], rel=1e-15)
        assert abs(torsion) == pytest.approx(row["torsion_modulus"], rel=1e-15)
        assert torsion == pytest.approx(1 - 0.5257311121191336j, rel=1e-12)
        assert row["phase_deviation"] == pytest.approx(abs(cmath.phase(torsion / zeta)), abs=1e-16)
        assert row["phase_deviation"] < 1e-12 and row["deviation"] < 1e-12

    def test_fiber_twist_has_torsion_one(self, tmp_path, capsys):
        # a fiber character makes the twisted complex acyclic: torsion 1, and zeta(0) = 1 with it
        csv = tmp_path / "fried.csv"
        assert run("fried-check", "model.matrix=3 2 1 1", "rep.u_fraction=0.5", "rep.fiber_exponents=0 1",
                   "policy.n_max=12", csv=csv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        (row,) = results["rows"]
        assert row["torsion_value"] == {"re": 1.0, "im": 0.0} and row["torsion_modulus"] == 1.0
        assert row["deviation"] <= 1e-12 and row["phase_deviation"] <= 1e-12
        assert not results["tolerance_exceeded"]
        assert csv.read_text().splitlines()[0] == "tau,zeta_modulus,deviation"

    def test_rows_are_per_tau_fried_checks(self, capsys):
        # a fiber twist and a time change: zeta(0) reads the orbit table, once for the whole grid
        settings = ["model.matrix=3 2 1 1", "model.roof=const:1 cos:1,0:0.05", "model.time_change=cos:0,1:0.04",
                    "rep.u_fraction=0.3", "rep.fiber_exponents=0 1", "policy.n_max=10", "tau.grid=0:0.05:4"]
        assert run("fried-check", *settings) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        rep = cfg.character(model.automorphism)
        taus = cfg.tau_grid(model)
        reports = [fried_check(model, rep, cfg.policy(model, tau), tau) for tau in taus]
        want = [{"tau": tau, **{key: getattr(fr, key) for key in rows[0] if key != "tau"}} for tau, fr in zip(taus, reports)]
        assert rows == json.loads(json.dumps(want, default=_jsonify)) and len(rows) == 4

    def test_length_out_of_range_at_one_tau_exits_as_that_tau_alone(self, capsys):
        # lengths near the float maximum: at tau = 1 the period-3 orbit lengths leave the float range, and
        # under a fiber twist zeta(0) reads them
        settings = ["model.matrix=3 2 1 1", "model.roof=const:4e307 cos:1,0:1e305", "model.time_change=const:1 cos:0,1:0.01",
                    "rep.u_fraction=0.5", "rep.fiber_exponents=0 1", "policy.n_max=3"]
        error = "error: orbit lengths at tau=1.0 exceed the floating-point range\n"
        for grid, code in (("0", 0), ("1", 2), ("0,0.25", 0), ("0,1,0.25", 2)):
            assert run("fried-check", *settings, f"tau.grid={grid}") == code
            assert capsys.readouterr().err == ("" if code == 0 else error)

    @pytest.mark.parametrize("tolerance", ["-1", "0", "-0"])
    def test_tolerance_must_be_positive(self, tolerance, capsys):
        assert run("fried-check", *CAT_SETTINGS, "policy.n_max=4", f"fried.tolerance={tolerance}") == 1
        assert capsys.readouterr().err == "error: fried.tolerance must be positive\n"

    def test_one_zeta_at_zero_and_one_torsion_per_command(self, calls, capsys):
        zeta, torsion_of = calls(torsion, "zeta_at_zero"), calls(torsion, "mapping_torus_torsion")
        assert run("fried-check", *CAT_SETTINGS, "model.time_change=cos:1,0:0.05", "policy.n_max=10",
                   "tau.grid=0:0.02:6") == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == 6
        assert (len(zeta), len(torsion_of)) == (1, 1)


class TestVariationCommand:
    def test_zero_time_change_ratios_one(self, capsys):
        code = run(
            "variation", *CAT_SETTINGS, "policy.n_max=6", "lambda.value=3.0", "tau.grid=0.0,0.05"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for row in payload["results"]["rows"]:
            assert abs(row["ratio"]["re"] - 1.0) < 1e-12

    def test_standard_family(self, capsys):
        code = run(
            "variation",
            "model.matrix=2 1 1 1",
            "model.roof=const:1.0",
            "model.time_change=cos:1,0:0.05",
            "rep.u_fraction=0.5",
            "policy.n_max=10",
            "lambda.value=3.0",
            "tau.grid=0.1",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["max_relative_error"] < 1e-6

    def test_inside_strip_exit_2(self):
        code = run(
            "variation", *CAT_SETTINGS, "policy.n_max=4", "lambda.value=0.5", "tau.grid=0.05",
            "model.time_change=cos:1,0:0.05",
        )
        assert code == 2

    @pytest.mark.parametrize("tau", ["0.5", "0"])
    def test_overflowing_orbit_sum_is_one_error_line(self, tau, capsys):
        # every length is finite (up to 1.5e308), so only the product with lambda overflows; at tau = 0
        # no orbit sum is taken and the direct quotient's Euler product raises the same line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("variation", *VARIATION_OVERFLOW, f"tau.grid={tau}") == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: Euler product at lambda=(3+0j) leaves floating point: overflow")
        assert err.count("\n") == 1


class TestLedgerCommand:
    def test_case_lists_and_formulas(self, capsys):
        code = run("ledger", "ledger.h0=1", "ledger.h1=3", "ledger.selberg_cases=2,2,1,0;4,2,2,3")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        results = payload["results"]
        assert results["condition_cases"]["k=1"] == [[1, 0, 0], [1, 0, 1]]
        assert results["multiplicities"]["2"] == 8
        assert [c["order"] for c in results["selberg_orders"]] == [0, 6]


class TestSpectrumGen:
    def test_synthetic_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run(
                "spectrum-gen", "spectrum.h=2.0", "spectrum.count=50", "spectrum.seed=9", out=path
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_schottky_round_trip(self, tmp_path, capsys):
        out = tmp_path / "schottky.txt"
        code = run(
            "spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}",
            "spectrum.l_max=3", out=out,
        )
        assert code == 0
        records = read_spectrum(out)
        assert records[0].length == pytest.approx(2 * math.log(3))
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["count"] == len(records)

    def test_min_gap_is_null_when_a_generator_fixes_infinity(self, tmp_path, capsys):
        # the first generator, diag(3, 1/3), fixes infinity and has no isometric circle
        assert run("spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}",
                   "spectrum.l_max=2", out=tmp_path / "s.txt") == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert payload["results"]["disc_separation"] == {"applicable": False, "separated": False, "min_gap": None}

    def test_counting_check(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run("spectrum-gen", "spectrum.h=2.0", "spectrum.count=300", "spectrum.seed=5", out=out) == 0
        records = read_spectrum(out)
        lengths = sorted(r.length for r in records)
        mid = lengths[len(lengths) // 2]
        counted = sum(1 for x in lengths if x <= mid)
        ideal = math.exp(2.0 * mid) / mid
        assert ideal / 2 <= counted <= 2 * ideal


class TestSelbergFactorizeCommand:
    def test_synthetic_defaults(self, tmp_path, capsys):
        csv = tmp_path / "fact.csv"
        code = run(
            "selberg-factorize",
            "spectrum.count=40",
            "spectrum.seed=7",
            "policy.j_max=4",
            "factorize.p_grid=10,20",
            csv=csv,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for k in (0, 1, 2):
            assert payload["results"][f"k={k}"]["max_rel_residual"] < 1e-10
        assert csv.read_text().startswith("k,p_max,max_rel_residual\n")

    def test_iterates_are_built_once_per_run(self, monkeypatch, capsys):
        # the check and the residual curve of every k read one set of kept arrays
        calls, kept = [], zetas._kept

        def counting(cols, name, key, build):
            return kept(cols, name, key, (lambda: calls.append(key) or build()) if name == "iterates" else build)

        monkeypatch.setattr(zetas, "_kept", counting)
        assert run("selberg-factorize", "spectrum.count=20", "factorize.k=0,1,2") == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestZetaContinue:
    def test_inside_strip_value(self, capsys):
        code = run("zeta-continue", *CAT_SETTINGS, "policy.n_max=12", "lambda.grid=0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["results"]["rows"][0]
        value = math.exp(row["log_value_re"])
        assert value == pytest.approx(1.25, rel=1e-10)
        assert row["reliable"]

    def test_rows_are_cycle_zeta(self, capsys):
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.05 sin:0,1:0.04",
                    "model.time_change=cos:1,1:0.03", "rep.u_fraction=0.5", "tau.value=0.1", "policy.n_max=10"]
        assert run("zeta-continue", *settings, "lambda.grid=0,0.4+0.3i,1.7") == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        rep, policy = cfg.character(model.automorphism), cfg.policy(model, 0.1)
        assert len(rows) == 3
        for row, lam in zip(rows, (0.0, 0.4 + 0.3j, 1.7)):
            z = cycle_zeta(model, rep, lam, policy, 0.1)
            assert (row["log_value_re"], row["log_value_im"]) == (z.log_value.real, z.log_value.imag)
            assert abs(z.log_value - cmath.log(z.value)) <= 1e-14 * max(1.0, abs(z.log_value))
            assert row["tail_bound"] == z.tail_bound
            assert row["d_values"] == [{"re": d.real, "im": d.imag} for d in z.d_values]

    def test_fiber_twist_row_matches_a_tight_tolerance(self, capsys):
        # odd coefficients vanish under the order-2 fiber character; the row once stopped at c_3
        settings = ["model.matrix=3 2 1 1", "model.roof=const:1 cos:1,0:0.05", "rep.u_fraction=0.5",
                    "rep.fiber_exponents=0 1", "policy.n_max=12", "lambda.grid=0.7+0.4i"]
        rows = {}
        for tol in ("1e-12", "1e-30"):
            assert run("zeta-continue", *settings, f"policy.tail_tol={tol}") == 0
            rows[tol] = json.loads(capsys.readouterr().out)["results"]["rows"][0]
        got, want = (complex(rows[t]["log_value_re"], rows[t]["log_value_im"]) for t in ("1e-12", "1e-30"))
        assert abs(got - want) < 1e-13
        assert rows["1e-12"]["reliable"] and rows["1e-12"]["tail_bound"] < 1e-12

    def test_unreliable_row_says_why(self, capsys):
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.3", "rep.u_fraction=0.5",
                    "policy.n_max=8", "lambda.grid=-3,0"]
        assert run("zeta-continue", *settings) == 0
        unreliable, reliable = json.loads(capsys.readouterr().out)["results"]["rows"]
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        z = cycle_zeta(model, cfg.character(model.automorphism), -3.0, cfg.policy(model))
        flagged = [d for d in z.determinants if not d.reliable]
        assert not unreliable["reliable"] and len(flagged) > 1
        # the determinants' warnings in k order, each once
        assert unreliable["warnings"] == ["continuation unreliable: coefficient decay is not monotone past n=4"]
        assert [w for d in flagged for w in d.warnings] == unreliable["warnings"] * len(flagged)
        assert reliable["reliable"] and reliable["warnings"] == []


    def test_log_is_finite_where_the_quotient_underflows(self, tmp_path, capsys):
        # d = (1.80e193, 1.46e200, 1.80e193): d_0 d_2 overflows, so d_1 / (d_0 d_2) reads 0
        csv = tmp_path / "continue.csv"
        assert run("zeta-continue", *CONTINUE_UNDERFLOW, csv=csv) == 0
        (row,) = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["results"]["rows"]
        d0, d1, d2 = (complex(d["re"], d["im"]) for d in row["d_values"])
        assert d0 * d2 == math.inf
        assert row["log_value_re"] == pytest.approx(-429.082, abs=1e-3)
        logs = (cmath.log(d1) - cmath.log(d0) - cmath.log(d2)).real
        assert row["log_value_re"] == pytest.approx(logs, rel=1e-15) and row["log_value_im"] == 0.0
        assert csv.read_text().splitlines()[1].split(",")[2] == repr(row["log_value_re"])

    def test_log_imaginary_part_is_reduced(self):
        def determinant(value):
            return DynamicalDeterminant(1, 0.0, 1.0, (), (1.0,), value, 1, True, 0.0)

        # phase sums of -3pi, -pi and 2pi
        for d0, d1, d2 in [(-1.0, -1.0 - 1e-300j, -1.0), (-1.0 + 1e-300j, -1.0, -1.0 + 1e-300j), (-1j, -1.0, -1j)]:
            z = CycleZeta(d1 / (d0 * d2), abs(d1 / (d0 * d2)), tuple(map(determinant, (d0, d1, d2))), True)
            assert -math.pi < z.log_value.imag <= math.pi
            assert cmath.exp(z.log_value) == pytest.approx(z.value, rel=1e-15)


    def test_periods_are_built_as_the_recursion_reads_them(self, period_passes, capsys):
        # the cycle expansion stops long before n_max: the table holds periods 1..max(depth, 8), each built
        # once, the small periods 1-8 (at most 2,500 fixed points each) in one pass and each deeper period read
        # by a pass of its own; a roof no other test uses, so no table of this model is built yet
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0437 sin:0,1:0.0219",
                    "rep.u_fraction=0.5", "policy.n_max=16", "lambda.grid=0,0.3,0.9,1.4+0.5i,2"]
        built = period_passes
        assert run("zeta-continue", *settings) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        depth = max(n for row in rows for n in row["n_used"])
        assert [len(row["n_used"]) for row in rows] == [3] * 5 and depth < 16
        passes = [("union", list(range(1, 9)))] + [("period", n) for n in range(9, depth + 1)]
        assert built == passes
        model = RunConfig.load(None, settings).model()
        tables = [orbit_table(model, n) for n in range(1, depth + 1)]
        assert built == passes
        for n, table in enumerate(tables, start=1):
            fresh = toral._build_table(model, n)
            for name in ("period", "num1", "num2", "den", "length0", "slope", "class_exps"):
                assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()

    def test_each_trace_sum_once_per_command(self, calls, capsys):
        # lambda = 0 reads fixed-point counts and the other four the orbit table, each to its own depth: one S_m
        # per lambda, the table's columns of S_m gathered once for all four, and the integers |det(A^m - I)| and
        # Tr(wedge^k A^m) from one A^m per m for all five
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.05 sin:0,1:0.03", "rep.u_fraction=0.5",
                    "policy.n_max=12", "lambda.grid=0,0.4,0.9,1.4+5i,2"]
        assert run("zeta-continue", *settings) == 0  # builds the table, whose period passes take powers of A
        capsys.readouterr()
        sums, gathers = calls(continuation._TraceStream, "_sum"), calls(continuation._TraceStream, "table")
        powers = calls(toral.ToralAutomorphism, "power")
        assert run("zeta-continue", *settings) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        depths = [max(row["n_used"]) for row in rows]
        assert len(set(depths[1:])) > 1  # the lambdas stop at different depths
        for i, depth in enumerate(depths):
            assert [m for _, lam, m in sums if lam == RunConfig.load(None, settings).lambda_grid()[i]] == list(range(1, depth + 1))
        assert [m for _, m in gathers] == list(range(1, max(depths[1:]) + 1))
        assert [n for _, n in powers] == list(range(1, max(depths) + 1))

    def test_stream_passes_and_length_checks_once_per_period(self, calls, capsys):
        # the stream's first growth builds the small periods 1-8 in one union pass, then grows the table one
        # period at a time, each by its own pass, and checks the lengths at tau of each period's rows once: the
        # rows checked are the table's rows, not a prefix per growth; a roof and time change no other test
        # uses, so no table of this model is built yet
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0419", "model.time_change=cos:0,1:0.0383",
                    "tau.value=0.2", "rep.u_fraction=0.5", "policy.n_max=12", "lambda.grid=0.5,1.4+2i"]
        unions, passes = calls(toral, "_union_pass"), calls(toral, "_period_pass")
        checks = calls(toral.OrbitTable, "lengths")
        assert run("zeta-continue", *settings) == 0
        depth = max(n for row in json.loads(capsys.readouterr().out)["results"]["rows"] for n in row["n_used"])
        assert [list(lattices) for _, lattices, *_ in unions] == [list(range(1, 9))]
        assert [n for _, n, *_ in passes] == list(range(9, depth + 1))
        table = orbit_table(RunConfig.load(None, settings).model(), depth)
        assert {tau for _, tau, _ in checks} == {0.2}
        assert sum(len(table.period[rows]) for _, _, rows in checks) == len(table.period)

    def test_errors_only_from_periods_read(self, monkeypatch, capsys):
        # period 20 of the cat map holds 228,826,125 fixed points, past the enumeration cap; the default
        # tolerance stops the recursion by period 9, so n_max 30 reads the rows of n_max 14
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.05", "lambda.grid=1"]
        rows = {}
        for n_max in (14, 30):
            assert run("zeta-continue", *settings, f"policy.n_max={n_max}") == 0
            rows[n_max] = json.loads(capsys.readouterr().out)["results"]["rows"]
        for row in rows[14] + rows[30]:
            del row["policy"]
        assert rows[30] == rows[14] and max(rows[30][0]["n_used"]) < 14
        # a tolerance the coefficients never meet reads every period up to n_max, so the cap stops the
        # command; with the cap lowered to 2^16 that is period 12, 103,680 fixed points
        monkeypatch.setattr(toral, "MAX_ENUMERATED_POINTS", 1 << 16)
        assert run("zeta-continue", *settings, "policy.n_max=30", "policy.tail_tol=1e-30") == 2
        assert capsys.readouterr().err == "error: |det(A^n - I)| = 103680 fixed points exceeds the enumeration cap\n"

    def test_small_periods_stop_at_n_max(self, period_passes, capsys):
        # the cat map's periods 1-8 are small, but n_max 5 caps the stream's union pass; a roof no other test
        # uses, so no table of this model is built yet
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0427", "rep.u_fraction=0.5",
                    "policy.n_max=5", "lambda.grid=0.5"]
        assert run("zeta-continue", *settings) == 0
        capsys.readouterr()
        assert period_passes == [("union", [1, 2, 3, 4, 5])]

    def test_small_period_out_of_range_past_the_depth_read(self, period_passes, capsys):
        # the lengths of period 4 leave the float range; lambda = 1 meets an exact zero at n = 3, so the command
        # reads periods 1-3 only: the union pass over the small periods 1-8 fails, and the stream builds the
        # periods it reads instead, exiting as a run that cannot read past period 3
        settings = ["model.matrix=2 1 1 1", "model.roof=const:5e307 cos:1,0:1e306", "lambda.grid=1"]
        rows = {}
        for n_max in (12, 3):
            assert run("zeta-continue", *settings, f"policy.n_max={n_max}") == 0
            rows[n_max] = json.loads(capsys.readouterr().out)["results"]["rows"]
        for row in rows[12] + rows[3]:
            del row["policy"]
        assert rows[12] == rows[3] and rows[12][0]["n_used"] == [3, 3, 3]
        assert period_passes == [("union", list(range(1, 9))), ("period", 1), ("period", 2), ("period", 3)]

    @pytest.mark.parametrize("command", ["orbits", "zeta-eval", "variation"])
    def test_whole_table_request_refused_before_any_pass(self, command, period_passes, monkeypatch, tmp_path,
                                                         capsys):
        # these commands ask for every period up to n_max at once: with the cap lowered to 2^16 period 12 is
        # past it, and the request exits 2 without building periods 1-11 first; a roof no other test uses,
        # so no table of this model is built yet
        monkeypatch.setattr(toral, "MAX_ENUMERATED_POINTS", 1 << 16)
        settings = ["model.matrix=2 1 1 1", "model.roof=const:1 cos:1,0:0.0373", "policy.n_max=12"]
        if command == "zeta-eval":  # near the entropy no certified tail is below tail_tol before period 12
            settings.append("lambda.grid=1.2")
        out = tmp_path / "orbits.txt" if command == "orbits" else None
        assert run(command, *settings, out=out) == 2
        assert capsys.readouterr().err == "error: |det(A^n - I)| = 103680 fixed points exceeds the enumeration cap\n"
        assert period_passes == []

    def test_overflow_message(self, capsys):
        assert run("zeta-continue", *CAT_SETTINGS, "model.roof=const:1 cos:1,0:0.1", "policy.n_max=8",
                   "lambda.grid=-200") == 2
        assert capsys.readouterr().err == ("error: cycle expansion at lambda=(-200+0j) overflows floating point; "
                                           "raise Re(lambda) or lower n_max\n")


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# cat map run\n"
            "model.matrix = 2 1 1 1\n"
            "model.roof = const:1.0\n"
            "rep.u_fraction = 0.25\n"
            "policy.n_max = 6\n"
            "tau.grid = 0.0\n"
        )
        code = main(["fried-check", "--config", str(cfg), "--set", "rep.u_fraction=0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["rep.u_fraction"] == "0.5"  # command line wins
        assert payload["results"]["rows"][0]["zeta_modulus"] == pytest.approx(1.25)

    def test_missing_config_file(self):
        assert main(["orbits", "--config", "/nonexistent/path.cfg"]) == 1

    def test_config_byte_not_utf8_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"model.matrix = 2 1 1 1\n# caf\xff\n")
        assert main(["orbits", "--config", str(cfg), "--out", str(tmp_path / "o.txt")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: non-UTF-8 byte 0xff at column 6\n"

    def test_config_utf8_comment_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.matrix = 2 1 1 1  # \u03bb-free\npolicy.n_max = 3\n", encoding="utf-8")
        assert main(["orbits", "--config", str(cfg), "--out", str(tmp_path / "o.txt")]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["count"] == 8


# (command, source, setting): a key the source does not read; "model" is the model section
REFUSED = [
    ("selberg-factorize", "io.spectrum", "spectrum.count=5"),
    ("selberg-factorize", "io.spectrum", "spectrum.seed=99"),
    ("selberg-factorize", "io.spectrum", "spectrum.min_length=0.5"),
    ("zeta-eval", "io.orbits", "model.matrix=2 1 1 1"),
    ("zeta-eval", "io.orbits", "model.roof=const:7"),
    ("zeta-eval", "io.orbits", "model.time_change=cos:1,0:0.05"),
    ("zeta-eval", "io.orbits", "tau.value=0.3"),
    ("zeta-eval", "io.orbits", "selberg.mu=sigma:2*nu:1"),
    ("zeta-eval", "io.orbits", "policy.j_max=12345678901234567890"),
    ("zeta-eval", "io.orbits", "policy.tail_tol=1e-3"),
    ("zeta-eval", "io.spectrum", "model.roof=const:7"),
    ("zeta-eval", "io.spectrum", "tau.value=0.3"),
    ("zeta-eval", "io.spectrum", "rep.u_fraction=0.5"),
    ("zeta-eval", "io.spectrum", "rep.fiber_exponents=0 0"),
    ("zeta-eval", "io.spectrum", "io.orbits={orbits}"),
    ("zeta-eval", "io.spectrum", "policy.n_max=3"),
    ("zeta-eval", "model", "selberg.mu=sigma:2*nu:1"),
    ("zeta-eval", "model", "policy.j_max=200"),
]


# (command, source, setting): a setting that changes no output of the command.  Source None: no
# code of the command reads the key (a policy field, or policy.workers), so it is unknown; else
# only the other source reads it.
UNREAD_POLICY = {
    "orbits": ("j_max=4", "p_max=5", "entropy=9", "tail_tol=1e-3", "quad_subdiv=4"),
    "zeta-eval": ("p_max=5", "quad_subdiv=4"),
    "zeta-continue": ("j_max=2", "p_max=5", "entropy=9", "quad_subdiv=4"),
    "fried-check": ("j_max=2", "p_max=5", "entropy=9", "quad_subdiv=4"),
    "selberg-factorize": ("n_max=3", "entropy=9", "tail_tol=1e-3", "quad_subdiv=4"),
    "variation": ("j_max=4", "p_max=5", "tail_tol=1e-3"),
}
UNREAD = [(command, None, f"policy.{s}") for command, fields in UNREAD_POLICY.items() for s in fields]
UNREAD += [(command, None, "policy.workers=2") for command in _KNOWN_KEYS]
UNREAD += [("selberg-factorize", "io.spectrum", "spectrum.h=7")]
UNREAD += [("spectrum-gen", "schottky", s)
           for s in ("spectrum.h=9", "spectrum.count=5", "spectrum.seed=3", "spectrum.min_length=0.5")]
UNREAD += [("spectrum-gen", "synthetic", s)
           for s in (f"spectrum.generators={SCHOTTKY_GENERATORS}", "spectrum.l_max=2")]
# settings under which each command, or each source, runs and exits 0
RUNS = {
    "orbits": [*CAT_SETTINGS, "policy.n_max=3"],
    "zeta-eval": [*CAT_SETTINGS, "policy.n_max=4", "lambda.grid=4"],
    "zeta-continue": [*CAT_SETTINGS, "policy.n_max=4", "lambda.grid=1"],
    "fried-check": [*CAT_SETTINGS, "policy.n_max=4"],
    "selberg-factorize": ["spectrum.count=20", "factorize.k=0"],
    "variation": [*CAT_SETTINGS, "policy.n_max=4", "tau.grid=0.05"],
    "ledger": [],
    "spectrum-gen": ["spectrum.count=5"],
    "io.spectrum": ["io.spectrum={spectrum}", "factorize.k=0"],
    "schottky": ["spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}", "spectrum.l_max=2"],
    "synthetic": ["spectrum.kind=synthetic", "spectrum.count=5"],
}


class TestConfigKeys:
    @pytest.mark.parametrize("setting, field, value", [
        ("policy.n_max=7", "max_period", 7), ("policy.j_max=9", "j_max", 9), ("policy.p_max=5", "p_max", 5),
        ("policy.tail_tol=1e-3", "tail_tol", 1e-3), ("policy.quad_subdiv=4", "quad_subdiv", 4),
    ])
    def test_policy_key_sets_its_field_over_the_defaults(self, setting, field, value):
        # the defaults live in TruncationPolicy alone: a config sets the fields of the keys it holds, no other
        assert RunConfig.load(None, []).policy(entropy=1.5) == TruncationPolicy(entropy=1.5)
        assert RunConfig.load(None, [setting]).policy(entropy=1.5) == TruncationPolicy(entropy=1.5, **{field: value})

    def test_unknown_key_is_one_error_line(self, capsys):
        settings = ["policy.n_max=4", "polcy.j_max=3", "lambda.grid=9"]
        assert run("zeta-eval", *CAT_SETTINGS, *settings) == 1
        assert capsys.readouterr().err == "error: unknown config key 'polcy.j_max' for zeta-eval\n"

    def test_key_of_another_command_is_unknown(self, tmp_path, capsys):
        assert run("orbits", *CAT_SETTINGS, "policy.n_max=3", "lambda.grid=4", out=tmp_path / "o.txt") == 1
        assert capsys.readouterr().err == "error: unknown config key 'lambda.grid' for orbits\n"

    def test_benchmark_keys_are_known(self, tmp_path, monkeypatch):
        workloads = load_perfbench("workloads", monkeypatch)
        seen = set()
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 0, tmp_path, "smoke")
            for job in workload.prepare + workload.jobs:
                # every --set and every flag of the job, read by the parser, is a key its command knows
                command, config, overrides = _parse(job.argv)
                keys = {item.split("=", 1)[0] for item in overrides}
                assert config is None and keys <= _KNOWN_KEYS[command], job.name
                seen |= keys
        assert {"model.time_change", "io.orbits", "selberg.mu", "factorize.k", "spectrum.seed", "io.out",
                "io.report"} <= seen

    def test_traced_names_resolve(self, monkeypatch):
        tracing = load_perfbench("tracing", monkeypatch)
        for metric, module, attribute, _ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module), attribute, None)), metric

    @pytest.mark.parametrize("workload", ["euler", "variation", "continue", "selberg"])
    def test_traced_run_measures_every_per_layer_metric(self, workload):
        # a traced function that is gone, or whose work counter no longer fits its call, drops its
        # metric from the result and prints an "absent:" line; the benchmark refuses such a run
        root = Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1", "--size", "smoke",
             "--seconds", "1"],
            capture_output=True, text=True, cwd=root, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert not [line for line in lines if line.startswith("absent:")]
        assert set(json.loads(lines[-1])["metrics"]) == {m["name"] for m in spec["per_layer"]}

    @pytest.mark.parametrize("command, source, setting", REFUSED, ids=lambda v: str(v))
    def test_key_the_source_does_not_read_is_refused(self, command, source, setting, source_files, capsys):
        settings = [setting.format(orbits=source_files["io.orbits"])]
        settings += CAT_SETTINGS if source == "model" else [f"{source}={source_files[source]}"]
        if command == "zeta-eval":
            settings.append("lambda.grid=4")
        assert run(command, *settings) == 1
        key = setting.split("=", 1)[0]
        assert capsys.readouterr().err == f"error: config key {key!r} does not apply to the {source} source\n"

    @pytest.mark.parametrize("command, source, setting", UNREAD, ids=lambda v: str(v))
    def test_setting_no_code_reads_is_refused(self, command, source, setting, source_files, tmp_path, capsys):
        settings = [s.format(spectrum=source_files["io.spectrum"]) for s in RUNS[source or command]]
        assert run(command, *settings, out=tmp_path / "out.txt") == 0
        capsys.readouterr()
        assert run(command, *settings, setting, out=tmp_path / "out.txt") == 1
        key = setting.split("=", 1)[0]
        if source:
            message = f"config key {key!r} does not apply to the {source} source"
        else:
            message = f"unknown config key {key!r} for {command}"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, setting", [("orbits", "tau.value=0.4"), ("zeta-eval", "tau.value=0.4"),
                                                  ("zeta-continue", "tau.value=0.4"),
                                                  ("fried-check", "tau.grid=0,0.3,0.7")])
    def test_tau_without_time_change_is_refused(self, command, setting, tmp_path, capsys):
        # tau scales model.time_change: without one a nonzero tau changes nothing, and once ran as tau = 0 (a
        # zero tau stays accepted; variation, whose tau-derivative is then 0, runs in RUNS without a time change)
        key = setting.split("=")[0]
        out = tmp_path / "out.txt"
        assert run(command, *RUNS[command], f"{key}=0", out=out) == 0
        capsys.readouterr()
        assert run(command, *RUNS[command], setting, out=out) == 1
        assert capsys.readouterr().err == (f"error: {key}: tau scales model.time_change, which is unset, "
                                           "so a nonzero tau changes nothing\n")
        assert run(command, *RUNS[command], setting, "model.time_change=cos:1,0:0.05", out=out) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command, source, settings", [
        # the euler benchmark's dump job passes rep.u_fraction, which the dump reader still drops
        ("zeta-eval", "io.orbits", ["rep.u_fraction=0.5", "rep.fiber_exponents=0 0", "policy.n_max=4",
                                    "policy.entropy=1.0", "lambda.grid=4"]),
        ("zeta-eval", "io.spectrum", ["selberg.mu=sigma:2*nu:1", "policy.j_max=4", "policy.entropy=1.0",
                                      "lambda.grid=4"]),
        ("selberg-factorize", "io.spectrum", ["policy.j_max=4", "policy.p_max=30", "factorize.k=0"]),
    ])
    def test_keys_the_source_reads_are_accepted(self, command, source, settings, source_files, capsys):
        assert run(command, f"{source}={source_files[source]}", *settings) == 0
        capsys.readouterr()


@pytest.mark.parametrize("name", ["euler", "variation", "continue", "selberg"])
def test_seed_zero_jobs_match_the_frozen_values(name, tmp_path, monkeypatch, capsys):
    # the benchmark's frozen gate on every full-size job of the default seed, run in process
    workloads = load_perfbench("workloads", monkeypatch)
    workload = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    done = {}
    for job in workload.prepare + workload.jobs:
        assert main(job.argv) == 0, job.name
        done[job.name] = json.loads(job.report.read_text(encoding="utf-8"))
    capsys.readouterr()
    frozen = workloads.load_frozen(Path(workloads.__file__).parent / "frozen.json", name)
    assert frozen
    assert workloads.check_frozen(workload.frozen(done), frozen) == []


def load_perfbench(name, monkeypatch):
    """Import ``perfbench/<name>.py`` of this checkout by its path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def source_files(tmp_path, capsys):
    """An orbit dump of the cat map and a one-record kleinian spectrum."""
    files = {"io.orbits": tmp_path / "orbits.txt", "io.spectrum": tmp_path / "spectrum.txt"}
    assert run("orbits", *CAT_SETTINGS, "policy.n_max=4", out=files["io.orbits"]) == 0
    write_spectrum(files["io.spectrum"], [ComplexLengthRecord(length=1.0, theta=0.0)])
    capsys.readouterr()
    return files


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python <args> -m friedzeta ...`` in a child that imports the package from where this process found it
    (pytest's pythonpath or PYTHONPATH)."""
    src = str(Path(friedzeta.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("settings, message", [
    (["spectrum.seed=-1"], "count and seed must be >= 0"),
    (["spectrum.h=1e300"], "exp(h * max(min_length, 1.5 / h)) = exp(1e+300) leaves the float range"),
    (["spectrum.min_length=1e308"], "exp(h * max(min_length, 1.5 / h)) = exp(inf) leaves the float range"),
    (["spectrum.h=1e-320"], "exp(h * max(min_length, 1.5 / h)) = exp(inf) leaves the float range"),
    # exp(h * l) = e^1.5 at l = 1.5 / h, but the first count exp(h * l) / l is past the float range
    (["spectrum.h=1e308", "spectrum.min_length=0"], "exp(h * 1.5e-308) / 1.5e-308 leaves the float range"),
])
def test_synthetic_spectrum_input_is_one_error_line(settings, message, tmp_path):
    # each once ended spectrum-gen and selberg-factorize in a traceback from numpy or math
    sets = [arg for setting in settings for arg in ("--set", setting)]
    for command in ("spectrum-gen", "selberg-factorize"):
        proc = _run_module("-m", "friedzeta", command, *sets, "--out", str(tmp_path / "out.txt"))
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, command
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1, command
        assert proc.stdout == "" and not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [["--help"], ["zeta-eval", "-h"]], ids=" ".join)
def test_module_help_exits_0_on_stdout(argv):
    proc = _run_module("-m", "friedzeta", *argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(f"usage: friedzeta {argv[0] if len(argv) > 1 else 'COMMAND'} [-h]")


def test_module_invocation_smoke():
    proc = _run_module("-m", "friedzeta", "ledger", "--set", "ledger.h0=0", "--set", "ledger.h1=0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["multiplicities"] == {str(k): 0 for k in range(5)}


# (command, settings, exit code): runs that once warned, wrote a non-finite number or exited 0 wrongly
REPRODUCTIONS = [
    ("zeta-eval", ["model.matrix=2 1 1 1", "policy.n_max=4", "lambda.grid=0.5", "zeta.allow_formal=false"], 2),
    ("zeta-eval", ["model.matrix=2 1 1 1", "policy.n_max=4", "lambda.grid=4", "zeta.allow_formal=yes"], 1),
    ("zeta-continue", CONTINUE_UNDERFLOW, 0),
    ("variation", VARIATION_OVERFLOW, 2),
    ("spectrum-gen", ["spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}", "spectrum.l_max=2"], 0),
]


@pytest.mark.parametrize("command, settings, code", REPRODUCTIONS, ids=lambda v: v if isinstance(v, str) else None)
def test_module_run_warns_nothing_and_reports_finite_json(command, settings, code, tmp_path):
    # a warning printed by a child process escapes the in-process filters; -W error makes it fail the run
    out = ["--out", str(tmp_path / "spectrum.txt")] if command == "spectrum-gen" else []
    proc = _run_module("-W", "error", "-m", "friedzeta", command, *out,
                       *(arg for s in settings for arg in ("--set", s)))
    assert proc.returncode == code, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) <= 1 and all(line.startswith("error:") for line in err), proc.stderr
    assert bool(err) == bool(code)
    if code == 0:
        json.loads(proc.stdout, parse_constant=_refuse_constant)


def test_cli_builds_no_orbit_records(tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an OrbitRecord was built")

    monkeypatch.setattr(OrbitRecord, "__init__", refuse)
    dump = tmp_path / "orbits.txt"
    assert run("orbits", *CAT_SETTINGS, "policy.n_max=6", out=dump) == 0
    assert run("zeta-eval", *CAT_SETTINGS, "policy.n_max=6", "lambda.grid=4,5") == 0
    assert run("zeta-eval", f"io.orbits={dump}", "policy.entropy=1.0", "lambda.grid=4,5") == 0
    capsys.readouterr()


class TestOrbitDumpPipeline:
    def test_zeta_eval_on_orbit_dump(self, tmp_path, capsys):
        dump = tmp_path / "orbits.txt"
        assert run("orbits", *CAT_SETTINGS, "policy.n_max=6", out=dump) == 0
        capsys.readouterr()
        code = run(
            "zeta-eval",
            f"io.orbits={dump}",
            "lambda.grid=4.0",
            "policy.entropy=0.963",
            "policy.n_max=6",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["results"]["rows"]
        assert [r["zeta_kind"] for r in rows] == ["ruelle"]
        from friedzeta import Character, SuspensionModel, ToralAutomorphism, TrigPolynomial, orbit_records

        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial.const(1.0))
        pol = TruncationPolicy(max_period=6, entropy=0.963)
        # the dump drops the twist: its row is the untwisted sum over the cells p j <= 6
        direct, _ = euler_oracle.ruelle(euler_oracle.records_columns(orbit_records(model, 6)), 4.0, pol, depth=6)
        assert rows[0]["log_value_re"] == pytest.approx(direct.log_value.real, rel=1e-12)
        assert rows[0]["n_used"] == 6 and rows[0]["warnings"] == []

    def test_missing_file_exit_1(self):
        assert run("zeta-eval", "io.orbits=/nonexistent", "lambda.grid=4.0") == 1

    def test_n_max_drops_longer_orbits_of_a_dump(self, tmp_path, capsys):
        roof = "model.roof=const:1 cos:1,0:0.05"

        def log_zeta(*settings):
            assert run("zeta-eval", *settings, "lambda.grid=3") == 0
            return json.loads(capsys.readouterr().out)["results"]["rows"][0]["log_value_re"]

        dumps = {n: tmp_path / f"orbits{n}.txt" for n in (4, 8)}
        for n, path in dumps.items():
            assert run("orbits", "model.matrix=2 1 1 1", roof, f"policy.n_max={n}", out=path) == 0
        capsys.readouterr()
        entropy = "policy.entropy=1.0"
        deep_at_4 = log_zeta(f"io.orbits={dumps[8]}", "policy.n_max=4", entropy)
        assert deep_at_4 == log_zeta(f"io.orbits={dumps[4]}", entropy)
        # the model's series and the dump both read cells p j <= 4, the model only to its certified depth: both
        # differ from the whole series by cells with p j > 4, which the series' certified tail bounds
        assert run("zeta-eval", "model.matrix=2 1 1 1", roof, "policy.n_max=4", entropy, "lambda.grid=3") == 0
        row = json.loads(capsys.readouterr().out)["results"]["rows"][0]
        assert abs(deep_at_4 - row["log_value_re"]) <= 2 * row["tail_bound"]
        # without the key every row is read, whatever the policy's default depth
        assert log_zeta(f"io.orbits={dumps[8]}", entropy) == log_zeta(f"io.orbits={dumps[8]}", "policy.n_max=8",
                                                                        entropy) != deep_at_4

    def test_max_period_is_the_depth_summed(self, tmp_path, capsys):
        dump, empty = tmp_path / "orbits.txt", tmp_path / "empty.txt"
        assert run("orbits", *CAT_SETTINGS, "policy.n_max=5", out=dump) == 0
        empty.write_text("#fried-orbits v1\n", encoding="ascii")
        capsys.readouterr()
        depths = []
        # the dump's deepest period, a set n_max, and for a dump without orbits, which has no cells at any depth,
        # the default or a set n_max of any size
        for settings in ([f"io.orbits={dump}"], [f"io.orbits={dump}", "policy.n_max=3"], [f"io.orbits={empty}"],
                         [f"io.orbits={empty}", f"policy.n_max={10**30}"]):
            assert run("zeta-eval", *settings, "policy.entropy=1.0", "lambda.grid=4") == 0
            row = json.loads(capsys.readouterr().out)["results"]["rows"][0]
            assert row["n_used"] == row["policy"]["max_period"]
            depths.append(row["n_used"])
        assert depths == [5, 3, 12, 10**30]

    @pytest.mark.parametrize("n_max", [6, 20])
    def test_n_max_beyond_the_deepest_period_exit_1(self, n_max, tmp_path, capsys):
        # the cells p j <= n_max past the dump's deepest period are missing from it, so the sum would be short
        dump = tmp_path / "orbits.txt"
        assert run("orbits", *CAT_SETTINGS, "policy.n_max=5", out=dump) == 0
        capsys.readouterr()
        assert run("zeta-eval", f"io.orbits={dump}", f"policy.n_max={n_max}", "policy.entropy=1.0",
                   "lambda.grid=4") == 1
        assert capsys.readouterr().err == (f"error: n_max = {n_max} is above the dump's deepest period 5, where its "
                                           "cells are incomplete\n")

    def test_huge_period_exit_2_before_any_cell(self, tmp_path, capsys):
        # a period-10^12 line makes 10^12 the depth, at which the period-1 orbit alone has 10^12 cells: they are
        # counted against the cap before any cell array is built
        dump = tmp_path / "orbits.txt"
        assert run("orbits", *CAT_SETTINGS, "policy.n_max=3", out=dump) == 0
        with open(dump, "a", encoding="ascii") as fh:
            fh.write("1000000000000 0 0 1 1.0 1 1000000000000 0 0\n")
        capsys.readouterr()
        tracemalloc.start()
        code = run("zeta-eval", f"io.orbits={dump}", "policy.entropy=1.0", "lambda.grid=4")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "array cells exceed the cap of" in err
        assert err.count("\n") == 1
        assert peak < 2_000_000


class TestSchottkyFactorizePipeline:
    def test_rank2_l6_under_60s(self, tmp_path, capsys):
        import time

        spec = tmp_path / "schottky.txt"
        assert run(
            "spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}",
            "spectrum.l_max=6", out=spec,
        ) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = run(
            "selberg-factorize",
            f"io.spectrum={spec}",
            "policy.j_max=4",
            "factorize.p_grid=10,20",
            "lambda.value=5.0",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for k in (0, 1, 2):
            assert payload["results"][f"k={k}"]["max_rel_residual"] < 1e-10
        assert elapsed < 60.0


MALFORMED = [
    ["zeta-eval", "policy.n_max=abc", "lambda.grid=4"],
    ["zeta-eval", "model.roof=const:1 cos:1:0.1", "lambda.grid=4"],
    ["zeta-eval", "model.roof=const:1 cos:0,0:0.1", "lambda.grid=4"],
    ["ledger", "ledger.selberg_cases=2,2,1"],
    ["zeta-eval", "lambda.grid=inf"],
    ["zeta-eval", "lambda.grid=nan"],
    ["zeta-continue", "lambda.grid=nan"],
    ["zeta-eval", "tau.value=inf", "lambda.grid=4"],
    ["fried-check", "tau.grid=0,nan"],
    ["variation", "lambda.value=nan", "tau.grid=0.05"],
    ["variation", "lambda.value=3", "tau.grid=0:inf:2"],
    ["zeta-eval", "rep.u_fraction=1e308", "lambda.grid=4"],
    ["zeta-eval", "io.spectrum=.", "lambda.grid=4"],
    ["zeta-eval", "io.orbits=.", "lambda.grid=4"],
    # empty grids, which once ran nothing and exited 0
    ["fried-check", "tau.grid=0:0.1:0"],
    ["variation", "lambda.value=3", "tau.grid=0:0.1:-2"],
    ["fried-check", "tau.grid=,"],
    ["zeta-eval", "lambda.grid=,"],
    ["zeta-continue", "lambda.grid=;"],
    # a tolerance that is not positive, which once ran and reported every deviation as exceeding it
    ["fried-check", "fried.tolerance=-1"],
    # a repeated k, which once ran and reported one entry for it (and two CSV rows)
    ["selberg-factorize", "spectrum.count=5", "factorize.k=0,0"],
    ["ledger", "ledger.k_list=0,1,0"],
]


# (input key, file header, malformed line): the reader must name the file and line
VALID_LINE = {"io.spectrum": "1.2 0.3 1", "io.orbits": "1 0 0 1 1.0 1 1 0 0"}
MALFORMED_FILES = [
    ("io.spectrum", "#fried-spectrum v1 n0=2", "abc 0.1 1"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5 nan 1"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "inf 0.1 1"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "-1.5 0.1 1"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5 0.1 x"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 nan 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 -2.0 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 inf 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0.5 1 1.0 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "2 0 1 5 2.0 1 2 0"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5 0.1 1 caf\u00e9"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 1 1 0 0 caf\u00e9"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5 0.1 1 a b"),
    ("io.spectrum", "#fried-spectrum v1 n0=2", "1.5 0.1 1 a b c"),
    # a header other than the one format: once read as an n0 = 2 v1 spectrum
    ("io.spectrum", "#fried-spectrum v1 n0=4", VALID_LINE["io.spectrum"]),
    ("io.spectrum", "#fried-spectrum v17", VALID_LINE["io.spectrum"]),
]
# every malformed dump of MALFORMED_FILES, and a wrong header
DUMP_ERRORS = [(header, line) for key, header, line in MALFORMED_FILES if key == "io.orbits"]
DUMP_ERRORS += [("#fried-orbits v2", VALID_LINE["io.orbits"])]
# integers beyond int64, which the record reader let through to a traceback or a wrapped value
WIDE_DUMP_LINES = [
    ("io.orbits", "#fried-orbits v1", "99999999999999999999 0 0 1 1.0 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 99999999999999999999 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 1 1 -99999999999999999999 0"),
]
# well-formed fields without meaning (an orientation index other than -1 or 1, a winding other
# than the period, a period or denominator below 1), which the column reader once summed with and exited 0
MEANINGLESS_DUMP_LINES = [
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 5 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 0 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 1 1.0 1 2 0 0"),
    ("io.orbits", "#fried-orbits v1", "0 0 0 1 1.0 1 0 0 0"),
    ("io.orbits", "#fried-orbits v1", "-1 0 0 1 1.0 1 -1 0 0"),
    ("io.orbits", "#fried-orbits v1", "1 0 0 0 1.0 1 1 0 0"),
]

# a float spelling in an integer column, which numpy's loadtxt once read truncated with only a warning
FLOAT_IN_INTEGER_LINES = ["1 0 0.5 1 1.0 1 1 0 0", "1 0 0 1 1.0 1.9 1 0 0", "1 0 0 1e3 2.0 1 1 0 0"]


class TestUsage:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_flags_follow_the_registry(self, command, tmp_path, capsys):
        path = str(tmp_path / "out.txt")
        out_key = "io.out" if command in ("orbits", "spectrum-gen") else "io.report"
        assert _parse([command, "--out", path]) == (command, None, [f"{out_key}={path}"])
        for key, flag, value in (("io.csv", ["--csv", path], path), ("zeta.allow_formal", ["--allow-formal"], "true")):
            if key in _KNOWN_KEYS[command]:
                assert _parse([command, *flag]) == (command, None, [f"{key}={value}"])
            else:
                assert main([command, *flag]) == 1
                assert capsys.readouterr().err == f"error: unrecognized argument {flag[0]!r} for {command}\n"

    @pytest.mark.parametrize("argv", [["zeta-eval", "--bogus"], ["no-such-command"], ["zeta-eval", "--set"],
                                      ["orbits", "--out"], [], ["--set", "a.b=1"], ["zeta-eval", "--allow-formal=1"],
                                      ["zeta-eval", "--", "x"], ["orbits", "--out", "-x"]], ids=" ".join)
    def test_usage_error_is_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_flags_and_keys(self, command, capsys):
        for spelling in ("-h", "--help", "--he"):
            assert main([command, "--set", "a.b=1", spelling, "--bogus"]) == 0
            out, err = capsys.readouterr()
            assert out.startswith(f"usage: friedzeta {command} [-h]") and err == ""
            assert all(flag in out for flag in ["--config", "--set", *_flag_keys(command)])
            assert all(f"  {key}\n" in out for key in _KNOWN_KEYS[command])

    def test_no_command_lists_every_command(self, capsys):
        for argv in ([], ["no-such-command"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert all(command in err for command in _COMMANDS)
        for spelling in ("-h", "--help", "--h"):
            assert main([spelling]) == 0
            out, err = capsys.readouterr()
            assert out.startswith("usage: friedzeta COMMAND") and err == ""
            assert f"commands: {', '.join(_COMMANDS)}\n" in out

    def test_plain_form_reads_every_flag(self):
        argv = ["zeta-eval", "--set", "a.b=1", "--out", "", "--allow-formal", "--set", "2 1 1 1", "--csv", "a.b=1",
                "--config", "x", "--config", "y"]
        # the --set items in order, then each flag's key: a flag wins
        assert _parse(argv) == ("zeta-eval", "y", ["a.b=1", "2 1 1 1", "io.report=", "zeta.allow_formal=true",
                                                   "io.csv=a.b=1"])
        assert RunConfig.load(None, _parse(["orbits", "--out", "x", "--set", "io.out=y"])[2]).values == {"io.out": "x"}
        # a value starting with - is taken after = only: in the next token it is the next flag
        assert _parse(["orbits", "--out=-x"]) == ("orbits", None, ["io.out=-x"])
        for argv in (["orbits", "--out", "-x"], ["zeta-eval", "--set", "--csv", "x"]):
            with pytest.raises(ValidationError, match="expected one value"):
                _parse(argv)

    def test_prefix_and_equals_spellings(self, capsys):
        assert _parse(["zeta-eval", "--se", "a.b=1"]) == _parse(["zeta-eval", "--set", "a.b=1"])
        assert _parse(["zeta-eval", "--se=a.b=1"]) == ("zeta-eval", None, ["a.b=1"])
        assert _parse(["zeta-eval", "--out=x"]) == _parse(["zeta-eval", "--out", "x"]) == (
            "zeta-eval", None, ["io.report=x"])
        assert _parse(["variation", "--c", "x"]) == ("variation", "x", [])  # variation has no --csv
        assert main(["zeta-eval", "--c", "x"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ambiguous option: --c could match --config, --csv\n"

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from([*_COMMANDS, None]),
           tokens=st.lists(st.sampled_from(["--set", "--config", "--out", "--csv", "--allow-formal", "--se",
                                             "--out=x", "--", "-h", "--bogus", *_COMMANDS, "a.b=1", "", "-1", "-x",
                                             "2 1 1 1"]), max_size=7))
    def test_every_argv_parses_helps_or_is_one_error_line(self, command, tokens, capsys):
        argv = [command, *tokens] if command else tokens
        try:
            parsed = _parse(argv)
        except ValidationError:
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            return
        if isinstance(parsed, str):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert out == parsed + "\n" and out.startswith("usage: friedzeta ") and err == "", argv
            return
        # a parse is its own canonical spelling: --config and one --set per override
        command, config, overrides = parsed
        canonical = [command, *(["--config", config] if config is not None else [])]
        assert _parse(canonical + [arg for item in overrides for arg in ("--set", item)]) == parsed, argv


def _report_and_files(argv, report, files, capsys):
    """Run ``argv``; return its report (from stdout or the file ``report``) and the bytes of ``files``, removed."""
    assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    payload = json.loads(report.read_text() if report else out)
    data = {path.name: path.read_bytes() for path in files}
    for path in [*files, *([report] if report else [])]:
        path.unlink()
    return payload, data


@pytest.mark.parametrize("case", ["zeta-eval --allow-formal --csv", "orbits --out", "fried-check --out --csv"])
def test_report_config_reproduces_its_run(case, tmp_path, capsys):
    # --set of each key of the echoed config alone runs the same command to the same results and files
    csv, out = tmp_path / "out.csv", tmp_path / "out.txt"
    argv = {
        "zeta-eval --allow-formal --csv": ["zeta-eval", "--allow-formal", "--set", "model.matrix=2 1 1 1",
                                            "--set", "policy.n_max=4", "--set", "lambda.grid=0.5", "--csv", str(csv)],
        "orbits --out": ["orbits", "--set", "model.matrix=2 1 1 1", "--set", "policy.n_max=4", "--out", str(out)],
        "fried-check --out --csv": ["fried-check", *(arg for s in RUNS["fried-check"] for arg in ("--set", s)),
                                    "--out", str(out), "--csv", str(csv)],
    }[case]
    report = out if case.startswith("fried-check") else None
    files = [path for path, flag in ((csv, "--csv"), (out, "--out")) if flag in argv and path != report]
    first, first_files = _report_and_files(argv, report, files, capsys)
    again = [argv[0], *(arg for key, value in first["config"].items() for arg in ("--set", f"{key}={value}"))]
    second, second_files = _report_and_files(again, report, files, capsys)
    assert first["config"] == second["config"]
    assert first["results"] == second["results"]
    assert first_files == second_files and len(first_files) == len(files) > 0


def _record_fields_differ(obj):
    """Records inside ``obj`` whose ``__dict__`` is not their fields, which ``_jsonify`` would encode
    otherwise than their fields."""
    if hasattr(obj, "__record_fields__"):
        own = [] if vars(obj) == {name: getattr(obj, name) for name in fields(obj)} else [obj]
        return own + [d for name in fields(obj) for d in _record_fields_differ(getattr(obj, name))]
    if isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    if isinstance(obj, (list, tuple)):
        return [d for item in obj for d in _record_fields_differ(item)]
    return []


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_report_bytes_are_the_dataclass_encoding(command, source_files, tmp_path, monkeypatch, capsys):
    # the report is encoded from its four fields; a deep copy of them is the oracle
    reports = []
    text = cli.Report.text
    monkeypatch.setattr(cli.Report, "text", lambda self: reports.append(self) or text(self))
    settings = [s.format(spectrum=source_files["io.spectrum"]) for s in RUNS[command]]
    path = tmp_path / "report.json"
    assert run(command, *settings, f"io.report={path}", out=tmp_path / "out.txt") == 0
    (report,) = reports
    written = (tmp_path / ("report.json" if "io.out" in _KNOWN_KEYS[command] else "out.txt")).read_text()
    oracle = copy.deepcopy({name: getattr(report, name) for name in fields(report)})
    assert list(oracle) == ["command", "config", "results", "timing_seconds"]
    assert written == json.dumps(oracle, indent=2, default=_jsonify) + "\n"
    assert not _record_fields_differ(report.results)
    capsys.readouterr()


class TestInputBoundary:
    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv))
    def test_malformed_value_is_one_error_line(self, argv, capsys):
        model = CAT_SETTINGS if "model.matrix" in _KNOWN_KEYS[argv[0]] else []
        assert run(argv[0], *model, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "unknown config key" not in err  # refused for its value, not for a key the command lacks

    def test_repeated_p_grid_entry_is_its_own_curve_point(self, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        assert run("selberg-factorize", "spectrum.count=5", "factorize.k=1", "factorize.p_grid=10,10", csv=csv) == 0
        curve = json.loads(capsys.readouterr().out)["results"]["k=1"]["residual_curve"]
        assert len(curve) == 2 and curve[0] == curve[1]
        assert len(csv.read_text().splitlines()) == 3

    @pytest.mark.parametrize("key, header, line", MALFORMED_FILES + WIDE_DUMP_LINES + MEANINGLESS_DUMP_LINES,
                             ids=lambda v: str(v))
    def test_malformed_file_line_is_one_error_line(self, key, header, line, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(f"{header}\n# comment\n{VALID_LINE[key]}\n{line}\n", encoding="utf-8")
        settings = [f"{key}={path}", "lambda.grid=4", "policy.entropy=1.0"]
        assert run("zeta-eval", *settings) == 1
        err = capsys.readouterr().err
        bad_header = key == "io.spectrum" and header != kleinian.SPECTRUM_HEADER
        assert err.startswith(f"error: bad spectrum header: {header!r}\n" if bad_header else f"error: {path}:4: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, line", DUMP_ERRORS + [(h, ln) for _, h, ln in WIDE_DUMP_LINES + MEANINGLESS_DUMP_LINES],
                             ids=lambda v: str(v))
    def test_column_reader_message_matches_record_reader(self, header, line, tmp_path):
        # the record reader checks no width, epsilon, winding, period or denominator; the line reader does
        path = tmp_path / "input.txt"
        path.write_text(f"{header}\n# comment\n{VALID_LINE['io.orbits']}\n{line}\n", encoding="utf-8")
        oracles = [read_lines_dump, read_records_dump] if (header, line) in DUMP_ERRORS else [read_lines_dump]
        with pytest.raises(ValidationError) as columns:
            read_orbit_dump(path)
        for oracle in oracles:
            with pytest.raises(ValidationError) as expected:
                oracle(path)
            assert str(columns.value) == str(expected.value), oracle.__name__

    @pytest.mark.parametrize("line", FLOAT_IN_INTEGER_LINES)
    def test_float_in_integer_column_refused_without_warning_filters(self, line, tmp_path, capsys):
        # the refusal must not rest on the test suite's error::DeprecationWarning filter
        path = tmp_path / "orbits.txt"
        path.write_text(f"#fried-orbits v1\n# comment\n{VALID_LINE['io.orbits']}\n{line}\n")
        with pytest.raises(ValidationError) as expected:
            read_lines_dump(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("zeta-eval", f"io.orbits={path}", "lambda.grid=4", "policy.entropy=1.0") == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    def test_digit_separator_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "orbits.txt"
        path.write_text(f"#fried-orbits v1\n{VALID_LINE['io.orbits']}\n1 0 0 1 1_0.5 1 1 0 0\n")
        assert run("zeta-eval", f"io.orbits={path}", "lambda.grid=4", "policy.entropy=1.0") == 1
        assert capsys.readouterr().err == f"error: {path}:3: digit separator '_' in '1_0.5'\n"

    @pytest.mark.parametrize("command", ["zeta-eval", "orbits"])
    def test_out_in_missing_directory_is_one_error_line(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        grid = ["lambda.grid=4"] if command == "zeta-eval" else []
        assert run(command, *CAT_SETTINGS, "policy.n_max=3", *grid, out=out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out}: No such file or directory\n"

    def test_resonance_at_zero_same_error_as_fried_check(self, capsys):
        trivial = ["model.matrix=2 1 1 1", "rep.u_fraction=0", "policy.n_max=6"]
        assert run("zeta-continue", *trivial, "lambda.grid=0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resonance at zero")
        assert run("fried-check", *trivial) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["model.roof=const:1 cos:1,0:0.1", "lambda.grid=-200"], "error: cycle expansion at lambda"),
            (["model.roof=const:1e-300", "rep.u_fraction=0", "lambda.grid=4"], "error: pole at lambda"),
            # d_0(2*pi*i) = 1 - exp(-2*pi*i) is rounding noise: a pole away from lambda = 0
            (["rep.u_fraction=0", "lambda.grid=6.283185307179586i"], "error: pole at lambda"),
        ],
    )
    def test_continuation_out_of_range_exit_2(self, settings, message, capsys):
        assert run("zeta-continue", *CAT_SETTINGS, "policy.n_max=8", *settings) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["orbits", "zeta-eval"])
    def test_length_beyond_float_range_exit_2(self, command, tmp_path, capsys):
        # the period-2 orbit sums overflow a double; orbits once wrote inf into the dump and exited 0
        out = tmp_path / "out.txt"
        # at lambda = 4 the certified tail of these lengths is 0 past period 1, so zeta-eval would read period 1
        # alone; at lambda = -1 (no tail bound) it reads every period to n_max
        grid = ["lambda.grid=-1", "zeta.allow_formal=true"] if command == "zeta-eval" else []
        roof = "model.roof=const:1e308 cos:1,0:1e307"
        assert run(command, "model.matrix=2 1 1 1", roof, "policy.n_max=4", *grid, out=out) == 2
        assert capsys.readouterr().err == "error: orbit lengths of period 2 exceed the floating-point range\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum-gen", f"spectrum.count={kleinian.MAX_SYNTHETIC_RECORDS + 1}"],
        ["spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={SCHOTTKY_GENERATORS}", "spectrum.l_max=12"],
        ["selberg-factorize", f"spectrum.count={kleinian.MAX_SYNTHETIC_RECORDS + 1}"],
        ["fried-check", *CAT_SETTINGS, f"tau.grid=0:0.01:{config.MAX_GRID_POINTS + 1}"],
    ], ids=lambda argv: argv[0] + " " + argv[-1].split("=")[0])
    def test_count_beyond_its_cap_exit_2(self, argv, tmp_path, capsys):
        assert run(*argv, out=tmp_path / "out.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceed the cap of" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("source", ["io.spectrum"])
    def test_j_max_beyond_the_cell_cap_exit_2(self, source, source_files, capsys):
        # rows x j_max cells are refused before any (orbit x iterate) array is built; a Ruelle weight of j_max
        # columns once was, so a 20-digit j_max ended in a numpy traceback (a dump, which sums its cells
        # p j <= n_max, refuses policy.j_max: REFUSED)
        settings = [f"{source}={source_files[source]}", "policy.entropy=1", "lambda.grid=4"]
        assert run("zeta-eval", *settings, "policy.j_max=12345678901234567890") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "array cells exceed the cap of" in err
        assert err.count("\n") == 1

    def test_quad_subdiv_beyond_its_cap_exit_2(self, monkeypatch, capsys):
        # 2 * 2048 + 1 nodes: once a Simpson grid of any size was built, and a large one ran for minutes
        settings = ["model.time_change=cos:1,0:0.05", "policy.n_max=4", "tau.grid=0.05"]
        tables = []
        build = variation.orbit_table
        monkeypatch.setattr(variation, "orbit_table", lambda *args: tables.append(args) or build(*args))
        assert run("variation", *CAT_SETTINGS, *settings, "policy.quad_subdiv=2048") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: policy.quad_subdiv: ") and "exceed the cap of" in err
        assert err.count("\n") == 1
        assert tables == []
        # 2 * 2046 + 1 nodes are within the cap
        assert run("variation", *CAT_SETTINGS, *settings, "policy.quad_subdiv=2046") == 0
        assert tables

    def test_grid_at_its_cap_is_built(self):
        assert len(config._parse_grid(f"0:1e-6:{config.MAX_GRID_POINTS}", "tau.grid")) == config.MAX_GRID_POINTS

    def test_variation_out_of_range_exit_2(self, capsys):
        settings = ["policy.n_max=4", "tau.grid=0,0.01", "model.time_change=const:35250924.0"]
        assert run("variation", "model.matrix=2 1 1 1", *settings) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variation at lambda")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "roof", ["const:1 cos:2147483648,0:0.1", "const:1 cos:100000000000000000000,0:0.1"]
    )
    @pytest.mark.parametrize("command", ["zeta-eval", "zeta-continue"])
    def test_frequency_beyond_kernel_width_exit_2(self, command, roof, capsys):
        assert run(command, *CAT_SETTINGS, f"model.roof={roof}", "policy.n_max=4", "lambda.grid=4") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: integer data")
        assert err.count("\n") == 1


FUZZ_KEYS = (
    "policy.n_max",
    "policy.j_max",
    "policy.entropy",
    "policy.quad_subdiv",
    "model.roof",
    "model.time_change",
    "rep.u_fraction",
    "lambda.grid",
    "lambda.value",
    "tau.grid",
)


# about half the examples add an unknown key; the others run the fuzz of the known keys
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["zeta-eval", "zeta-continue", "variation"]),
    values=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.text(max_size=24)),
    extra=st.none() | st.from_regex(r"[a-z]{1,8}\.[a-z_0-9]{1,12}", fullmatch=True),
)
def test_fuzzed_settings_exit_cleanly(command, values, extra, capsys):
    try:
        if int(values["policy.n_max"]) > 4:
            values["policy.n_max"] = "4"
    except (KeyError, ValueError):
        pass
    pairs = ["model.matrix=2 1 1 1", "policy.n_max=4", "lambda.grid=4"]
    pairs += [f"{key}={value}" for key, value in values.items()]
    if extra is not None and extra not in _KNOWN_KEYS[command] | {"io.report"}:
        assert run(command, *pairs, f"{extra}=1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key") and repr(extra) in err
        assert err.count("\n") == 1
        return
    assert run(command, *pairs) in (0, 1, 2)
    capsys.readouterr()
