import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from friedzeta import (
    ComplexLengthRecord,
    TruncationPolicy,
    read_orbit_dump,
    read_spectrum,
    ruelle_log_zeta,
    write_spectrum,
)
from friedzeta.cli import main

CAT_SETTINGS = [
    "model.matrix=2 1 1 1",
    "model.roof=const:1.0",
    "rep.u_fraction=0.5",
]


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
        for row, lam in zip(ruelle_rows, (4.0, 5.0)):
            direct = ruelle_log_zeta(recs, rep, lam, pol)
            assert row["log_value_re"] == direct.log_value.real
            assert row["log_value_im"] == direct.log_value.imag
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


ZETA_ROW_KEYS = {"zeta_kind", "lambda_re", "lambda_im", "log_value_re", "log_value_im",
                 "tail_bound", "tail_kind", "policy", "warnings"}
CONTINUE_ROW_KEYS = {"zeta_kind", "lambda_re", "lambda_im", "log_value_re", "log_value_im",
                     "tail_bound", "tail_kind", "d_values", "reliable", "policy"}


@pytest.mark.parametrize(
    "command, keys", [("zeta-eval", ZETA_ROW_KEYS), ("zeta-continue", CONTINUE_ROW_KEYS)]
)
def test_zeta_row_schema(command, keys, capsys):
    assert run(command, *CAT_SETTINGS, "policy.n_max=6", "lambda.grid=4,5") == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert rows
    for row in rows:
        assert set(row) == keys
        assert row["tail_kind"] == "heuristic"


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
        gens = "3 0 0 0 0 0 0.3333333333333333 0;1.6666666666666667 0 1.3333333333333333 0 1.3333333333333333 0 1.6666666666666667 0"
        code = run(
            "spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={gens}",
            "spectrum.l_max=3", out=out,
        )
        assert code == 0
        records = read_spectrum(out)
        assert records[0].length == pytest.approx(2 * math.log(3))
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["count"] == len(records)

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


class TestZetaContinue:
    def test_inside_strip_value(self, capsys):
        code = run("zeta-continue", *CAT_SETTINGS, "policy.n_max=12", "lambda.grid=0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["results"]["rows"][0]
        value = math.exp(row["log_value_re"])
        assert value == pytest.approx(1.25, rel=1e-10)
        assert row["reliable"]


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


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "friedzeta", "ledger", "--set", "ledger.h0=0", "--set", "ledger.h1=0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["multiplicities"] == {str(k): 0 for k in range(5)}


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
        # dump carries no twist application; trivial rho on read-back
        direct = ruelle_log_zeta(orbit_records(model, 6), None, 4.0, pol)
        assert rows[0]["log_value_re"] == pytest.approx(direct.log_value.real, rel=1e-12)

    def test_missing_file_exit_1(self):
        assert run("zeta-eval", "io.orbits=/nonexistent", "lambda.grid=4.0") == 1


class TestSchottkyFactorizePipeline:
    def test_rank2_l6_under_60s(self, tmp_path, capsys):
        import time

        spec = tmp_path / "schottky.txt"
        gens = (
            "3 0 0 0 0 0 0.3333333333333333 0;"
            "1.6666666666666667 0 1.3333333333333333 0 1.3333333333333333 0 1.6666666666666667 0"
        )
        assert run(
            "spectrum-gen", "spectrum.kind=schottky", f"spectrum.generators={gens}",
            "spectrum.l_max=6", out=spec,
        ) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = run(
            "selberg-factorize",
            f"io.spectrum={spec}",
            "policy.entropy=2.0",
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
    ("io.orbits", "#fried-orbits v1", "1 0 0.5 1 1.0 1 1 0 0"),
    ("io.orbits", "#fried-orbits v1", "2 0 1 5 2.0 1 2 0"),
]


class TestInputBoundary:
    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv))
    def test_malformed_value_is_one_error_line(self, argv, capsys):
        assert run(argv[0], *CAT_SETTINGS, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, header, line", MALFORMED_FILES, ids=lambda v: str(v))
    def test_malformed_file_line_is_one_error_line(self, key, header, line, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(f"{header}\n# comment\n{VALID_LINE[key]}\n{line}\n")
        settings = [f"{key}={path}", "lambda.grid=4", "policy.entropy=1.0"]
        assert run("zeta-eval", *settings) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_graded_weights_finite_at_large_j(self, capsys):
        # lam_u^(6 * 200) overflows a double; the weights are taken divided through by it
        settings = ["model.matrix=2 1 1 1", "policy.n_max=6", "policy.j_max=200", "lambda.grid=3"]
        assert run("zeta-eval", *settings) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert [r["zeta_kind"] for r in rows] == ["ruelle", "graded0", "graded1", "graded2"]
        assert all(math.isfinite(r["log_value_re"]) and math.isfinite(r["tail_bound"]) for r in rows)
        # the assembly identity log zeta = -(log Z_0 - log Z_1 + log Z_2) still holds
        by_kind = {r["zeta_kind"]: r["log_value_re"] for r in rows}
        assembled = -(by_kind["graded0"] - by_kind["graded1"] + by_kind["graded2"])
        assert by_kind["ruelle"] == pytest.approx(assembled, rel=1e-12)

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

    def test_variation_out_of_range_exit_2(self, capsys):
        settings = ["policy.n_max=4", "tau.grid=0,0.01", "model.time_change=const:17625462.0"]
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

    @pytest.mark.parametrize("workers", ["4", "many"])
    def test_workers_key_is_accepted_and_ignored(self, workers, capsys):
        settings = [*CAT_SETTINGS, "policy.n_max=6", "lambda.grid=1"]
        assert run("zeta-continue", *settings) == 0
        plain = json.loads(capsys.readouterr().out)["results"]
        assert run("zeta-continue", *settings, f"policy.workers={workers}") == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: policy.workers is ignored: the Birkhoff kernel runs on one thread\n"
        assert json.loads(captured.out)["results"] == plain


FUZZ_KEYS = (
    "policy.n_max",
    "policy.j_max",
    "policy.entropy",
    "policy.workers",
    "model.roof",
    "model.time_change",
    "rep.u_fraction",
    "lambda.grid",
    "lambda.value",
    "tau.grid",
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["zeta-eval", "zeta-continue", "variation"]),
    values=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.text(max_size=24)),
)
def test_fuzzed_settings_exit_cleanly(command, values, capsys):
    try:
        if int(values["policy.n_max"]) > 4:
            values["policy.n_max"] = "4"
    except (KeyError, ValueError):
        pass
    pairs = ["model.matrix=2 1 1 1", "policy.n_max=4", "lambda.grid=4"]
    pairs += [f"{key}={value}" for key, value in values.items()]
    assert run(command, *pairs) in (0, 1, 2)
    capsys.readouterr()
