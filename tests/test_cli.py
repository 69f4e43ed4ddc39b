import cmath
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import friedzeta
from friedzeta import (
    ComplexLengthRecord,
    OrbitRecord,
    TruncationPolicy,
    ValidationError,
    cycle_zeta,
    read_orbit_dump,
    read_spectrum,
    ruelle_log_zeta,
    write_spectrum,
)
from friedzeta.cli import _COMMANDS, _KNOWN_KEYS, build_parser, main
from friedzeta.config import RunConfig

from dump_oracle import read_lines_dump, read_records_dump

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
            log_value = cmath.log(z.value)
            assert (row["log_value_re"], row["log_value_im"]) == (log_value.real, log_value.imag)
            assert row["tail_bound"] == z.tail_bound
            assert row["d_values"] == [{"re": d.real, "im": d.imag} for d in z.d_values]


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
    ("zeta-eval", "io.spectrum", "model.roof=const:7"),
    ("zeta-eval", "io.spectrum", "tau.value=0.3"),
    ("zeta-eval", "io.spectrum", "rep.u_fraction=0.5"),
    ("zeta-eval", "io.spectrum", "rep.fiber_exponents=0 0"),
    ("zeta-eval", "io.spectrum", "io.orbits={orbits}"),
    ("zeta-eval", "io.spectrum", "policy.n_max=3"),
    ("selberg-factorize", "io.spectrum", "policy.n_max=3"),
    ("zeta-eval", "model", "selberg.mu=sigma:2*nu:1"),
]


class TestConfigKeys:
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
                keys = {job.argv[i + 1].split("=", 1)[0] for i, arg in enumerate(job.argv) if arg == "--set"}
                assert keys <= _KNOWN_KEYS[job.argv[0]] | {"io.report"}, job.name
                seen |= keys
        assert {"model.time_change", "io.orbits", "selberg.mu", "factorize.k", "spectrum.seed"} <= seen

    def test_traced_names_resolve(self, monkeypatch):
        tracing = load_perfbench("tracing", monkeypatch)
        for metric, module, attribute, _ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module), attribute, None)), metric

    @pytest.mark.parametrize("command, source, setting", REFUSED, ids=lambda v: str(v))
    def test_key_the_source_does_not_read_is_refused(self, command, source, setting, source_files, capsys):
        settings = [setting.format(orbits=source_files["io.orbits"])]
        settings += CAT_SETTINGS if source == "model" else [f"{source}={source_files[source]}", "policy.entropy=1.0"]
        if command == "zeta-eval":
            settings.append("lambda.grid=4")
        assert run(command, *settings) == 1
        key = setting.split("=", 1)[0]
        assert capsys.readouterr().err == f"error: config key {key!r} does not apply to the {source} source\n"

    @pytest.mark.parametrize("command, source, settings", [
        # the euler benchmark's dump job passes rep.u_fraction, which the dump reader still drops
        ("zeta-eval", "io.orbits", ["rep.u_fraction=0.5", "rep.fiber_exponents=0 0", "policy.n_max=4",
                                    "lambda.grid=4"]),
        ("zeta-eval", "io.spectrum", ["selberg.mu=sigma:2*nu:1", "policy.j_max=4", "lambda.grid=4"]),
        ("selberg-factorize", "io.spectrum", ["spectrum.h=2.0", "policy.j_max=4", "factorize.k=0"]),
    ])
    def test_keys_the_source_reads_are_accepted(self, command, source, settings, source_files, capsys):
        assert run(command, f"{source}={source_files[source]}", "policy.entropy=1.0", *settings) == 0
        capsys.readouterr()


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


def test_module_invocation_smoke():
    # the child imports the package from where this process found it (pytest's pythonpath or PYTHONPATH)
    src = str(Path(friedzeta.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "friedzeta", "ledger", "--set", "ledger.h0=0", "--set", "ledger.h1=0"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["multiplicities"] == {str(k): 0 for k in range(5)}


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
        # dump carries no twist application; trivial rho on read-back
        direct = ruelle_log_zeta(orbit_records(model, 6), None, 4.0, pol)
        assert rows[0]["log_value_re"] == pytest.approx(direct.log_value.real, rel=1e-12)

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
        assert deep_at_4 == pytest.approx(log_zeta("model.matrix=2 1 1 1", roof, "policy.n_max=4", entropy), rel=1e-12)
        # without the key every row is read, whatever the policy's default depth
        assert log_zeta(f"io.orbits={dumps[8]}", entropy) == log_zeta(f"io.orbits={dumps[8]}", "policy.n_max=8",
                                                                        entropy) != deep_at_4


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
    ["zeta-eval", "io.spectrum=.", "lambda.grid=4"],
    ["zeta-eval", "io.orbits=.", "lambda.grid=4"],
    # empty grids, which once ran nothing and exited 0
    ["fried-check", "tau.grid=0:0.1:0"],
    ["variation", "lambda.value=3", "tau.grid=0:0.1:-2"],
    ["fried-check", "tau.grid=,"],
    ["zeta-eval", "lambda.grid=,"],
    ["zeta-continue", "lambda.grid=;"],
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
        for key, flag in (("io.csv", ["--csv", str(tmp_path / "out.csv")]), ("zeta.allow_formal", ["--allow-formal"])):
            if key in _KNOWN_KEYS[command]:
                assert build_parser().parse_args([command, *flag]).command == command
            else:
                assert main([command, *flag]) == 1
                assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"

    @pytest.mark.parametrize("argv", [["zeta-eval", "--bogus"], ["no-such-command"], ["zeta-eval", "--set"],
                                      ["orbits", "--out"]], ids=" ".join)
    def test_usage_error_is_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta-eval", "--help"])
        assert exc.value.code == 0
        assert "--allow-formal" in capsys.readouterr().out


class TestInputBoundary:
    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv))
    def test_malformed_value_is_one_error_line(self, argv, capsys):
        assert run(argv[0], *CAT_SETTINGS, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, header, line", MALFORMED_FILES + WIDE_DUMP_LINES + MEANINGLESS_DUMP_LINES,
                             ids=lambda v: str(v))
    def test_malformed_file_line_is_one_error_line(self, key, header, line, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(f"{header}\n# comment\n{VALID_LINE[key]}\n{line}\n", encoding="utf-8")
        settings = [f"{key}={path}", "lambda.grid=4", "policy.entropy=1.0"]
        assert run("zeta-eval", *settings) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: ")
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
    if extra is not None and extra not in _KNOWN_KEYS[command] | {"io.report", "policy.workers"}:
        assert run(command, *pairs, f"{extra}=1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key") and repr(extra) in err
        assert err.count("\n") == 1
        return
    assert run(command, *pairs) in (0, 1, 2)
    capsys.readouterr()
