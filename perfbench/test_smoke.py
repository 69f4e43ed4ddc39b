"""Smoke tests of the benchmark harness at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
Every workload runs once untraced and once traced; each must print every
metric that ``BENCHMARK.json`` names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_ratio"):
        assert f" {name} " in out.stdout
    assert out.stdout.startswith("env {")


def test_layers_json_places_every_per_layer_metric_once():
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["layers"]
    placed = [m for layer in layers for m in layer["metrics"]]
    assert sorted(placed) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {w for layer in layers for w in layer["workloads"]} <= set(WORKLOADS)


def test_no_result_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_excludes_child_spans():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = rec.aggregate()
    assert totals["inner.calls"] == 3 and totals["outer.calls"] == 1
    assert totals["outer.self_s"] == pytest.approx(totals["outer.s"] - totals["inner.s"], abs=1e-9)


def test_missing_names_are_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", (("gone.f", "friedzeta.no_such_module", "f", None),
                                             ("gone.g", "json", "no_such_name", None)))
    rec = tracing.Recorder()
    rec.install()
    assert rec.absent == ["gone.f", "gone.g"]


def test_times_are_scaled_per_job_to_the_reference_speed():
    slow = [run.JobResult("a", wall_s=2.0, scale=0.5), run.JobResult("b", wall_s=1.0, scale=0.5)]
    fast = [run.JobResult("a", wall_s=1.0, scale=1.0), run.JobResult("b", wall_s=0.5, scale=1.0)]
    assert run.per_pass_median([slow, fast, fast], "wall_s") == pytest.approx(1.5)
    assert run.per_pass_median([slow, slow, fast], "wall_s", scaled=False) == pytest.approx(3.0)
