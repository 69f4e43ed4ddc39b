"""The benchmark's workloads: seeded CLI jobs and the checks on their reports.

Each workload is a fixed list of ``friedzeta`` CLI invocations.  The seed
draws only values (roof and time-change amplitudes inside the positivity
certificate, spectral and family parameters, the spectrum seed); sizes are
fixed per profile, so the cost of a pass does not depend on the seed.

Checks read the JSON reports only through keys the reports have always
had and ignore any other key.  A check returns a list of failures, each a
``(check_id, message)`` pair.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("euler", "variation", "continue", "selberg")
DEFAULT_SEED = 0

# Fixed sizes.  No "full" job spends much over a second in main, so a 30 s
# run holds 10-30 passes and each job's median over them is steady.
# "smoke" runs every job at tiny sizes to test the harness.
SIZES = {
    "full": {"euler_n": 10, "variation_n": 10, "continue_n": 12, "continue_big_n": 13,
             "fried_n": 14, "spectrum_count": 20},
    "smoke": {"euler_n": 6, "variation_n": 6, "continue_n": 6, "continue_big_n": 7,
              "fried_n": 6, "spectrum_count": 20},
}

# Checks that fail at this commit because of a defect recorded in ROADMAP.md.
# Their failures still count as failed jobs; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "euler.dump_round_trip": "ROADMAP item 5: zeta-eval from an orbit dump drops rep.u_fraction",
}

CAT_MAP = "model.matrix=2 1 1 1"
IDENTITY_TOL = 1e-12
FROZEN_REL_TOL = 1e-9
# Residual maxima below this level are rounding noise, not truncation error.
FROZEN_RESIDUAL_FLOOR = 1e-12

Failure = tuple[str, str]


@dataclass
class Job:
    """One CLI invocation and the check of its report."""

    name: str
    argv: list[str]
    report: Path
    check: Callable[[dict, dict], list[Failure]]  # (report, reports of this pass so far)


@dataclass
class Workload:
    name: str
    prepare: list[Job]  # untimed; builds input files
    jobs: list[Job]  # one pass
    frozen: Callable[[dict], dict[str, complex]]  # values compared with frozen.json


def _sets(*pairs: str) -> list[str]:
    out: list[str] = []
    for p in pairs:
        out += ["--set", p]
    return out


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _grid(values) -> str:
    return ",".join(repr(x) for x in sorted(values))


def _cx(v) -> complex:
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def _row_log(row: dict) -> complex:
    return complex(row["log_value_re"], row["log_value_im"])


def _close(a: complex, b: complex, tol: float = IDENTITY_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rows_by_lambda(report: dict) -> dict[float, dict[str, complex]]:
    out: dict[float, dict[str, complex]] = {}
    for row in report["results"]["rows"]:
        out.setdefault(row["lambda_re"], {})[row["zeta_kind"]] = _row_log(row)
    return out


def non_finite(obj, path: str = "results") -> list[str]:
    """Paths of every non-finite number inside a decoded report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}[{i}]")]
    return []


# ---------------------------------------------------------------------------
# euler: Euler products from the model, then through an orbit dump
# ---------------------------------------------------------------------------


def _check_assembly(report: dict, top_k: int, sign: int, check_id: str) -> list[Failure]:
    """ruelle == sign * sum_k (-1)^k graded_k for every lambda."""
    fails = []
    for lam, kinds in _rows_by_lambda(report).items():
        assembled = sign * sum((-1) ** k * kinds[f"graded{k}"] for k in range(top_k + 1))
        if not _close(kinds["ruelle"], assembled):
            fails.append((check_id, f"lambda={lam}: ruelle {kinds['ruelle']} != assembled {assembled}"))
    return fails


def _euler(rng: random.Random, size: dict, work: Path) -> Workload:
    a, b = _draw(rng, 0.02, 0.06), _draw(rng, 0.01, 0.04)
    lams = _grid(_draw(rng, 3.0, 5.0) for _ in range(3))
    n = str(size["euler_n"])
    roof = f"model.roof=const:1 cos:1,0:{a!r} sin:0,1:{b!r}"
    # the dump carries no model, so the model's default entropy is passed explicitly
    entropy = math.log((3 + math.sqrt(5)) / 2) / (1 - a - b)
    dump = work / "euler_orbits.txt"
    model_report = work / "euler_model.json"

    def check_model(rep, done):
        return _check_assembly(rep, 2, -1, "euler.graded_assembly")

    def check_orbits(rep, done):
        if rep["results"]["count"] < 1 or not dump.is_file():
            return [("euler.orbit_dump", "orbits wrote no records")]
        return []

    def check_dump(rep, done):
        model = _rows_by_lambda(done["zeta-eval.model"])
        fails = []
        for lam, kinds in _rows_by_lambda(rep).items():
            if not _close(kinds["ruelle"], model[lam]["ruelle"]):
                fails.append(("euler.dump_round_trip",
                              f"lambda={lam}: dump ruelle {kinds['ruelle']} != model {model[lam]['ruelle']}"))
        return fails

    jobs = [
        Job("zeta-eval.model",
            ["zeta-eval", *_sets(CAT_MAP, roof, "rep.u_fraction=0.5", f"policy.n_max={n}",
                                 f"lambda.grid={lams}"), "--out", str(model_report)],
            model_report, check_model),
        Job("orbits",
            ["orbits", *_sets(CAT_MAP, roof, "rep.u_fraction=0.5", f"policy.n_max={n}",
                              f"io.report={work / 'euler_orbits.json'}"), "--out", str(dump)],
            work / "euler_orbits.json", check_orbits),
        Job("zeta-eval.dump",
            ["zeta-eval", *_sets(f"io.orbits={dump}", "rep.u_fraction=0.5", f"policy.n_max={n}",
                                 f"policy.entropy={entropy!r}", f"lambda.grid={lams}"), "--out", str(work / "euler_dump.json")],
            work / "euler_dump.json", check_dump),
    ]

    def frozen(done):
        out = {f"zeta-eval.model:{kind}@{lam!r}": v
               for lam, kinds in _rows_by_lambda(done["zeta-eval.model"]).items()
               for kind, v in kinds.items()}
        # the dump path as it stands (trivial character, ROADMAP item 5): the
        # fix of that defect changes these rows and must freeze them again
        for lam, kinds in _rows_by_lambda(done["zeta-eval.dump"]).items():
            out[f"zeta-eval.dump:ruelle@{lam!r}"] = kinds["ruelle"]
        return out

    return Workload("euler", [], jobs, frozen)


# ---------------------------------------------------------------------------
# variation: variation formula against the direct quotient
# ---------------------------------------------------------------------------


def _variation(rng: random.Random, size: dict, work: Path) -> Workload:
    c = _draw(rng, 0.03, 0.07)
    taus = _grid(_draw(rng, 0.02, 0.2) for _ in range(3))
    report = work / "variation.json"

    def check(rep, done):
        res = rep["results"]
        fails = []
        if not res["max_relative_error"] <= 1e-6:
            fails.append(("variation.relative_error", f"max_relative_error {res['max_relative_error']}"))
        for row in res["rows"]:
            if not row["richardson_diff"] <= 1e-8:
                fails.append(("variation.richardson", f"tau={row['tau']}: {row['richardson_diff']}"))
        return fails

    jobs = [
        Job("variation",
            ["variation", *_sets(CAT_MAP, "model.roof=const:1", f"model.time_change=cos:1,0:{c!r}",
                                 "rep.u_fraction=0.5", f"policy.n_max={size['variation_n']}",
                                 "lambda.value=3", f"tau.grid={taus}"), "--out", str(report)],
            report, check),
    ]

    def frozen(done):
        out = {}
        for row in done["variation"]["results"]["rows"]:
            out[f"variation:ratio@{row['tau']!r}"] = _cx(row["ratio"])
            out[f"variation:direct_quotient@{row['tau']!r}"] = _cx(row["direct_quotient"])
        return out

    return Workload("variation", [], jobs, frozen)


# ---------------------------------------------------------------------------
# continue: cycle-expansion continuation to lambda = 0 and the Fried check
# ---------------------------------------------------------------------------


def _continue(rng: random.Random, size: dict, work: Path) -> Workload:
    a, b = _draw(rng, 0.02, 0.06), _draw(rng, 0.01, 0.04)
    c = _draw(rng, 0.03, 0.07)
    lams = "0," + _grid(_draw(rng, 0.1, 2.0) for _ in range(4))
    lam_big = repr(_draw(rng, 0.1, 2.0))
    roof = f"model.roof=const:1 cos:1,0:{a!r} sin:0,1:{b!r}"
    model = (CAT_MAP, roof, "rep.u_fraction=0.5")

    def check_rows(rep, done):
        fails = []
        for row in rep["results"]["rows"]:
            if not row["reliable"]:
                fails.append(("continue.reliable", f"lambda={row['lambda_re']}: row flagged unreliable"))
        return fails

    def check_fried(rep, done):
        res = rep["results"]
        fails = []
        if res["tolerance_exceeded"]:
            fails.append(("continue.fried_tolerance", f"max_deviation {res['max_deviation']}"))
        at_zero = [r for r in done["zeta-continue"]["results"]["rows"] if r["lambda_re"] == 0.0]
        fried0 = [r for r in res["rows"] if r["tau"] == 0.0]
        if not at_zero or not fried0:
            return fails + [("continue.zeta_at_zero", "no lambda = 0 or tau = 0 row")]
        continued = math.exp(at_zero[0]["log_value_re"])
        if not _close(continued, fried0[0]["zeta_modulus"]):
            fails.append(("continue.zeta_at_zero",
                          f"exp(log zeta(0)) {continued} != fried-check {fried0[0]['zeta_modulus']}"))
        return fails

    def job(name, argv, check):
        report = work / f"{name}.json"
        return Job(name, [*argv, "--out", str(report)], report, check)

    jobs = [
        job("zeta-continue", ["zeta-continue", *_sets(*model, f"policy.n_max={size['continue_n']}",
                                                       f"lambda.grid={lams}")], check_rows),
        job("zeta-continue.big", ["zeta-continue", *_sets(*model, f"policy.n_max={size['continue_big_n']}",
                                                           f"lambda.grid={lam_big}")], check_rows),
        job("fried-check", ["fried-check", *_sets(*model, f"model.time_change=cos:1,0:{c!r}",
                                                   f"policy.n_max={size['fried_n']}",
                                                   "tau.grid=0:0.02:6")], check_fried),
    ]

    def frozen(done):
        out = {}
        for name in ("zeta-continue", "zeta-continue.big"):
            for row in done[name]["results"]["rows"]:
                out[f"{name}:log@{row['lambda_re']!r}"] = _row_log(row)
        for row in done["fried-check"]["results"]["rows"]:
            out[f"fried-check:zeta_modulus@{row['tau']!r}"] = complex(row["zeta_modulus"])
        return out

    return Workload("continue", [], jobs, frozen)


# ---------------------------------------------------------------------------
# selberg: factorization check and Selberg zetas on a generated spectrum
# ---------------------------------------------------------------------------


def _selberg(rng: random.Random, size: dict, work: Path) -> Workload:
    spectrum_seed = rng.randrange(1, 2**31)
    lams = _grid(_draw(rng, 3.0, 5.0) for _ in range(2))
    spectrum = work / "spectrum.txt"
    gen_report = work / "spectrum-gen.json"

    def check_gen(rep, done):
        if rep["results"]["count"] != size["spectrum_count"]:
            return [("selberg.spectrum", f"generator wrote {rep['results']['count']} records")]
        return []

    def check_factorize(rep, done):
        fails = []
        for key, res in rep["results"].items():
            if not res["max_rel_residual"] <= 1e-10:
                fails.append(("selberg.residual", f"{key}: max_rel_residual {res['max_rel_residual']}"))
            curve = [r for _, r in res["residual_curve"]]
            if any(later > earlier for earlier, later in zip(curve, curve[1:])):
                fails.append(("selberg.residual_curve", f"{key}: residual curve increases: {curve}"))
        return fails

    def check_eval(rep, done):
        return _check_assembly(rep, 4, 1, "selberg.graded_assembly")

    prepare = [
        Job("spectrum-gen",
            ["spectrum-gen", *_sets("spectrum.h=2.0", f"spectrum.count={size['spectrum_count']}",
                                    f"spectrum.seed={spectrum_seed}", f"io.report={gen_report}"),
             "--out", str(spectrum)],
            gen_report, check_gen),
    ]
    jobs = [
        Job("selberg-factorize",
            ["selberg-factorize", *_sets(f"io.spectrum={spectrum}", "factorize.k=0,1,2"),
             "--out", str(work / "selberg-factorize.json")],
            work / "selberg-factorize.json", check_factorize),
        Job("zeta-eval.spectrum",
            ["zeta-eval", *_sets(f"io.spectrum={spectrum}", "selberg.mu=sigma:2*nu:1",
                                 f"lambda.grid={lams}"), "--out", str(work / "selberg-zeta-eval.json")],
            work / "selberg-zeta-eval.json", check_eval),
    ]

    def frozen(done):
        out = {}
        for key, res in done["selberg-factorize"]["results"].items():
            out[f"selberg-factorize:{key}:max_rel_residual"] = complex(res["max_rel_residual"])
            for p, r in res["residual_curve"]:
                out[f"selberg-factorize:{key}:residual@p={p}"] = complex(r)
            out[f"selberg-factorize:{key}:log_lhs"] = _cx(res["log_lhs"])
        for lam, kinds in _rows_by_lambda(done["zeta-eval.spectrum"]).items():
            for kind, v in kinds.items():
                out[f"zeta-eval.spectrum:{kind}@{lam!r}"] = v
        return out

    return Workload("selberg", prepare, jobs, frozen)


_FACTORIES = {"euler": _euler, "variation": _variation, "continue": _continue, "selberg": _selberg}


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``, writing under ``work``."""
    rng = random.Random(f"{name}:{seed}")
    return _FACTORIES[name](rng, SIZES[size], work)


def check_frozen(values: dict[str, complex], frozen: dict[str, list[float]]) -> list[Failure]:
    """Compare values with those frozen at the default seed."""
    fails = []
    for key, ref in frozen.items():
        ref_c = complex(*ref)
        if key not in values:
            fails.append(("frozen", f"{key}: missing"))
            continue
        tol = FROZEN_REL_TOL * abs(ref_c)
        if "residual" in key:
            tol = max(tol, FROZEN_RESIDUAL_FLOOR)
        if not abs(values[key] - ref_c) <= tol:
            fails.append(("frozen", f"{key}: {values[key]} != frozen {ref_c}"))
    return fails


def load_frozen(path: Path, workload: str) -> dict[str, list[float]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})
