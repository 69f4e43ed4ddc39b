"""Command-line surface: thin wrappers over the library operations.

Exit codes: 0 success, 1 validation or usage error, 2 convergence,
capacity or continuation failure.  Every report echoes the resolved
configuration so the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from .config import RunConfig
from .continuation import check_resonance_at_zero, dynamical_determinant, trace_sums
from .errors import (
    CapacityError,
    ConvergenceError,
    FriedzetaError,
    ValidationError,
)
from .kleinian import (
    disc_separation_report,
    read_spectrum,
    schottky_spectrum,
    synthetic_spectrum,
    write_spectrum,
)
from .ledgers import condition_enumerate, resonance_multiplicity_ledger, selberg_order_ledger
from .toral import orbit_records, orbit_table, read_orbit_dump, write_orbit_dump
from .torsion import fried_check
from .variation import direct_quotient, variation_rhs
from .zetas import (
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    orbit_columns,
    ruelle_log_zeta,
    selberg_log_zeta,
)

__all__ = ["main", "entrypoint"]


@dataclass
class Report:
    command: str
    config: dict[str, str]
    results: dict = field(default_factory=dict)
    timing_seconds: float = 0.0

    def write(self, path: str | None):
        payload = json.dumps(asdict(self), indent=2, default=_jsonify)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)


def _jsonify(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


def _write_zeta_csv(path: str, rows: list[dict]):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("lambda_re,lambda_im,log_zeta_re,log_zeta_im,tail\n")
        for r in rows:
            fh.write(
                f"{r['lambda_re']!r},{r['lambda_im']!r},"
                f"{r['log_value_re']!r},{r['log_value_im']!r},{r['tail_bound']!r}\n"
            )


def _zeta_row(kind: str, zv) -> dict:
    return {
        "zeta_kind": kind,
        "lambda_re": zv.lam.real,
        "lambda_im": zv.lam.imag,
        "log_value_re": zv.log_value.real,
        "log_value_im": zv.log_value.imag,
        "tail_bound": zv.tail_bound,
        "tail_kind": "heuristic",
        "policy": asdict(zv.policy),
        "warnings": list(zv.warnings),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_orbits(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    model = cfg.model()
    tau = cfg.get_float("tau.value", 0.0)
    model.require_tau(tau)
    policy = cfg.policy(model, tau)
    records = orbit_records(model, policy.max_period, tau=tau)
    out = args.out or cfg.get("io.out", required=True)
    write_orbit_dump(out, records)
    report = Report("orbits", cfg.values, {"count": len(records), "path": out})
    report.timing_seconds = time.perf_counter() - t0
    report.write(cfg.get("io.report"))
    return 0


def _load_records(cfg: RunConfig, args):
    """Orbit columns of the spectrum source: kleinian file, orbit dump, or the model section."""
    if cfg.get("io.spectrum"):
        return orbit_columns(read_spectrum(cfg.require_path("io.spectrum"))), "spectrum"
    if cfg.get("io.orbits"):
        return orbit_columns(read_orbit_dump(cfg.require_path("io.orbits"))), "orbit-dump"
    model = cfg.model()
    tau = cfg.get_float("tau.value", 0.0)
    table = orbit_table(model, cfg.policy(model, tau).max_period)
    return orbit_columns(table, cfg.character(model.automorphism), tau), "model"


def cmd_zeta_eval(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    records, source = _load_records(cfg, args)
    model = cfg.model() if source == "model" else None
    if source == "spectrum" and cfg.get("policy.entropy") is None:
        cfg.values["policy.entropy"] = "2.0"
    policy = cfg.policy(model)
    allow = bool(args.allow_formal or cfg.get("zeta.allow_formal"))
    rows = []
    for lam in cfg.lambda_grid():
        rows.append(_zeta_row("ruelle", ruelle_log_zeta(records, None, lam, policy, allow)))
        if source != "orbit-dump":
            for k in range(3 if source == "model" else 5):
                rows.append(
                    _zeta_row(f"graded{k}", graded_log_zeta(records, None, k, lam, policy, allow))
                )
        mu_raw = cfg.get("selberg.mu")
        if mu_raw and source == "spectrum":
            zv = selberg_log_zeta(records, None, cfg.selberg_mu(), lam, policy, allow)
            rows.append(_zeta_row(f"selberg[{mu_raw}]", zv))
    report = Report("zeta-eval", cfg.values, {"rows": rows, "source": source})
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    csv_path = args.csv or cfg.get("io.csv")
    if csv_path:
        _write_zeta_csv(csv_path, rows)
    return 0


def cmd_zeta_continue(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    tau = cfg.get_float("tau.value", 0.0)
    policy = cfg.policy(model, tau)
    rows = []
    for lam in cfg.lambda_grid():
        pre = trace_sums(model, rep, lam, policy.max_period, tau)
        dets = [
            dynamical_determinant(
                model, rep, k, lam, policy.max_period, tau=tau,
                tail_tol=policy.tail_tol, _precomputed=pre,
            )
            for k in range(3)
        ]
        check_resonance_at_zero(dets)
        product = dets[1].value / (dets[0].value * dets[2].value)
        rows.append(
            {
                "zeta_kind": "cycle-expansion",
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
                "log_value_re": cmath.log(product).real if product != 0 else float("-inf"),
                "log_value_im": cmath.log(product).imag if product != 0 else 0.0,
                "tail_bound": max(abs(d.coefficients[-1]) for d in dets),
                "tail_kind": "heuristic",
                "d_values": [d.value for d in dets],
                "reliable": all(d.reliable for d in dets),
                "policy": asdict(policy),
            }
        )
    report = Report("zeta-continue", cfg.values, {"rows": rows})
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    csv_path = args.csv or cfg.get("io.csv")
    if csv_path:
        _write_zeta_csv(csv_path, rows)
    return 0


def cmd_fried_check(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    taus = cfg.tau_grid(model)
    tolerance = cfg.get_float("fried.tolerance", 1e-6)
    rows = []
    worst = 0.0
    for tau in taus:
        policy = cfg.policy(model, tau)
        fr = fried_check(model, rep, policy, tau=tau)
        worst = max(worst, fr.deviation)
        rows.append(
            {
                "tau": tau,
                "zeta_modulus": fr.zeta_modulus,
                "torsion_modulus": fr.torsion_modulus,
                "deviation": fr.deviation,
                "exponent": fr.exponent,
                "reliable": fr.reliable,
            }
        )
    exceeded = worst > tolerance
    report = Report(
        "fried-check",
        cfg.values,
        {"rows": rows, "max_deviation": worst, "tolerance": tolerance, "tolerance_exceeded": exceeded},
    )
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    csv_path = args.csv or cfg.get("io.csv")
    if csv_path:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("tau,zeta_modulus,deviation\n")
            for r in rows:
                fh.write(f"{r['tau']!r},{r['zeta_modulus']!r},{r['deviation']!r}\n")
    return 0


def cmd_selberg_factorize(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    if cfg.get("io.spectrum"):
        records = read_spectrum(cfg.require_path("io.spectrum"))
    else:
        records = synthetic_spectrum(
            cfg.get_float("spectrum.h", 2.0),
            cfg.get_int("spectrum.count", 200),
            cfg.get_int("spectrum.seed", 7),
            cfg.get_float("spectrum.min_length", 1.0),
        )
    records = orbit_columns(records)
    if cfg.get("policy.entropy") is None:
        cfg.values["policy.entropy"] = str(cfg.get_float("spectrum.h", 2.0))
    policy = cfg.policy()
    lam = cfg.get_complex("lambda.value", 5.0)
    k_list = cfg.get_int_list("factorize.k", "0,1,2")
    p_grid = cfg.get_int_list("factorize.p_grid", "10,20,40")
    results = {}
    for k in k_list:
        rep = factorization_check(records, None, k, lam, policy)
        curve = factorization_residual_curve(records, None, k, lam, policy, p_grid)
        results[f"k={k}"] = {
            "max_rel_residual": rep.max_rel_residual,
            "max_abs_residual": rep.max_abs_residual,
            "log_lhs": rep.log_lhs,
            "log_rhs": rep.log_rhs,
            "log_difference": abs(rep.log_lhs - rep.log_rhs),
            "p_max": rep.p_max,
            "residual_curve": curve,
        }
    report = Report("selberg-factorize", cfg.values, results)
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    csv_path = args.csv or cfg.get("io.csv")
    if csv_path:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("k,p_max,max_rel_residual\n")
            for k in k_list:
                for p, r in results[f"k={k}"]["residual_curve"]:
                    fh.write(f"{k},{p},{r!r}\n")
    return 0


def cmd_variation(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    lam = cfg.get_complex("lambda.value", 3.0)
    taus = cfg.tau_grid(model)
    rows = []
    worst = 0.0
    for tau in taus:
        policy = cfg.policy(model, tau)
        vr = variation_rhs(model, rep, lam, tau, policy)
        dq = direct_quotient(model, rep, lam, tau, policy)
        rel = abs(vr.ratio - dq) / abs(dq) if dq != 0 else float("inf")
        worst = max(worst, rel)
        rows.append(
            {
                "tau": tau,
                "ratio": vr.ratio,
                "direct_quotient": dq,
                "relative_error": rel,
                "richardson_diff": vr.richardson_diff,
                "integrand_residual": vr.integrand_residual,
            }
        )
    report = Report("variation", cfg.values, {"rows": rows, "max_relative_error": worst})
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    return 0


def cmd_ledger(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    results = {}
    k_list = cfg.get_int_list("ledger.k_list", "0,1,2")
    results["condition_cases"] = {f"k={k}": condition_enumerate(k) for k in k_list}
    h0 = cfg.get_int("ledger.h0", 0)
    h1 = cfg.get_int("ledger.h1", 0)
    results["multiplicities"] = resonance_multiplicity_ledger(h0, h1)
    cases = cfg.selberg_cases()
    if cases:
        results["selberg_orders"] = [
            {"n": n, "m": m, "s0": s0, "kernel_dim": d, "order": selberg_order_ledger(n, m, s0, d)}
            for n, m, s0, d in cases
        ]
    report = Report("ledger", cfg.values, results)
    report.timing_seconds = time.perf_counter() - t0
    report.write(args.out or cfg.get("io.report"))
    return 0


def cmd_spectrum_gen(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    kind = cfg.get("spectrum.kind", "synthetic")
    results: dict = {"kind": kind}
    if kind == "synthetic":
        records = synthetic_spectrum(
            cfg.get_float("spectrum.h", 2.0),
            cfg.get_int("spectrum.count", 200),
            cfg.get_int("spectrum.seed", 7),
            cfg.get_float("spectrum.min_length", 1.0),
        )
    elif kind == "schottky":
        gens = cfg.generators()
        records = schottky_spectrum(gens, cfg.get_int("spectrum.l_max", 4))
        disc = disc_separation_report(gens)
        results["disc_separation"] = {
            "applicable": disc.applicable,
            "separated": disc.separated,
            "min_gap": disc.min_gap,
        }
    else:
        raise ValidationError(f"unknown spectrum.kind {kind!r}")
    out = args.out or cfg.get("io.out", required=True)
    write_spectrum(out, records)
    results.update(
        {
            "count": len(records),
            "min_length": min((r.length for r in records), default=None),
            "max_length": max((r.length for r in records), default=None),
            "path": out,
        }
    )
    report = Report("spectrum-gen", cfg.values, results)
    report.timing_seconds = time.perf_counter() - t0
    report.write(cfg.get("io.report"))
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "orbits": cmd_orbits,
    "zeta-eval": cmd_zeta_eval,
    "zeta-continue": cmd_zeta_continue,
    "fried-check": cmd_fried_check,
    "selberg-factorize": cmd_selberg_factorize,
    "variation": cmd_variation,
    "ledger": cmd_ledger,
    "spectrum-gen": cmd_spectrum_gen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedzeta",
        description="Dynamical zeta functions, cycle-expansion continuation and torsion checks.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (wins over the file)")
        p.add_argument("--out", help="output path (overrides io.out / report path)")
        p.add_argument("--csv", help="CSV output path (overrides io.csv)")
        p.add_argument("--allow-formal", action="store_true",
                       help="acknowledge evaluation outside the convergence region")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = RunConfig.load(args.config, args.set)
        if cfg.get("policy.workers") is not None:
            print("warning: policy.workers is ignored: the Birkhoff kernel runs on one thread",
                  file=sys.stderr)
        return _COMMANDS[args.command](cfg, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FriedzetaError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())
