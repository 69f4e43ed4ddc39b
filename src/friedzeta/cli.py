"""Command-line surface: thin wrappers over the library operations.

Each command returns its report's results and its CSV; ``main`` times
the run from config load on and writes both.  A command accepts the config
keys of its ``_KNOWN_KEYS`` entry, and its flags follow from them:
``--csv`` where ``io.csv`` is a key, ``--allow-formal`` where
``zeta.allow_formal`` is.

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
from dataclasses import asdict, dataclass

from .config import RunConfig
from .continuation import cycle_zeta
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
    write_spectrum,
)
from .ledgers import condition_enumerate, resonance_multiplicity_ledger, selberg_order_ledger
from .toral import orbit_table, read_orbit_dump, write_orbit_dump
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
    results: dict
    timing_seconds: float

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


def _zeta_csv(rows: list[dict]):
    fields = ("lambda_re", "lambda_im", "log_value_re", "log_value_im", "tail_bound")
    return "lambda_re,lambda_im,log_zeta_re,log_zeta_im,tail", [[r[f] for f in fields] for r in rows]


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
# Commands: each returns its report's results and its CSV as (header, rows),
# or None for a command without one
# ---------------------------------------------------------------------------


def cmd_orbits(cfg: RunConfig, args):
    model = cfg.model()
    tau = cfg.get_float("tau.value", 0.0)
    model.require_tau(tau)
    policy = cfg.policy(model, tau)
    table = orbit_table(model, policy.max_period)
    out = args.out or cfg.get("io.out", required=True)
    write_orbit_dump(out, table, tau)
    return {"count": len(table.period), "path": out}, None


def _refuse_ignored(cfg: RunConfig, source: str, ignored: tuple[str, ...]):
    """Refuse a set key that ``source`` does not read; an entry ending in ``.`` covers its section."""
    for key in sorted(cfg.values):
        if key.startswith(ignored):
            raise ValidationError(f"config key {key!r} does not apply to the {source} source")


def _load_records(cfg: RunConfig):
    """Orbit columns, source name and truncation policy of the spectrum source.

    The source is a kleinian file, an orbit dump or the model section; a
    key the source does not read is refused.  A set ``policy.n_max`` drops
    the dump's orbits of longer period.  Only the model gives a default
    entropy, taken at ``tau.value``.
    """
    if cfg.get("io.spectrum"):
        records = orbit_columns(read_spectrum(cfg.require_path("io.spectrum")))
        _refuse_ignored(cfg, "io.spectrum", ("model.", "rep.", "tau.value", "io.orbits", "policy.n_max"))
        cfg.values.setdefault("policy.entropy", "2.0")
        return records, "spectrum", cfg.policy()
    if cfg.get("io.orbits"):
        dump = read_orbit_dump(cfg.require_path("io.orbits"))
        _refuse_ignored(cfg, "io.orbits", ("model.", "tau.value", "selberg.mu"))
        policy = cfg.policy()
        if cfg.get("policy.n_max") is not None:
            dump = dump.up_to(policy.max_period)
        return orbit_columns(dump), "orbit-dump", policy
    _refuse_ignored(cfg, "model", ("selberg.mu",))
    tau = cfg.get_float("tau.value", 0.0)
    model = cfg.model()
    policy = cfg.policy(model, tau)
    table = orbit_table(model, policy.max_period)
    return orbit_columns(table, cfg.character(model.automorphism), tau), "model", policy


def cmd_zeta_eval(cfg: RunConfig, args):
    records, source, policy = _load_records(cfg)
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
        if mu_raw:
            zv = selberg_log_zeta(records, None, cfg.selberg_mu(), lam, policy, allow)
            rows.append(_zeta_row(f"selberg[{mu_raw}]", zv))
    return {"rows": rows, "source": source}, _zeta_csv(rows)


def cmd_zeta_continue(cfg: RunConfig, args):
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    tau = cfg.get_float("tau.value", 0.0)
    policy = cfg.policy(model, tau)
    rows = []
    for lam in cfg.lambda_grid():
        z = cycle_zeta(model, rep, lam, policy, tau)
        log_value = cmath.log(z.value) if z.value != 0 else complex(float("-inf"), 0.0)
        rows.append(
            {
                "zeta_kind": "cycle-expansion",
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
                "log_value_re": log_value.real,
                "log_value_im": log_value.imag,
                "tail_bound": z.tail_bound,
                "tail_kind": "heuristic",
                "d_values": list(z.d_values),
                "reliable": z.reliable,
                "policy": asdict(policy),
            }
        )
    return {"rows": rows}, _zeta_csv(rows)


def cmd_fried_check(cfg: RunConfig, args):
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
    results = {"rows": rows, "max_deviation": worst, "tolerance": tolerance, "tolerance_exceeded": worst > tolerance}
    csv_rows = [[r["tau"], r["zeta_modulus"], r["deviation"]] for r in rows]
    return results, ("tau,zeta_modulus,deviation", csv_rows)


def cmd_selberg_factorize(cfg: RunConfig, args):
    if cfg.get("io.spectrum"):
        records = orbit_columns(read_spectrum(cfg.require_path("io.spectrum")))
        _refuse_ignored(cfg, "io.spectrum", ("spectrum.count", "spectrum.seed", "spectrum.min_length",
                                             "policy.n_max"))
    else:
        records = orbit_columns(cfg.synthetic_spectrum())
    if cfg.get("policy.entropy") is None:
        cfg.values["policy.entropy"] = str(cfg.get_float("spectrum.h", 2.0))
    policy = cfg.policy()
    lam = cfg.get_complex("lambda.value", 5.0)
    k_list = cfg.get_int_list("factorize.k", "0,1,2")
    p_grid = cfg.get_int_list("factorize.p_grid", "10,20,40")
    results = {}
    csv_rows = []
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
        csv_rows += [[k, p, r] for p, r in curve]
    return results, ("k,p_max,max_rel_residual", csv_rows)


def cmd_variation(cfg: RunConfig, args):
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
    return {"rows": rows, "max_relative_error": worst}, None


def cmd_ledger(cfg: RunConfig, args):
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
    return results, None


def cmd_spectrum_gen(cfg: RunConfig, args):
    kind = cfg.get("spectrum.kind", "synthetic")
    results: dict = {"kind": kind}
    if kind == "synthetic":
        records = cfg.synthetic_spectrum()
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
    return results, None


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

# Config keys each command reads.  policy.workers is accepted everywhere and
# warned about; model and rep keys are shared by every command on the model.
_MODEL_KEYS = {"model.matrix", "model.roof", "model.time_change", "rep.u_fraction", "rep.fiber_exponents"}
_POLICY_KEYS = {"policy.n_max", "policy.j_max", "policy.p_max", "policy.entropy", "policy.tail_tol",
                "policy.quad_subdiv"}
_SPECTRUM_KEYS = {"spectrum.h", "spectrum.count", "spectrum.seed", "spectrum.min_length"}
_KNOWN_KEYS = {
    "orbits": _MODEL_KEYS | _POLICY_KEYS | {"tau.value", "io.out"},
    "zeta-eval": _MODEL_KEYS | _POLICY_KEYS | {"tau.value", "lambda.grid", "selberg.mu", "zeta.allow_formal",
                                              "io.spectrum", "io.orbits", "io.csv"},
    "zeta-continue": _MODEL_KEYS | _POLICY_KEYS | {"tau.value", "lambda.grid", "io.csv"},
    "fried-check": _MODEL_KEYS | _POLICY_KEYS | {"tau.grid", "fried.tolerance", "io.csv"},
    "selberg-factorize": _SPECTRUM_KEYS | _POLICY_KEYS | {"io.spectrum", "lambda.value", "factorize.k",
                                                          "factorize.p_grid", "io.csv"},
    "variation": _MODEL_KEYS | _POLICY_KEYS | {"lambda.value", "tau.grid"},
    "ledger": {"ledger.k_list", "ledger.h0", "ledger.h1", "ledger.selberg_cases"},
    "spectrum-gen": _SPECTRUM_KEYS | {"spectrum.kind", "spectrum.generators", "spectrum.l_max", "io.out"},
}

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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are validation errors: one ``error:`` line, exit 1."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="friedzeta",
        description="Dynamical zeta functions, cycle-expansion continuation and torsion checks.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, known in _KNOWN_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (wins over the file)")
        p.add_argument("--out", help="output path (overrides io.out / report path)")
        if "io.csv" in known:
            p.add_argument("--csv", help="CSV output path (overrides io.csv)")
        if "zeta.allow_formal" in known:
            p.add_argument("--allow-formal", action="store_true",
                           help="acknowledge evaluation outside the convergence region")
    return parser


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        t0 = time.perf_counter()
        cfg = RunConfig.load(args.config, args.set)
        known = _KNOWN_KEYS[args.command]
        unknown = sorted(cfg.values.keys() - known - {"io.report", "policy.workers"})
        if unknown:
            raise ValidationError(f"unknown config key {', '.join(map(repr, unknown))} for {args.command}")
        if cfg.get("policy.workers") is not None:
            print("warning: policy.workers is ignored: the Birkhoff kernel runs on one thread",
                  file=sys.stderr)
        results, csv = _COMMANDS[args.command](cfg, args)
        report = Report(args.command, cfg.values, results, time.perf_counter() - t0)
        # a command that writes a data file to --out sends its report to io.report only
        report.write(cfg.get("io.report") if "io.out" in known else args.out or cfg.get("io.report"))
        csv_path = getattr(args, "csv", None) or cfg.get("io.csv")
        if csv and csv_path:
            _write_csv(csv_path, *csv)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input file that cannot be read, an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FriedzetaError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())
