"""Command-line surface: thin wrappers over the library operations.

Each command takes the resolved :class:`RunConfig` alone and returns its
report's results and its CSV; ``main`` times the run from config load on
and writes both.  A command accepts the config keys of its ``_KNOWN_KEYS``
entry.  One parser reads ``argv`` into a command, a config file and
overrides: ``--set key=value`` sets any key, and every other flag is an
alias of one key, which a command takes exactly when it reads that key
(``--out`` is ``io.out`` where that is a key, else ``io.report``).  A flag
wins over ``--set``, which wins over the file.

Exit codes: 0 success or help, 1 validation or usage error, 2
convergence, capacity or continuation failure.  Every report echoes the
resolved configuration, flags included, so ``--set`` of its keys alone
reproduces the run.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from ._record import asdict, record, replace
from .config import RunConfig
from .continuation import cycle_zetas
from .errors import FriedzetaError, ValidationError
from .kleinian import (
    disc_separation_report,
    read_spectrum,
    schottky_spectrum,
    write_spectrum,
)
from .ledgers import condition_enumerate, resonance_multiplicity_ledger, selberg_order_ledger
from .toral import orbit_table, read_orbit_dump, write_orbit_dump
from .torsion import fried_checks
from .variation import direct_quotient, variation_rhs
from .zetas import (
    TruncationPolicy,
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    orbit_columns,
    ruelle_log_zeta,
    selberg_log_zeta,
)

gc.freeze()  # what the imports built lives as long as the process: no collection, nor the one at exit, walks it

__all__ = ["main", "entrypoint"]


@record
class Report:
    command: str
    config: dict[str, str]
    results: dict
    timing_seconds: float

    def write(self, path: str | None):
        payload = json.dumps(vars(self), indent=2, default=_jsonify)  # the fields, in order
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


def cmd_orbits(cfg: RunConfig):
    model = cfg.model()
    tau = cfg.tau_value(model)
    policy = cfg.policy(model, tau)
    table = orbit_table(model, policy.max_period)
    out = cfg.get("io.out", required=True)
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
    the dump's orbits of longer period; without it the policy's depth is
    the dump's deepest period.  The entropy defaults to 2 for a kleinian
    file and to the model's own at ``tau.value``; a dump needs it set.
    """
    if cfg.get("io.spectrum"):
        cols = orbit_columns(read_spectrum(cfg.require_path("io.spectrum")))
        _refuse_ignored(cfg, "io.spectrum", ("model.", "rep.", "tau.value", "io.orbits", "policy.n_max"))
        return cols, "spectrum", cfg.policy(entropy=2.0)
    if cfg.get("io.orbits"):
        dump = read_orbit_dump(cfg.require_path("io.orbits"))
        _refuse_ignored(cfg, "io.orbits", ("model.", "tau.value", "selberg.mu"))
        policy = cfg.policy()
        if cfg.get("policy.n_max") is not None:
            dump = dump.up_to(policy.max_period)
        elif len(dump):
            policy = replace(policy, max_period=int(dump.period.max()))
        return orbit_columns(dump), "orbit-dump", policy
    _refuse_ignored(cfg, "model", ("selberg.mu",))
    model = cfg.model()
    tau = cfg.tau_value(model)
    policy = cfg.policy(model, tau)
    table = orbit_table(model, policy.max_period)
    return orbit_columns(table, cfg.character(model.automorphism), tau), "model", policy


def cmd_zeta_eval(cfg: RunConfig):
    cols, source, policy = _load_records(cfg)
    allow = cfg.get_bool("zeta.allow_formal", False)
    rows = []
    for lam in cfg.lambda_grid():
        rows.append(_zeta_row("ruelle", ruelle_log_zeta(cols, lam, policy, allow)))
        if source != "orbit-dump":
            for k in range(3 if source == "model" else 5):
                rows.append(_zeta_row(f"graded{k}", graded_log_zeta(cols, k, lam, policy, allow)))
        mu_raw = cfg.get("selberg.mu")
        if mu_raw:
            zv = selberg_log_zeta(cols, cfg.selberg_mu(), lam, policy, allow)
            rows.append(_zeta_row(f"selberg[{mu_raw}]", zv))
    return {"rows": rows, "source": source}, _zeta_csv(rows)


def cmd_zeta_continue(cfg: RunConfig):
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    tau = cfg.tau_value(model)
    policy = cfg.policy(model, tau)
    rows = []
    lams = cfg.lambda_grid()
    for lam, z in zip(lams, cycle_zetas(model, rep, lams, policy, tau)):
        rows.append(
            {
                "zeta_kind": "cycle-expansion",
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
                "log_value_re": z.log_value.real,
                "log_value_im": z.log_value.imag,
                "tail_bound": z.tail_bound,
                "tail_kind": "heuristic",
                "d_values": list(z.d_values),
                "reliable": z.reliable,
                "policy": asdict(policy),
                "n_used": [d.n_used for d in z.determinants],
                "warnings": list(dict.fromkeys(w for d in z.determinants for w in d.warnings)),
            }
        )
    return {"rows": rows}, _zeta_csv(rows)


def cmd_fried_check(cfg: RunConfig):
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    taus = cfg.tau_grid(model)
    tolerance = cfg.get_float("fried.tolerance", 1e-6)
    if tolerance <= 0:
        raise ValidationError("fried.tolerance must be positive")
    rows = []
    worst = 0.0
    for tau, fr in zip(taus, fried_checks(model, rep, cfg.policy(model, taus[0]), taus)):
        worst = max(worst, fr.deviation)
        rows.append(
            {
                "tau": tau,
                "zeta_modulus": fr.zeta_modulus,
                "torsion_modulus": fr.torsion_modulus,
                "deviation": fr.deviation,
                "exponent": fr.exponent,
                "reliable": fr.reliable,
                "zeta_value": fr.zeta_value,
                "torsion_value": fr.torsion_value,
                "phase_deviation": fr.phase_deviation,
            }
        )
    results = {"rows": rows, "max_deviation": worst, "tolerance": tolerance, "tolerance_exceeded": worst > tolerance}
    csv_rows = [[r["tau"], r["zeta_modulus"], r["deviation"]] for r in rows]
    return results, ("tau,zeta_modulus,deviation", csv_rows)


def cmd_selberg_factorize(cfg: RunConfig):
    if cfg.get("io.spectrum"):
        cols = orbit_columns(read_spectrum(cfg.require_path("io.spectrum")))
        _refuse_ignored(cfg, "io.spectrum", ("spectrum.",))
    else:
        cols = orbit_columns(cfg.synthetic_spectrum())
    policy = cfg.policy(entropy=TruncationPolicy.entropy)  # the factorization reads j_max and p_max only
    lam = cfg.get_complex("lambda.value", 5.0)
    k_list = cfg.get_int_list("factorize.k", "0,1,2", distinct=True)
    p_grid = cfg.get_int_list("factorize.p_grid", "10,20,40")
    results = {}
    csv_rows = []
    for k in k_list:
        rep = factorization_check(cols, k, lam, policy)
        curve = factorization_residual_curve(cols, k, lam, policy, p_grid)
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


def cmd_variation(cfg: RunConfig):
    model = cfg.model()
    rep = cfg.character(model.automorphism)
    lam = cfg.get_complex("lambda.value", 3.0)
    taus = cfg.tau_grid(model, scales_time_change=False)
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
            }
        )
    return {"rows": rows, "max_relative_error": worst}, None


def cmd_ledger(cfg: RunConfig):
    results = {}
    k_list = cfg.get_int_list("ledger.k_list", "0,1,2", distinct=True)
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


def cmd_spectrum_gen(cfg: RunConfig):
    kind = cfg.get("spectrum.kind", "synthetic")
    results: dict = {"kind": kind}
    if kind == "synthetic":
        _refuse_ignored(cfg, kind, ("spectrum.generators", "spectrum.l_max"))
        records = cfg.synthetic_spectrum()
    elif kind == "schottky":
        _refuse_ignored(cfg, kind, tuple(_SPECTRUM_KEYS))
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
    out = cfg.get("io.out", required=True)
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

# Config keys each command reads; model and rep keys are shared by every
# command on the model, and every command reads io.report, its report's path.
_MODEL_KEYS = {"model.matrix", "model.roof", "model.time_change", "rep.u_fraction", "rep.fiber_exponents"}
_SPECTRUM_KEYS = {"spectrum.h", "spectrum.count", "spectrum.seed", "spectrum.min_length"}
_KNOWN_KEYS = {command: keys | {"io.report"} for command, keys in {
    "orbits": _MODEL_KEYS | {"policy.n_max", "tau.value", "io.out"},
    "zeta-eval": _MODEL_KEYS | {"policy.n_max", "policy.j_max", "policy.entropy", "policy.tail_tol", "tau.value",
                                "lambda.grid", "selberg.mu", "zeta.allow_formal", "io.spectrum", "io.orbits",
                                "io.csv"},
    "zeta-continue": _MODEL_KEYS | {"policy.n_max", "policy.tail_tol", "tau.value", "lambda.grid", "io.csv"},
    "fried-check": _MODEL_KEYS | {"policy.n_max", "policy.tail_tol", "tau.grid", "fried.tolerance", "io.csv"},
    "selberg-factorize": _SPECTRUM_KEYS | {"policy.j_max", "policy.p_max", "io.spectrum", "lambda.value",
                                           "factorize.k", "factorize.p_grid", "io.csv"},
    "variation": _MODEL_KEYS | {"policy.n_max", "policy.j_max", "policy.entropy", "policy.quad_subdiv",
                                "lambda.value", "tau.grid"},
    "ledger": {"ledger.k_list", "ledger.h0", "ledger.h1", "ledger.selberg_cases"},
    "spectrum-gen": _SPECTRUM_KEYS | {"spectrum.kind", "spectrum.generators", "spectrum.l_max", "io.out"},
}.items()}

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


_HELP = ("-h", "--help")


def _flag_keys(command: str) -> dict[str, str]:
    """Each flag of ``command`` but ``--config`` and ``--set``, and the ``key=value`` it sets (``{}`` its value).

    A flag is one config key, and a command takes it exactly when it reads that key.
    """
    known = _KNOWN_KEYS[command]
    keys = {"--out": "io.out={}" if "io.out" in known else "io.report={}", "--csv": "io.csv={}",
            "--allow-formal": "zeta.allow_formal=true"}
    return {flag: key for flag, key in keys.items() if key.split("=")[0] in known}


def _match(token: str, flags) -> str | None:
    """The flag of ``flags`` that ``token`` spells in full or by a unique prefix (``--se``), else None."""
    prefix = token.startswith("--") and token != "--"
    matches = [flag for flag in flags if flag == token or prefix and flag.startswith(token)]
    if len(matches) > 1:
        raise ValidationError(f"ambiguous option: {token} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _help(command: str | None) -> str:
    """The usage; for a command, its flags and the config keys it accepts."""
    usage = f"usage: friedzeta {command or 'COMMAND'} [-h] [--config PATH] [--set KEY=VALUE]... [FLAG]...\n\n"
    if command is None:
        return f"{usage}commands: {', '.join(_COMMANDS)}\nfriedzeta COMMAND --help lists its flags and config keys."
    flags = [f"  {flag + ' VALUE' * ('{}' in key):<18} sets {key.format('VALUE')}"
             for flag, key in _flag_keys(command).items()]
    return "\n".join([usage + "flags (a flag wins over --set, which wins over the --config file):", *flags,
                      "config keys:", *(f"  {key}" for key in sorted(_KNOWN_KEYS[command]))])


def _parse(argv: list[str]) -> tuple[str, str | None, list[str]] | str:
    """``argv`` as ``(command, config file, overrides)``, or the help text that ``-h`` or ``--help`` asks for.

    A flag is spelled in full or by a unique prefix, its value in the next token (not starting with ``-``)
    or after ``=``.  The overrides are the ``--set`` items, then each flag's ``key=value``, so a flag wins.
    A usage error raises :class:`ValidationError`.
    """
    if argv and argv[0] not in _COMMANDS and _match(argv[0], _HELP):
        return _help(None)
    if not argv or argv[0] not in _COMMANDS:
        raise ValidationError(f"{f'unknown command {argv[0]!r}' if argv else 'no command'}: choose from "
                              f"{', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    options = {"--config": "{}", "--set": "{}"} | _flag_keys(command)
    config, sets, flag_sets = None, [], []
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = _match(name, [*_HELP, *options])
        if flag is None:
            raise ValidationError(f"unrecognized argument {token!r} for {command}")
        takes_value = "{}" in options.get(flag, "")
        if eq and not takes_value:
            raise ValidationError(f"argument {flag}: takes no value")
        if flag in _HELP:
            return _help(command)
        if takes_value and not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                raise ValidationError(f"argument {flag}: expected one value")
        if flag == "--config":
            config = value
        else:
            (sets if flag == "--set" else flag_sets).append(options[flag].format(value))
    return command, config, sets + flag_sets


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _parse(argv)
        if isinstance(parsed, str):
            print(parsed)
            return 0
        command, config, overrides = parsed
        t0 = time.perf_counter()
        cfg = RunConfig.load(config, overrides)
        unknown = sorted(cfg.values.keys() - _KNOWN_KEYS[command])
        if unknown:
            raise ValidationError(f"unknown config key {', '.join(map(repr, unknown))} for {command}")
        results, csv = _COMMANDS[command](cfg)
        Report(command, cfg.values, results, time.perf_counter() - t0).write(cfg.get("io.report"))
        if csv and cfg.get("io.csv"):
            _write_csv(cfg.get("io.csv"), *csv)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input file that cannot be read, an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1
    except FriedzetaError as exc:  # a convergence, capacity or continuation failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())
