"""Flat key-value run configuration.

Config files hold ``section.key = value`` lines (``#`` comments allowed);
every key can also be set on the command line with ``--set key=value``,
and the command line wins.  The resolved mapping is echoed into every
report so a run can be reproduced exactly.
"""

from __future__ import annotations

import cmath
import os

from ._record import record
from .characters import IrrepLabel
from .errors import CapacityError, ValidationError, ascii_line
from .kleinian import ComplexLengthRecord, MobiusGenerator, synthetic_spectrum
from .toral import Character, SuspensionModel, ToralAutomorphism
from .trig import TrigPolynomial
from .zetas import TruncationPolicy

__all__ = ["RunConfig", "parse_trig", "parse_complex_list"]

MAX_GRID_POINTS = 1 << 12  # points of a start:step:count grid or a quadrature grid, checked before it is built
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _finite(value, what: str, text: str):
    if not cmath.isfinite(value):
        raise ValidationError(f"{what}: {text!r} is not finite")
    return value


def _number(text: str, what: str, kind=float):
    """``kind(text)`` as a finite number, or a ValidationError naming ``what``."""
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"{what}: {text!r} is not a valid {kind.__name__}") from None
    return _finite(value, what, text)


def _int_list(text: str, what: str) -> list[int]:
    return [_number(tok, what, int) for tok in text.split(",")]


def parse_trig(text: str) -> TrigPolynomial:
    """Parse ``const:<v> cos:<k1>,<k2>:<amp> sin:<k1>,<k2>:<amp> ...``."""
    constant = 0.0
    terms: dict[tuple[int, int], list[float]] = {}
    for token in text.split():
        parts = token.split(":")
        kind = parts[0].lower()
        if kind == "const":
            if len(parts) != 2:
                raise ValidationError(f"bad trig token {token!r}")
            constant += _number(parts[1], f"trig token {token!r}")
        elif kind in ("cos", "sin"):
            if len(parts) != 3:
                raise ValidationError(f"bad trig token {token!r}")
            freq = _int_list(parts[1], f"trig token {token!r}")
            if len(freq) != 2 or freq == [0, 0]:
                raise ValidationError(
                    f"trig token {token!r} needs a nonzero frequency k1,k2; put constants in const:"
                )
            k1, k2 = freq
            amp = _number(parts[2], f"trig token {token!r}")
            slot = terms.setdefault((k1, k2), [0.0, 0.0])
            slot[0 if kind == "cos" else 1] += amp
        else:
            raise ValidationError(f"unknown trig term kind {kind!r}")
    return TrigPolynomial(
        constant=constant,
        terms=tuple((k1, k2, a, b) for (k1, k2), (a, b) in sorted(terms.items())),
    )


def _parse_complex(text: str, what: str) -> complex:
    """A finite complex number; a trailing ``i`` is read as ``j`` (``3+0.5i``)."""
    text = text.strip()
    return _number(text[:-1] + "j" if text.endswith("i") else text, what, complex)


def _nonempty(grid: list, what: str, text: str) -> list:
    if not grid:
        raise ValidationError(f"{what}: {text!r} holds no value")
    return grid


def parse_complex_list(text: str, what: str = "lambda.grid") -> list[complex]:
    grid = [_parse_complex(tok, what) for tok in text.replace(";", ",").split(",") if tok.strip()]
    return _nonempty(grid, what, text)


def _parse_grid(text: str, what: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{what}: {text!r} is not start:step:count")
        start, step = _number(parts[0], what), _number(parts[1], what)
        count = _number(parts[2], what, int)
        if count > MAX_GRID_POINTS:
            raise CapacityError(f"{what}: {count} points exceed the cap of {MAX_GRID_POINTS}")
        grid = [_finite(start + i * step, what, text) for i in range(count)]
    else:
        grid = [_number(tok, what) for tok in text.split(",") if tok.strip()]
    return _nonempty(grid, what, text)


def _require_time_change(model: SuspensionModel, key: str, taus) -> None:
    if model.time_change is None and any(taus):
        raise ValidationError(f"{key}: tau scales model.time_change, which is unset, so a nonzero tau changes nothing")


@record
class RunConfig:
    values: dict[str, str]

    @classmethod
    def load(cls, path: str | None, overrides: list[str] | None = None) -> "RunConfig":
        values: dict[str, str] = {}
        if path:
            if not os.path.exists(path):
                raise ValidationError(f"config file {path!r} does not exist")
            with open(path, "rb") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    raw = ascii_line(path, lineno, raw, "utf-8")
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ValidationError(f"bad config line {raw.rstrip()!r}")
                    key, val = line.split("=", 1)
                    values[key.strip()] = val.strip()
        for item in overrides or []:
            if "=" not in item:
                raise ValidationError(f"bad --set override {item!r}")
            key, val = item.split("=", 1)
            values[key.strip()] = val.strip()
        return cls(values)

    # -- raw access ---------------------------------------------------------

    def get(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        if key in self.values:
            return self.values[key]
        if required:
            raise ValidationError(f"missing required config key {key!r}")
        return default

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.get(key)
        return _number(raw, key, int) if raw is not None else default

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.get(key)
        return _number(raw, key) if raw is not None else default

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.get(key)
        if raw is not None and raw not in _BOOLEANS:
            raise ValidationError(f"{key} = {raw!r} is not a boolean: true, false, 1 or 0")
        return default if raw is None else _BOOLEANS[raw]

    def get_complex(self, key: str, default: complex) -> complex:
        raw = self.get(key)
        return _parse_complex(raw, key) if raw is not None else complex(default)

    def get_int_list(self, key: str, default: str, distinct: bool = False) -> list[int]:
        values = _int_list(self.get(key, default), key)
        if distinct and len(set(values)) < len(values):
            raise ValidationError(f"{key} = {self.get(key)!r} lists an entry twice")
        return values

    def require_path(self, key: str) -> str:
        path = self.get(key, required=True)
        if not os.path.exists(path):
            raise ValidationError(f"{key} = {path!r} does not exist")
        return path

    # -- typed sections ------------------------------------------------------

    def model(self) -> SuspensionModel:
        raw = self.get("model.matrix", required=True)
        entries = [_number(x, "model.matrix", int) for x in raw.replace(",", " ").split()]
        if len(entries) != 4:
            raise ValidationError("model.matrix needs 4 integers")
        auto = ToralAutomorphism(((entries[0], entries[1]), (entries[2], entries[3])))
        roof = parse_trig(self.get("model.roof", "const:1.0"))
        tc_raw = self.get("model.time_change")
        time_change = parse_trig(tc_raw) if tc_raw else None
        return SuspensionModel(auto, roof, time_change)

    def character(self, automorphism: ToralAutomorphism) -> Character:
        frac = self.get_float("rep.u_fraction", 0.0)
        if not -1.0 <= frac <= 1.0:
            raise ValidationError(f"rep.u_fraction = {frac!r} is not an angle fraction in [-1, 1]")
        exps_raw = self.get("rep.fiber_exponents", "")
        orders = automorphism.coker_orders
        if exps_raw.strip():
            exps = tuple(_number(x, "rep.fiber_exponents", int) for x in exps_raw.split())
            if len(exps) != len(orders):
                raise ValidationError("rep.fiber_exponents length must match coker factor count")
        else:
            exps = tuple(0 for _ in orders)
        return Character.from_angle_fraction(frac, orders, exps)

    def policy(self, model: SuspensionModel | None = None, tau: float = 0.0,
               entropy: float | None = None) -> TruncationPolicy:
        """The ``policy.*`` keys that are set, over :class:`TruncationPolicy`'s defaults; an unset entropy is
        ``entropy``, else the model's at ``tau``.

        ``policy.quad_subdiv`` is capped like a grid: its ``2 * quad_subdiv + 1`` quadrature nodes at
        ``MAX_GRID_POINTS``.
        """
        quad_subdiv = self.get_int("policy.quad_subdiv")
        if quad_subdiv is not None and 2 * quad_subdiv + 1 > MAX_GRID_POINTS:
            raise CapacityError(f"policy.quad_subdiv: {2 * quad_subdiv + 1} quadrature nodes exceed the cap "
                                f"of {MAX_GRID_POINTS}")
        entropy = self.get_float("policy.entropy", entropy)
        if entropy is None:
            if model is None:
                raise ValidationError("policy.entropy is required without a model section")
            entropy = model.default_entropy(tau)
        fields = {"max_period": self.get_int("policy.n_max"), "j_max": self.get_int("policy.j_max"),
                  "p_max": self.get_int("policy.p_max"), "entropy": entropy,
                  "tail_tol": self.get_float("policy.tail_tol"), "quad_subdiv": quad_subdiv}
        return TruncationPolicy(**{name: value for name, value in fields.items() if value is not None})

    def tau_value(self, model: SuspensionModel) -> float:
        """``tau.value`` (0 when unset), admissible for ``model`` and refused as :meth:`tau_grid` refuses a node."""
        tau = model.require_tau(self.get_float("tau.value", 0.0))
        _require_time_change(model, "tau.value", [tau])
        return tau

    def tau_grid(self, model: SuspensionModel | None = None, scales_time_change: bool = True) -> list[float]:
        """``tau.grid``, every node admissible for ``model``.

        ``tau`` scales ``model.time_change``, so without one a nonzero node
        would change nothing and is refused; ``scales_time_change=False``
        keeps it, where a command's value at such a node is meaningful
        (``variation``: the derivative in ``tau`` is then 0).
        """
        grid = _parse_grid(self.get("tau.grid", "0.0"), "tau.grid")
        if model is not None:
            for t in grid:
                model.require_tau(t)
            if scales_time_change:
                _require_time_change(model, "tau.grid", grid)
        return grid

    def lambda_grid(self) -> list[complex]:
        return parse_complex_list(self.get("lambda.grid", required=True))

    def selberg_mu(self) -> list[IrrepLabel]:
        """``selberg.mu``: ``kind:degree`` labels joined by ``*``, e.g. ``nu:1*sigma:2``."""
        labels = []
        for token in self.get("selberg.mu", required=True).split("*"):
            fields = token.strip().split(":")
            if len(fields) != 2:
                raise ValidationError(f"selberg.mu: label {token!r} is not kind:degree")
            labels.append(IrrepLabel(fields[0].strip(), _number(fields[1], "selberg.mu", int), 2))
        return labels

    def selberg_cases(self) -> list[tuple[int, int, float, int]]:
        """``ledger.selberg_cases``: ``n,m,s0,kernel_dim`` blocks separated by ``;``."""
        raw = self.get("ledger.selberg_cases", "")
        cases = []
        for block in raw.split(";") if raw.strip() else []:
            fields = block.split(",")
            if len(fields) != 4:
                raise ValidationError(
                    f"ledger.selberg_cases: block {block!r} needs 4 fields n,m,s0,kernel_dim"
                )
            n, m, d = (_number(fields[i], "ledger.selberg_cases", int) for i in (0, 1, 3))
            cases.append((n, m, _number(fields[2], "ledger.selberg_cases"), d))
        return cases

    def synthetic_spectrum(self) -> list[ComplexLengthRecord]:
        """The seeded synthetic spectrum of the ``spectrum.h/count/seed/min_length`` keys."""
        return synthetic_spectrum(
            self.get_float("spectrum.h", 2.0),
            self.get_int("spectrum.count", 200),
            self.get_int("spectrum.seed", 7),
            self.get_float("spectrum.min_length", 1.0),
        )

    def generators(self) -> list[MobiusGenerator]:
        raw = self.get("spectrum.generators", required=True)
        gens = []
        for block in raw.split(";"):
            vals = [_number(x, "spectrum.generators") for x in block.replace(",", " ").split()]
            if len(vals) != 8:
                raise ValidationError("each generator needs 8 floats (re, im for 4 entries)")
            gens.append(
                MobiusGenerator(
                    (
                        (complex(vals[0], vals[1]), complex(vals[2], vals[3])),
                        (complex(vals[4], vals[5]), complex(vals[6], vals[7])),
                    )
                )
            )
        return gens
