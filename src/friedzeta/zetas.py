"""Truncated Euler products: Ruelle, graded and Selberg zeta functions.

Every product takes :class:`OrbitColumns`, built once per spectrum by
:func:`orbit_columns`, and is one (orbit x iterate) array, with iterate
powers taken by ``np.cumprod``, summed by
:func:`~friedzeta.summation.block_sum`, so values are reproducible bit for
bit.  A graded, Selberg or factorization term is a phase
``-multiplicity rho^j exp(-lam j len) / j``, built once per λ, times a
λ-free weight; the wedge-trace ratios
``Tr(wedge^k P^j) / |det(1 - P^j)|`` and the Kleinian tables are built once
per columns and ``j_max``.  All are kept on the columns.  The n0 = 2
Poincaré data and characters are closed forms; ``poincare_data`` and
``char_sigma`` are their references in the tests.
Tail bounds are Margulis-type geometric estimates anchored on the last
length shell actually summed.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from ._record import fields, record
from .characters import IrrepLabel
from .errors import CapacityError, ConvergenceError, ValidationError
from .kleinian import ComplexLengthRecord
from .summation import block_sum
from .toral import Character, OrbitDump, OrbitRecord, OrbitTable
from .trig import TWO_PI

__all__ = [
    "TruncationPolicy",
    "ZetaValue",
    "OrbitColumns",
    "orbit_columns",
    "ruelle_log_zeta",
    "graded_log_zeta",
    "assemble_ruelle_from_graded",
    "AssemblyReport",
    "selberg_log_zeta",
    "factorization_check",
    "factorization_residual_curve",
    "FactorizationReport",
    "guillemin_series",
]

N0 = 2  # transverse rotation rank for the hyperbolic 3-manifold model
MAX_CELLS = 1 << 24  # (orbit x iterate x order) array cells; bounds the temporaries
# |sum_k (-1)^k Tr(wedge^k P^j) / |det(1 - P^j)| - eps^j| above this breaks the sign convention
RESIDUAL_TOL = 1e-12


@record
class TruncationPolicy:
    """Truncation and tolerance knobs shared by the zeta operations."""

    max_period: int = 12
    j_max: int = 16
    p_max: int = 60
    entropy: float = 1.0
    tail_tol: float = 1e-12
    quad_subdiv: int = 16

    def __post_init__(self):
        if self.max_period < 1 or self.j_max < 1 or self.p_max < 0:
            raise ValidationError("truncation orders must be positive")
        if self.entropy <= 0 or self.tail_tol <= 0:
            raise ValidationError("entropy and tail tolerance must be positive")
        if self.quad_subdiv < 2 or self.quad_subdiv % 2:
            raise ValidationError("quad_subdiv must be a positive even count")


@record
class ZetaValue:
    """Log-domain zeta value with its truncation tail estimate."""

    log_value: complex
    tail_bound: float
    lam: complex
    kind: str
    policy: TruncationPolicy
    warnings: tuple[str, ...] = ()

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


# ---------------------------------------------------------------------------
# Orbit columns and (orbit x iterate) arrays
# ---------------------------------------------------------------------------


@record(eq=False)
class OrbitColumns:
    """Read-only columns of a spectrum, one row per primitive orbit in ``sort_key`` order.

    ``rho`` is the twist's value on each orbit and ``epsilon`` its
    orientation index.  Toral rows carry the eigenvalues ``lam_u``,
    ``lam_s`` of the transverse return map and ``det_power = det(A)^period``
    (``nan`` eigenvalues for orbit-dump rows); Kleinian rows carry the
    holonomy angle ``theta`` instead.  Arrays derived from the columns (the
    wedge-trace ratios, the current λ's phases, the Kleinian iterates and the
    factorization's tables) are kept with them and freed with them, as is
    ``variation.direct_quotient``'s τ = 0 Ruelle log.
    """

    length: np.ndarray
    rho: np.ndarray
    epsilon: np.ndarray
    multiplicity: np.ndarray
    lam_u: np.ndarray | None = None
    lam_s: np.ndarray | None = None
    det_power: np.ndarray | None = None
    theta: np.ndarray | None = None

    def __post_init__(self):
        for column in (getattr(self, name) for name in fields(self)):
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        object.__setattr__(self, "_derived", {})

    def __len__(self) -> int:
        return len(self.length)


def orbit_columns(spectrum, representation=None, tau: float = 0.0) -> OrbitColumns:
    """Columns of an :class:`OrbitTable` (lengths at ``tau``), an :class:`OrbitDump` or a list of records.

    This is where a spectrum and its twist become the columns every Euler
    product takes.  Toral orbits take a :class:`Character` twist (``None``
    is trivial); Kleinian records carry their own ``rho`` and take none.
    """
    if isinstance(spectrum, OrbitTable):
        return _table_columns(spectrum, representation, float(tau))
    if tau:
        raise ValidationError("tau applies to an orbit table; dumps and records carry their lengths")
    if isinstance(spectrum, OrbitDump):
        nan = np.full(len(spectrum), math.nan)
        return _toral_columns(representation, spectrum.class_exps, spectrum.length, spectrum.period,
                              spectrum.num1, spectrum.num2, spectrum.epsilon, nan, nan,
                              np.zeros(len(spectrum), dtype=np.int64), spectrum.winding)
    records = list(spectrum)
    if records and all(isinstance(r, OrbitRecord) for r in records):  # the tests' per-record oracles
        names = ("length", "period", "num1", "num2", "epsilon", "lam_u", "lam_s", "det_power", "winding")
        class_exps = np.array([r.class_exps for r in records], dtype=np.int64).reshape(len(records), -1)
        columns = (np.array([getattr(r, name) for r in records]) for name in names)
        return _toral_columns(representation, class_exps, *columns)
    if not all(isinstance(r, ComplexLengthRecord) for r in records):
        raise ValidationError("a spectrum holds OrbitRecord or ComplexLengthRecord rows of one kind")
    if records and representation is not None:
        raise ValidationError("length records carry their own rho value and take no twist")
    records.sort(key=lambda r: r.sort_key())
    rows = np.array([(r.length, r.theta, r.multiplicity) for r in records], dtype=float)
    length, theta, multiplicity = rows.reshape(-1, 3).T
    rho = np.array([r.rho for r in records], dtype=complex)
    return OrbitColumns(length, rho, np.ones(len(records)), multiplicity, theta=theta)


@lru_cache(maxsize=2)  # the tau = 0 columns and the current tau's
def _table_columns(table: OrbitTable, representation, tau: float) -> OrbitColumns:
    return _toral_columns(representation, table.class_exps, table.lengths(tau), table.period, table.num1,
                          table.num2, *table.transverse(), table.period)


def _toral_columns(representation, class_exps, length, period, num1, num2, eps, lam_u, lam_s, det_power,
                   winding):
    if representation is None:
        rho = np.ones(len(length), dtype=complex)
    elif isinstance(representation, Character):
        rho = representation.values(class_exps, winding)
    else:
        raise ValidationError("toral orbit records take a Character twist")
    order = np.lexsort((num2, num1, period, length))  # sort_key order
    return OrbitColumns(length[order], rho[order], eps[order], np.ones(len(order)),
                        lam_u[order], lam_s[order], det_power[order])


def _powers(base: np.ndarray, j_max: int) -> np.ndarray:
    """``base**j`` for j = 1..j_max along a new last axis, by repeated multiplication."""
    _require_cells(base.size * j_max)
    return np.cumprod(np.broadcast_to(base[:, None], (len(base), j_max)), axis=1)


def _require_cells(cells: int):
    if cells > MAX_CELLS:
        raise CapacityError(f"{cells} array cells exceed the cap of {MAX_CELLS}; lower j_max, p_max or n_max")


@contextmanager
def _in_float_range(lam: complex):
    """Report an overflow, invalid value or zero division as :class:`ConvergenceError`."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ConvergenceError(f"Euler product at lambda={lam} leaves floating point: {exc}") from None


def _kept(cols: OrbitColumns, name: str, key, build):
    """``build()`` (an array, a tuple of them or a number), kept on ``cols`` until ``name`` has another ``key``.

    Kept arrays are read-only.
    """
    kept = cols._derived.get(name)
    if kept is None or kept[0] != key:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        kept = cols._derived[name] = (key, value)
    return kept[1]


def _terms(cols: OrbitColumns, base: np.ndarray, j_max: int) -> np.ndarray:
    """``-multiplicity base^j / j`` per (orbit, iterate)."""
    terms = _powers(base, j_max)
    terms *= -cols.multiplicity[:, None]
    terms *= 1.0 / np.arange(1, j_max + 1)  # numpy's complex division by j + 0i multiplies by 1/j too
    return terms


def _phases(cols: OrbitColumns, lam: complex, j_max: int) -> np.ndarray:
    """``-multiplicity rho^j exp(-lam j len) / j`` per (orbit, iterate), built once per ``lam``.

    The λ-dependent factor of every graded, Selberg and factorization term: a term is its phase times a
    λ-free weight.
    """
    return _kept(cols, "phases", (lam, j_max), lambda: _terms(cols, cols.rho * np.exp(-lam * cols.length), j_max))


def _kleinian_iterates(cols: OrbitColumns, j_max: int):
    """``(exp(-j l), exp(j l), cos(j theta))`` per (orbit, iterate) of a Kleinian spectrum."""
    if len(cols) and j_max * float(cols.length.max()) > 300.0:
        raise ValidationError("j*ell too large: expanding block overflows doubles")
    cos = np.cos(np.arange(1, j_max + 1) * cols.theta[:, None])
    return _powers(np.exp(-cols.length), j_max), _powers(np.exp(cols.length), j_max), cos


def _class_angles(cols: OrbitColumns, j_max: int) -> np.ndarray:
    """``j theta`` reduced exactly into (-pi, pi] as ``TorusElement`` does: the angle characters take.

    The Poincaré map rotates by the unreduced angle, as in ``poincare_data``.
    """
    x = np.fmod(np.arange(1, j_max + 1) * cols.theta[:, None], TWO_PI)  # fmod is exact
    x = np.where(x > math.pi, x - TWO_PI, x)
    return np.where(x <= -math.pi, x + TWO_PI, x)


def _iterates(cols: OrbitColumns, j_max: int):
    """``_kleinian_iterates`` and ``_class_angles``, built once per ``j_max``."""
    return _kept(cols, "iterates", j_max, lambda: (*_kleinian_iterates(cols, j_max), _class_angles(cols, j_max)))


def _det_one_minus_ps(a, c):
    """``det(1 - P_s^j) = 1 - 2 e^{-jl} cos(j theta) + e^{-2jl}``."""
    return 1.0 - 2.0 * a * c + a * a


def _trace_ratios(cols: OrbitColumns, j_max: int) -> np.ndarray:
    """``Tr(wedge^k P^j) / |det(1 - P^j)|`` per (k, orbit, iterate), k = 0..dim, built once per ``j_max``.

    The one λ-free array of the graded terms, the factorization's left side
    and the sign check.  Toral traces and determinants are divided through
    by ``|lam_u|^j``, which leaves every ratio unchanged and keeps both
    finite at any ``j``.
    """
    def build():
        if cols.theta is None:
            if np.isnan(cols.lam_u).any():
                raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
            r = _powers(1.0 / cols.lam_u, j_max)  # lam_u^-j
            s = _powers(cols.lam_s, j_max)
            r_abs = np.abs(r)
            e1 = s * r_abs
            e1 += np.sign(r)
            traces = (r_abs, e1, _powers(cols.det_power, j_max) * r_abs)
            # |det| = |r - 1| |s - 1|, built over r and s so fewer (orbit x iterate) arrays are live at once
            r -= 1.0
            s -= 1.0
            det = np.abs(r, out=r)
            det *= np.abs(s, out=s)
            # toral tables are the large ones: one division per cell, then products
            scale, combine = np.divide(1.0, det, out=det), np.multiply
        else:
            a, b, c, _ = _iterates(cols, j_max)
            e1 = 2.0 * (a + b) * c  # 4 cosh(j l) cos(j theta)
            traces = (1.0, e1, a * a + b * b + 4.0 * c * c, e1, 1.0)
            # the correctly rounded quotient: the factorization's residual reads it at the rounding floor
            scale, combine = np.abs(_det_one_minus_ps(a, c) * _det_one_minus_ps(b, c)), np.divide
        ratios = np.empty((len(traces),) + scale.shape)
        for ratio, trace in zip(ratios, traces):
            combine(trace, scale, out=ratio)
        return ratios

    return _kept(cols, "ratios", j_max, build)


def _require_convergence(lam: complex, threshold: float, allow_formal: bool, what: str):
    if not allow_formal and lam.real <= threshold:
        raise ConvergenceError(
            f"Re(lambda)={lam.real} outside convergence region Re > {threshold} for {what}"
        )


def _tail_bound(lengths, first_terms_abs, sigma: float, h: float) -> float:
    """Geometric tail from the last length shell.

    Doubles the magnitude summed in the shell ``(L-1, L]`` and continues
    it at rate ``exp(-(sigma - h))`` per unit length.
    """
    lengths = np.asarray(lengths, dtype=float)
    if not len(lengths):
        return 0.0
    if sigma <= h:
        return math.inf
    top = float(lengths.max())
    shell = sum(np.asarray(first_terms_abs)[lengths > top - 1.0].tolist())
    q = math.exp(-(sigma - h))
    base = shell if shell > 0 else math.exp(-(sigma - h) * top)
    return 2.0 * base * q / (1.0 - q)


def _zeta_value(cols: OrbitColumns, terms: np.ndarray, lam: complex, kind: str, policy: TruncationPolicy):
    """Sum the (orbit, iterate) ``terms``, with the tail from the j = 1 column.

    A j = j_max term above ``tail_tol`` is flagged: the iterate truncation
    could then dominate the length tail.
    """
    warnings = () if len(cols) else ("empty spectrum",)
    worst_last = float(np.abs(terms[:, -1]).max(initial=0.0))
    if worst_last > policy.tail_tol:
        warnings += (f"iterate truncation: largest j={policy.j_max} term is {worst_last:.2e}; "
                     "increase j_max or tail_tol",)
    tail = _tail_bound(cols.length, np.abs(terms[:, 0]), lam.real, policy.entropy)
    return ZetaValue(complex(block_sum(terms.ravel())), tail, lam, kind, policy, warnings)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def ruelle_log_zeta(cols: OrbitColumns, lam: complex, policy: TruncationPolicy,
                    allow_formal: bool = False) -> ZetaValue:
    """Log of the twisted flow zeta over primitive orbits.

    ``log zeta = -sum_gamma sum_j (1/j) eps^j rho^j exp(-lam*j*len)``;
    requires ``Re(lam) > policy.entropy`` unless ``allow_formal``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    with _in_float_range(lam):
        base = cols.epsilon * cols.rho * np.exp(-lam * cols.length)
        return _zeta_value(cols, _terms(cols, base, policy.j_max), lam, "ruelle", policy)


def graded_log_zeta(cols: OrbitColumns, k: int, lam: complex, policy: TruncationPolicy,
                    allow_formal: bool = False) -> ZetaValue:
    """Log of the degree-``k`` graded zeta.

    Orbit-iterate weights ``Tr(wedge^k P^j) / |det(1 - P^j)|`` carry no
    orientation index; signs are reconciled against the flow zeta only in
    :func:`assemble_ruelle_from_graded`.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "graded zeta")
    with _in_float_range(lam):
        ratios = _trace_ratios(cols, policy.j_max)
        if not 0 <= k < len(ratios):
            raise ValidationError(f"k must be in 0..{len(ratios) - 1}")
        return _zeta_value(cols, _phases(cols, lam, policy.j_max) * ratios[k], lam, f"graded[{k}]", policy)


@record
class AssemblyReport:
    log_zeta: complex
    global_sign: int
    max_residual: float
    graded_logs: tuple[complex, ...]


def assemble_ruelle_from_graded(cols: OrbitColumns, lam: complex, policy: TruncationPolicy,
                                allow_formal: bool = False) -> AssemblyReport:
    """Rebuild the flow zeta from graded zetas and machine-check the signs.

    Per orbit iterate, ``sum_k (-1)^k Tr(wedge^k P^j) = det(1 - P^j)``
    exactly, so ``eps^j = s * sign det(1 - P^j)`` for one global sign
    ``s = (-1)^(transverse dim / 2)``.  The assembled value is
    ``s * sum_k (-1)^k log Z_k``.
    """
    if not len(cols):
        raise ValidationError("cannot assemble over an empty spectrum")
    with _in_float_range(lam):
        ratios = _trace_ratios(cols, policy.j_max)
        dim = len(ratios) - 1
        s = (-1) ** (dim // 2)
        alt = sum((-1.0) ** k * ratio for k, ratio in enumerate(ratios))
        max_residual = float(np.abs(alt - s * _powers(cols.epsilon, policy.j_max)).max())
    if max_residual > RESIDUAL_TOL:
        raise ValidationError(
            f"orientation convention violated: per-orbit residual {max_residual} > {RESIDUAL_TOL}"
        )
    graded = tuple(graded_log_zeta(cols, k, lam, policy, allow_formal).log_value for k in range(dim + 1))
    log_zeta = s * sum((-1) ** k * g for k, g in enumerate(graded))
    return AssemblyReport(log_zeta, s, max_residual, graded)


def _label_character(label: IrrepLabel, x: np.ndarray) -> np.ndarray:
    """SO(2) character at angle ``x``: ``nu = (1, 2 cos x, 1)``, ``sigma_0 = 1``, ``sigma_p = 2 cos px``."""
    if label.n0 != N0:
        raise ValidationError(f"Selberg zetas take SO({N0}) labels")
    if label.kind == "nu" and label.degree == 1 or label.kind == "sigma" and label.degree > 0:
        return 2.0 * np.cos(label.degree * x)
    return np.ones_like(x)


def _require_kleinian(cols: OrbitColumns, what: str):
    if cols.theta is None:
        raise ValidationError(f"{what} take complex-length records (n0 = 2)")


def selberg_log_zeta(cols: OrbitColumns, mu, lam: complex, policy: TruncationPolicy,
                     allow_formal: bool = False) -> ZetaValue:
    """Log of the Selberg zeta twisted by SO(2) irrep data ``mu``.

    ``mu`` is an :class:`IrrepLabel` or an iterable of labels, whose
    characters multiply pointwise (tensor product).  Convergence needs
    ``Re(lam) > n0 = 2`` unless ``allow_formal`` acknowledges a formal
    truncated comparison.
    """
    lam = complex(lam)
    _require_convergence(lam, float(N0), allow_formal, "Selberg zeta")
    labels = (mu,) if isinstance(mu, IrrepLabel) else tuple(mu)
    _require_kleinian(cols, "Selberg zetas")
    with _in_float_range(lam):
        a, _, c, x = _iterates(cols, policy.j_max)
        chi = np.prod([_label_character(label, x) for label in labels], axis=0)
        terms = _phases(cols, lam, policy.j_max) * chi / _det_one_minus_ps(a, c)
        return _zeta_value(cols, terms, lam, "selberg", policy)


@record
class FactorizationReport:
    k: int
    lam: complex
    p_max: int
    log_lhs: complex
    log_rhs: complex
    max_abs_residual: float
    max_rel_residual: float
    tail_estimate: float


def _factorization_weights(cols: OrbitColumns, k: int, j_max: int, p_values):
    """Graded weights and their Selberg-product truncations at each order in ``p_values``.

    The truncated sum ``sum_{p+2q<=P} sigma_p e^{-(p+2q) j l}`` equals
    ``sum_{n<=P} h_n e^{-n j l}``, ``h_n = sin((n+1) x) / sin x``; ``h_n`` comes
    from ``h_n = 2 cos x h_{n-1} - h_{n-2}`` (sound at ``x = 0``) and one
    cumulative sum over ``n`` yields every order ``P``.  The graded weights
    are the kept wedge-trace ratios; the k-free arrays of the right side
    are kept per ``j_max``, the sums up to the highest ``P`` asked so far.
    """
    if not 0 <= k <= N0:
        raise ValidationError("k must be in 0..n0")
    if min(p_values) < 0:
        raise ValidationError("truncation orders must be positive")
    a, _, c, x = _iterates(cols, j_max)
    c_class, det_ps = _kept(cols, "factorization", j_max, lambda: (np.cos(x), _det_one_minus_ps(a, c)))
    nu = (1.0, 2.0 * c_class, 1.0)
    # e^{-(n0+k) j l} e^{2 l j l} = a^(n0+k-2l), a nonnegative power for k <= n0
    ang = sum(a ** (N0 + k - 2 * l) * nu[l] * nu[k - l] for l in range(k + 1))
    kept = cols._derived.get("shells")
    top = max(max(p_values), kept[0][1]) if kept and kept[0][0] == j_max else max(p_values)

    def shell_sums():
        _require_cells(c.size * (top + 1))
        shells = np.empty(c.shape + (top + 1,))
        h_prev, h, a_n = np.zeros_like(c), np.ones_like(c), np.ones_like(a)
        for n in range(top + 1):
            shells[..., n] = h * a_n
            h_prev, h, a_n = h, 2.0 * c_class * h - h_prev, a_n * a
        return np.cumsum(shells, axis=-1)

    sym = _kept(cols, "shells", (j_max, top), shell_sums)
    factor = ang / det_ps
    return _trace_ratios(cols, j_max)[k], [factor * sym[..., p] for p in p_values]


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    resid = np.abs(lhs - rhs)
    rel = np.divide(resid, np.abs(lhs), out=resid.copy(), where=lhs != 0)
    return float(resid.max()), float(rel.max())


def factorization_check(cols: OrbitColumns, k: int, lam: complex, policy: TruncationPolicy,
                        required_tolerance: float | None = None) -> FactorizationReport:
    """Compare the graded zeta against its Selberg-product factorization.

    Per orbit iterate the graded weight is matched against the triple sum
    over ``(l, p, q)`` with ``p + 2q <= p_max`` of Selberg weights at
    shifted spectral parameter ``lam + 2(q - l) + p + n0 + k``; the same
    truncated triple sum accumulated over orbits gives the right-hand log
    product.
    """
    lam = complex(lam)
    _require_kleinian(cols, "factorization checks")
    if not len(cols):
        raise ValidationError("empty spectrum")
    ell_min = float(cols.length.min())
    tail_estimate = (policy.p_max + 2) ** 2 * math.exp(-(policy.p_max + 1) * ell_min)
    if required_tolerance is not None and tail_estimate > required_tolerance:
        raise ConvergenceError(
            f"insufficient p_max={policy.p_max}: residual estimate {tail_estimate:.3e} "
            f"exceeds requested tolerance {required_tolerance:.3e}"
        )
    with _in_float_range(lam):
        lhs, (rhs,) = _factorization_weights(cols, k, policy.j_max, [policy.p_max])
        max_abs, max_rel = _relative_residual(lhs, rhs)
        phases = _phases(cols, lam, policy.j_max)
        log_lhs, log_rhs = (complex(block_sum((phases * w).ravel())) for w in (lhs, rhs))
    return FactorizationReport(k, lam, policy.p_max, log_lhs, log_rhs, max_abs, max_rel, tail_estimate)


def factorization_residual_curve(cols: OrbitColumns, k, lam, policy, p_values):
    """Max relative per-orbit residual for each truncation order."""
    p_values = [int(p) for p in p_values]
    if not p_values:
        return []
    _require_kleinian(cols, "factorization checks")
    if not len(cols):
        raise ValidationError("empty spectrum")
    with _in_float_range(complex(lam)):
        lhs, rhs_by_p = _factorization_weights(cols, k, policy.j_max, p_values)
        return [(p, _relative_residual(lhs, rhs)[1]) for p, rhs in zip(p_values, rhs_by_p)]


# ---------------------------------------------------------------------------
# Trace-formula series
# ---------------------------------------------------------------------------


def guillemin_series(spectrum, representation, k: int, t_max: float, a_weights=None):
    """Orbit side of the flat-trace formula: entries ``(t, coefficient)``.

    One entry per orbit iterate with ``j*len <= t_max``; the coefficient is
    ``(1/j) Tr(W wedge^k dphi^j) / |det(1 - P^j)| * Tr(rho^j)`` where
    ``dphi`` includes the flow direction (eigenvalue 1) and ``W`` is an
    optional weight ``a_weights(record, j, k)`` on the wedge power
    (identity when omitted).
    """
    from .wedge import compound_matrix

    if isinstance(spectrum, OrbitDump):
        raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
    records = sorted(spectrum, key=lambda r: r.sort_key())
    cols = orbit_columns(records, representation)
    if records and cols.theta is not None:
        raise ValidationError("trace series runs over suspension orbit records")
    if records and np.isnan(cols.lam_u).any():
        raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
    entries = []
    for rec, rho in zip(records, cols.rho.tolist()):
        j = 1
        while j * rec.length <= t_max:
            ls, lu = rec.lam_s**j, rec.lam_u**j
            if a_weights is None:  # elementary symmetric functions of (1, ls, lu)
                wedge = (1.0, 1.0 + ls + lu, ls + lu + ls * lu, ls * lu)[k]
            else:
                w = np.asarray(a_weights(rec, j, k))
                wedge = float(np.trace(w @ compound_matrix(np.diag([1.0, ls, lu]), k)).real)
            entries.append((j * rec.length, rho**j * wedge / (abs((1.0 - lu) * (1.0 - ls)) * j)))
            j += 1
    entries.sort(key=lambda e: e[0])
    return entries
