"""Truncated Euler products: Ruelle, graded and Selberg zeta functions.

Every product reads :class:`OrbitColumns`, built once per spectrum, and
is one (orbit x iterate) array, with iterate powers taken by
``np.cumprod``, summed by :func:`~friedzeta.summation.block_sum`, so values
are reproducible bit for bit.  The n0 = 2 Poincaré data and characters are
closed forms; ``poincare_data`` and ``char_sigma`` are their references in
the tests.  Tail bounds are Margulis-type geometric estimates anchored on
the last length shell actually summed.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .characters import IrrepLabel
from .errors import CapacityError, ConvergenceError, ValidationError
from .kleinian import ComplexLengthRecord
from .summation import block_sum
from .toral import Character, OrbitRecord, OrbitTable

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
TWO_PI = 2.0 * math.pi
MAX_CELLS = 1 << 24  # (orbit x iterate x order) array cells; bounds the temporaries


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ZetaValue:
    """Log-domain zeta value with its truncation tail estimate."""

    log_value: complex
    tail_bound: float
    lam: complex
    kind: str
    policy: TruncationPolicy
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


# ---------------------------------------------------------------------------
# Orbit columns and (orbit x iterate) arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrbitColumns:
    """Read-only columns of a spectrum, one row per primitive orbit in ``sort_key`` order.

    ``rho`` is the twist's value on each orbit and ``epsilon`` its
    orientation index.  Toral rows carry the eigenvalues ``lam_u``,
    ``lam_s`` of the transverse return map and ``det_power = det(A)^period``
    (``nan`` eigenvalues for orbit-dump rows); Kleinian rows carry the
    holonomy angle ``theta`` instead.
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
        for column in (getattr(self, f.name) for f in fields(self)):
            if column is not None:
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.length)


def orbit_columns(spectrum, representation=None, tau: float = 0.0) -> OrbitColumns:
    """Columns of an :class:`OrbitTable` (lengths at ``tau``) or of a list of records.

    Toral orbits take a :class:`Character` twist (``None`` is trivial);
    Kleinian records and columns carry their own ``rho`` and take ``None``.
    """
    if isinstance(spectrum, OrbitColumns):
        if representation is not None:
            raise ValidationError("orbit columns carry their own rho values; pass representation=None")
        return spectrum
    if isinstance(spectrum, OrbitTable):
        return _table_columns(spectrum, representation, float(tau))
    if tau:
        raise ValidationError("tau applies to an orbit table; records and columns carry their lengths")
    records = list(spectrum)
    if records and all(isinstance(r, OrbitRecord) for r in records):
        names = ("length", "period", "num1", "num2", "epsilon", "lam_u", "lam_s", "det_power", "winding")
        class_exps = np.array([r.class_exps for r in records], dtype=np.int64).reshape(len(records), -1)
        columns = (np.array([getattr(r, name) for r in records]) for name in names)
        return _toral_columns(representation, class_exps, *columns)
    if not all(isinstance(r, ComplexLengthRecord) for r in records):
        raise ValidationError("a spectrum holds OrbitRecord or ComplexLengthRecord rows of one kind")
    if records and representation is not None:
        raise ValidationError("length records carry their own rho value; pass representation=None")
    records.sort(key=lambda r: r.sort_key())
    rows = np.array([(r.length, r.theta, r.multiplicity) for r in records], dtype=float)
    length, theta, multiplicity = rows.reshape(-1, 3).T
    rho = np.array([r.rho for r in records], dtype=complex)
    return OrbitColumns(length, rho, np.ones(len(records)), multiplicity, theta=theta)


@lru_cache(maxsize=2)  # the tau = 0 columns and the current tau's
def _table_columns(table: OrbitTable, representation, tau: float) -> OrbitColumns:
    eps, lam_u, lam_s, det_power = np.array(table.transverse())[table.period].T
    return _toral_columns(representation, table.class_exps, table.lengths(tau), table.period, table.num1,
                          table.num2, eps, lam_u, lam_s, det_power, table.period)


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


def _phases(cols: OrbitColumns, lam: complex, j_max: int) -> np.ndarray:
    """``rho^j exp(-lam j len)`` per (orbit, iterate)."""
    return _powers(cols.rho * np.exp(-lam * cols.length), j_max)


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


def _det_one_minus_ps(a, c):
    """``det(1 - P_s^j) = 1 - 2 e^{-jl} cos(j theta) + e^{-2jl}``."""
    return 1.0 - 2.0 * a * c + a * a


def _wedge_traces(cols: OrbitColumns, j_max: int):
    """``(Tr(wedge^k P^j) for k = 0..dim, |det(1 - P^j)|)`` per (orbit, iterate).

    Toral rows are divided through by ``|lam_u|^j``, which leaves every
    ratio unchanged and keeps both sides finite at any ``j``.
    """
    if cols.theta is None:
        if np.isnan(cols.lam_u).any():
            raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
        r = _powers(1.0 / cols.lam_u, j_max)  # lam_u^-j
        s = _powers(cols.lam_s, j_max)
        r_abs = np.abs(r)
        traces = (r_abs, np.sign(r) + s * r_abs, _powers(cols.det_power, j_max) * r_abs)
        return traces, np.abs(r - 1.0) * np.abs(1.0 - s)
    a, b, c = _kleinian_iterates(cols, j_max)
    e1 = 2.0 * (a + b) * c  # 4 cosh(j l) cos(j theta)
    traces = (1.0, e1, a * a + b * b + 4.0 * c * c, e1, 1.0)
    return traces, np.abs(_det_one_minus_ps(a, c) * _det_one_minus_ps(b, c))


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


def _zeta_value(cols: OrbitColumns, weights: np.ndarray, lam: complex, kind: str, policy: TruncationPolicy):
    """Sum the (orbit, iterate) terms ``-multiplicity * weight / j``, with the tail from the j = 1 column.

    A j = j_max term above ``tail_tol`` is flagged: the iterate truncation
    could then dominate the length tail.
    """
    terms = -cols.multiplicity[:, None] * weights / np.arange(1, policy.j_max + 1)
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


def ruelle_log_zeta(
    spectrum,
    representation,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the twisted flow zeta over primitive orbit records.

    ``log zeta = -sum_gamma sum_j (1/j) eps^j rho^j exp(-lam*j*len)``;
    requires ``Re(lam) > policy.entropy`` unless ``allow_formal``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    cols = orbit_columns(spectrum, representation)
    with _in_float_range(lam):
        base = cols.epsilon * cols.rho * np.exp(-lam * cols.length)
        return _zeta_value(cols, _powers(base, policy.j_max), lam, "ruelle", policy)


def graded_log_zeta(
    spectrum,
    representation,
    k: int,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the degree-``k`` graded zeta.

    Orbit-iterate weights ``Tr(wedge^k P^j) / |det(1 - P^j)|`` carry no
    orientation index; signs are reconciled against the flow zeta only in
    :func:`assemble_ruelle_from_graded`.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "graded zeta")
    cols = orbit_columns(spectrum, representation)
    with _in_float_range(lam):
        traces, det = _wedge_traces(cols, policy.j_max)
        if not 0 <= k < len(traces):
            raise ValidationError(f"k must be in 0..{len(traces) - 1}")
        weights = _phases(cols, lam, policy.j_max) * (traces[k] / det)
        return _zeta_value(cols, weights, lam, f"graded[{k}]", policy)


@dataclass(frozen=True)
class AssemblyReport:
    log_zeta: complex
    global_sign: int
    max_residual: float
    graded_logs: tuple[complex, ...]


def assemble_ruelle_from_graded(
    spectrum,
    representation,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
    residual_tol: float = 1e-12,
) -> AssemblyReport:
    """Rebuild the flow zeta from graded zetas and machine-check the signs.

    Per orbit iterate, ``sum_k (-1)^k Tr(wedge^k P^j) = det(1 - P^j)``
    exactly, so ``eps^j = s * sign det(1 - P^j)`` for one global sign
    ``s = (-1)^(transverse dim / 2)``.  The assembled value is
    ``s * sum_k (-1)^k log Z_k``.
    """
    cols = orbit_columns(spectrum, representation)
    if not len(cols):
        raise ValidationError("cannot assemble over an empty spectrum")
    with _in_float_range(lam):
        traces, det = _wedge_traces(cols, policy.j_max)
        dim = len(traces) - 1
        s = (-1) ** (dim // 2)
        alt = sum((-1.0) ** k * trace for k, trace in enumerate(traces))
        max_residual = float(np.abs(alt / det - s * _powers(cols.epsilon, policy.j_max)).max())
    if max_residual > residual_tol:
        raise ValidationError(
            f"orientation convention violated: per-orbit residual {max_residual} > {residual_tol}"
        )
    graded = tuple(
        graded_log_zeta(cols, None, k, lam, policy, allow_formal).log_value for k in range(dim + 1)
    )
    log_zeta = s * sum((-1) ** k * g for k, g in enumerate(graded))
    return AssemblyReport(log_zeta, s, max_residual, graded)


def _label_character(label: IrrepLabel, x: np.ndarray) -> np.ndarray:
    """SO(2) character at angle ``x``: ``nu = (1, 2 cos x, 1)``, ``sigma_0 = 1``, ``sigma_p = 2 cos px``."""
    if label.n0 != N0:
        raise ValidationError(f"Selberg zetas take SO({N0}) labels")
    if label.kind == "nu" and label.degree == 1 or label.kind == "sigma" and label.degree > 0:
        return 2.0 * np.cos(label.degree * x)
    return np.ones_like(x)


def _kleinian_columns(spectrum, representation, what: str) -> OrbitColumns:
    cols = orbit_columns(spectrum, representation)
    if cols.theta is None and len(cols):
        raise ValidationError(f"{what} take complex-length records (n0 = 2)")
    return cols


def selberg_log_zeta(
    spectrum,
    representation,
    mu,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the Selberg zeta twisted by SO(2) irrep data ``mu``.

    ``mu`` is an :class:`IrrepLabel` or an iterable of labels, whose
    characters multiply pointwise (tensor product).  Convergence needs
    ``Re(lam) > n0 = 2`` unless ``allow_formal`` acknowledges a formal
    truncated comparison.
    """
    lam = complex(lam)
    _require_convergence(lam, float(N0), allow_formal, "Selberg zeta")
    labels = (mu,) if isinstance(mu, IrrepLabel) else tuple(mu)
    cols = _kleinian_columns(spectrum, representation, "Selberg zetas")
    with _in_float_range(lam):
        a, _, c = _kleinian_iterates(cols, policy.j_max)
        x = _class_angles(cols, policy.j_max)
        chi = np.prod([_label_character(label, x) for label in labels], axis=0)
        weights = _phases(cols, lam, policy.j_max) * chi / _det_one_minus_ps(a, c)
        return _zeta_value(cols, weights, lam, "selberg", policy)


@dataclass(frozen=True)
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
    cumulative sum over ``n`` yields every order ``P``.
    """
    if not 0 <= k <= N0:
        raise ValidationError("k must be in 0..n0")
    if min(p_values) < 0:
        raise ValidationError("truncation orders must be positive")
    traces, det = _wedge_traces(cols, j_max)
    lhs = traces[k] / det
    a, _, c = _kleinian_iterates(cols, j_max)
    c_class = np.cos(_class_angles(cols, j_max))
    nu = (1.0, 2.0 * c_class, 1.0)
    # e^{-(n0+k) j l} e^{2 l j l} = a^(n0+k-2l), a nonnegative power for k <= n0
    ang = sum(a ** (N0 + k - 2 * l) * nu[l] * nu[k - l] for l in range(k + 1))
    top = max(p_values)
    _require_cells(c.size * (top + 1))
    shells = np.empty(c.shape + (top + 1,))
    h_prev, h, a_n = np.zeros_like(c), np.ones_like(c), np.ones_like(a)
    for n in range(top + 1):
        shells[..., n] = h * a_n
        h_prev, h, a_n = h, 2.0 * c_class * h - h_prev, a_n * a
    sym = np.cumsum(shells, axis=-1)
    factor = ang / _det_one_minus_ps(a, c)
    return lhs, [factor * sym[..., p] for p in p_values]


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    resid = np.abs(lhs - rhs)
    rel = np.divide(resid, np.abs(lhs), out=resid.copy(), where=lhs != 0)
    return float(resid.max()), float(rel.max())


def factorization_check(
    spectrum,
    representation,
    k: int,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
    required_tolerance: float | None = None,
) -> FactorizationReport:
    """Compare the graded zeta against its Selberg-product factorization.

    Per orbit iterate the graded weight is matched against the triple sum
    over ``(l, p, q)`` with ``p + 2q <= p_max`` of Selberg weights at
    shifted spectral parameter ``lam + 2(q - l) + p + n0 + k``; the same
    truncated triple sum accumulated over orbits gives the right-hand log
    product.
    """
    lam = complex(lam)
    cols = _kleinian_columns(spectrum, representation, "factorization checks")
    if not len(cols):
        raise ValidationError("empty spectrum")
    ell_min = float(cols.length.min())
    tail_estimate = (policy.p_max + 2) ** 2 * math.exp(-(policy.p_max + 1) * ell_min)
    if required_tolerance is not None and tail_estimate > required_tolerance:
        raise ConvergenceError(
            f"insufficient p_max={policy.p_max}: residual estimate {tail_estimate:.3e} "
            f"exceeds requested tolerance {required_tolerance:.3e}"
        )
    j = np.arange(1, policy.j_max + 1)
    with _in_float_range(lam):
        lhs, (rhs,) = _factorization_weights(cols, k, policy.j_max, [policy.p_max])
        max_abs, max_rel = _relative_residual(lhs, rhs)
        scale = -cols.multiplicity[:, None] * _phases(cols, lam, policy.j_max) / j
        log_lhs, log_rhs = (complex(block_sum((scale * w).ravel())) for w in (lhs, rhs))
    return FactorizationReport(k, lam, policy.p_max, log_lhs, log_rhs, max_abs, max_rel, tail_estimate)


def factorization_residual_curve(spectrum, representation, k, lam, policy, p_values):
    """Max relative per-orbit residual for each truncation order."""
    p_values = [int(p) for p in p_values]
    if not p_values:
        return []
    cols = _kleinian_columns(spectrum, representation, "factorization checks")
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
