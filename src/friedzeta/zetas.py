"""Truncated Euler products of Kleinian spectra: Ruelle, graded and Selberg zeta functions.

Every product takes :class:`OrbitColumns`, built once per spectrum by
:func:`orbit_columns`, and ends in one :func:`~friedzeta.summation.block_sum`
of phases times λ-free weights, so values are reproducible bit for bit.

The products share one shape, ``-sum_gamma sum_j (m / j) z^j w_j`` with
``z = rho exp(-lam len)`` and a λ-free weight ``w_j``, summed over (orbit,
iterate) with ``j <= j_max``.  Per λ, one exp per orbit gives ``z`` and
``j_max`` vector products ``z^j`` give the phases ``-(m / j) z^j``.  The
weights ``Tr(wedge^k P^j) / |det(1 - P^j)|`` (graded k, and the sign check)
and ``chi / det(1 - P_s^j)`` (Selberg) are (orbit x iterate) tables.  Phases
are built once per λ, weights and the iterate table once per columns and
``j_max``, all kept on the columns.  The n0 = 2 Poincaré data and
characters are closed forms; ``poincare_data`` and ``char_sigma`` are their
references in the tests.
Tail bounds are Margulis-type geometric estimates anchored on the last
length shell actually summed, in units of the shortest length.

Toral orbits take none of this: a model's Euler products are partial sums
of the trace series (``continuation.toral_log_zetas``), and an orbit dump's
and the variation formula's sum the same (orbit, iterate) cells
``p j <= n_max`` (``variation``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from ._record import fields, record
from .characters import IrrepLabel
from .errors import CapacityError, ConvergenceError, ValidationError
from .kleinian import ComplexLengthRecord
from .summation import block_sum
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
]

N0 = 2  # transverse rotation rank for the hyperbolic 3-manifold model
# (orbit, iterate) cells (x orders) per product: bounds the power loop, the iterate tables and a dump's cells alike
MAX_CELLS = 1 << 24
# |sum_k (-1)^k Tr(wedge^k P^j) / |det(1 - P^j)| - s| above this breaks the sign convention
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
    """Log-domain zeta value with its truncation tail estimate.

    ``tail_kind`` is ``certified`` where ``tail_bound`` is a proven bound; ``n_used``, the depth ``M`` of a
    model's or a dump's sum over the cells ``p j <= M``, is None for an Euler product over columns.
    """

    log_value: complex
    tail_bound: float
    lam: complex
    kind: str
    policy: TruncationPolicy
    warnings: tuple[str, ...] = ()
    tail_kind: str = "heuristic"
    n_used: int | None = None


# ---------------------------------------------------------------------------
# Orbit columns and λ-free weights
# ---------------------------------------------------------------------------


@record(eq=False)
class OrbitColumns:
    """Read-only columns of a Kleinian spectrum: one row per primitive orbit, in ``sort_key`` order.

    ``length``, the factor ``rho``, ``multiplicity`` and the holonomy angle
    ``theta`` hold one value per row.

    Arrays derived from the columns (the wedge-trace ratios, the current
    λ's phases, the iterates and the factorization's tables) are kept with
    them and freed with them.
    """

    length: np.ndarray
    rho: np.ndarray
    multiplicity: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in fields(self):
            getattr(self, name).flags.writeable = False
        object.__setattr__(self, "_derived", {})

    def __len__(self) -> int:
        return len(self.length)


def orbit_columns(spectrum) -> OrbitColumns:
    """Columns of Kleinian length records, each carrying its own ``rho``: the columns every Euler product takes."""
    records = list(spectrum)
    if not all(isinstance(r, ComplexLengthRecord) for r in records):
        raise ValidationError("a spectrum is ComplexLengthRecord rows")
    records.sort(key=lambda r: r.sort_key())
    rows = np.array([(r.length, r.theta, r.multiplicity) for r in records], dtype=float)
    length, theta, multiplicity = rows.reshape(-1, 3).T
    rho = np.array([r.rho for r in records], dtype=complex)
    return OrbitColumns(length, rho, multiplicity, theta)


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
    """``build()`` (an array or a tuple of them), kept read-only on ``cols`` until ``name`` has another ``key``."""
    kept = cols._derived.get(name)
    if kept is None or kept[0] != key:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        kept = cols._derived[name] = (key, value)
    return kept[1]


def _last_shell(length: np.ndarray) -> np.ndarray:
    """The rows of the last length shell ``(L - l_min, L]`` of ``length``, which the tail bound reads."""
    return length > length.max(initial=-math.inf) - length.min(initial=math.inf)


def _phases(cols: OrbitColumns, lam: complex, j_max: int):
    """``Phi[gamma, j] = -(m / j) z^j``, ``z = rho exp(-lam len)``, per (orbit, iterate).

    Built once per ``lam`` from one exp per orbit and ``j_max`` vector products ``z^j``.  Returned with ``m |z|``
    on the rows of the last length shell (0 elsewhere), which the tail bound reads.
    """
    def build():
        _require_cells(len(cols) * j_max)
        z = cols.rho * np.exp(-lam * cols.length)
        phases = np.empty((len(cols), j_max), dtype=complex)
        power = z.copy()
        phases[:, 0] = power
        for j in range(1, j_max):
            power *= z
            phases[:, j] = power
        phases *= -cols.multiplicity[:, None]
        phases *= 1.0 / np.arange(1, j_max + 1)
        return phases, np.where(_last_shell(cols.length), np.abs(z), 0.0) * cols.multiplicity

    return _kept(cols, "phases", (lam, j_max), build)


def _iterates(cols: OrbitColumns, j_max: int):
    """``(exp(-j l), exp(j l), cos(j theta), x)`` per (orbit, iterate), once per ``j_max``.

    ``x`` is ``j theta`` reduced exactly into (-pi, pi] as ``TorusElement`` does: the angle characters take.
    The Poincaré map rotates by the unreduced angle, as in ``poincare_data``.
    """
    def build():
        if len(cols) and j_max * float(cols.length.max()) > 300.0:
            raise ValidationError("j*ell too large: expanding block overflows doubles")
        _require_cells(len(cols) * j_max)
        contracting, expanding = (np.exp(sign * cols.length)[:, None].repeat(j_max, axis=1) for sign in (-1.0, 1.0))
        for powers in (contracting, expanding):  # the powers by repeated multiplication, in place
            powers.cumprod(axis=1, out=powers)
        x = np.arange(1, j_max + 1) * cols.theta[:, None]  # the angles j theta
        cos = np.cos(x)
        np.fmod(x, TWO_PI, out=x)  # fmod is exact
        x = np.where(x > math.pi, x - TWO_PI, x)
        return contracting, expanding, cos, np.where(x <= -math.pi, x + TWO_PI, x)

    return _kept(cols, "iterates", j_max, build)


def _require_rows(cols: OrbitColumns):
    if not len(cols):
        raise ValidationError("empty spectrum")


def _det_one_minus_ps(a, c):
    """``det(1 - P_s^j) = 1 - 2 e^{-jl} cos(j theta) + e^{-2jl}``."""
    return 1.0 - 2.0 * a * c + a * a


def _trace_ratios(cols: OrbitColumns, j_max: int) -> np.ndarray:
    """``Tr(wedge^k P^j) / |det(1 - P^j)|`` per (k, orbit, iterate), k = 0..4, built once per ``j_max``.

    The one λ-free array of the graded terms, the factorization's left side
    and the sign check.
    """
    def build():
        a, b, c, _ = _iterates(cols, j_max)
        e1 = 2.0 * (a + b) * c  # 4 cosh(j l) cos(j theta)
        traces = (1.0, e1, a * a + b * b + 4.0 * c * c, e1, 1.0)
        # the correctly rounded quotient: the factorization's residual reads it at the rounding floor
        scale = np.abs(_det_one_minus_ps(a, c) * _det_one_minus_ps(b, c))
        ratios = np.empty((len(traces),) + scale.shape)
        for ratio, trace in zip(ratios, traces):
            np.divide(trace, scale, out=ratio)
        return ratios

    return _kept(cols, "ratios", j_max, build)


def _require_convergence(lam: complex, threshold: float, allow_formal: bool, what: str):
    if not allow_formal and lam.real <= threshold:
        raise ConvergenceError(f"Re(lambda)={lam.real} outside convergence region Re > {threshold} for {what}")


def _shell_tail(length: np.ndarray, shell: float, sigma: float, h: float) -> float:
    """Twice the magnitude ``shell`` summed in the last shell ``(L - l_min, L]`` of ``length``, continued at rate
    ``q = exp(-(sigma - h) l_min)`` per shell: in units of the shortest length, so the unit of time cancels.
    ``1 - q`` is ``-expm1``, so a short ``l_min`` keeps its digits; a rate of exactly 1 bounds nothing, and no
    length leaves no tail."""
    if not len(length):
        return 0.0
    x = (sigma - h) * float(length.min())
    if x <= 0.0:
        return math.inf
    base = shell if shell > 0 else math.exp(-(sigma - h) * float(length.max()))
    return 2.0 * base * math.exp(-x) / -math.expm1(-x)


def _value(cols: OrbitColumns, weights: np.ndarray, lam: complex, kind: str, policy: TruncationPolicy):
    """Sum ``Phi * weights`` over (orbit, iterate), with the tail from the last length shell.

    ``weights`` holds a value per (orbit, iterate), or one column per orbit that broadcasts over the iterates.

    An orbit's j = 1 term is ``|m z|`` times its weight, so the tail reads :func:`_phases`' shell magnitudes.  A
    j = j_max term above ``tail_tol`` is flagged: the iterate truncation could then dominate the length tail.
    """
    phases, shell = _phases(cols, lam, policy.j_max)
    magnitude = np.abs(weights)
    tail = _shell_tail(cols.length, float((shell * magnitude[:, 0]).sum()), lam.real, policy.entropy)
    warnings = () if len(cols) else ("empty spectrum",)
    worst_last = float((np.abs(phases[:, -1]) * magnitude[:, -1]).max(initial=0.0))
    if worst_last > policy.tail_tol:
        warnings += (f"iterate truncation: largest j={policy.j_max} term is {worst_last:.2e}; "
                     "increase j_max or tail_tol",)
    return ZetaValue(complex(block_sum((phases * weights).ravel())), tail, lam, kind, policy, warnings)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def ruelle_log_zeta(cols: OrbitColumns, lam: complex, policy: TruncationPolicy,
                    allow_formal: bool = False) -> ZetaValue:
    """Log of the twisted flow zeta over primitive orbits.

    ``log zeta = -sum_gamma sum_j (1/j) rho^j exp(-lam*j*len)``, ``rho`` the Ruelle factor, so the weight is 1;
    requires ``Re(lam) > policy.entropy`` unless ``allow_formal``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    with _in_float_range(lam):
        return _value(cols, np.ones((len(cols), 1)), lam, "ruelle", policy)  # broadcast over j


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
        return _value(cols, ratios[k], lam, f"graded[{k}]", policy)


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
    ``s = (-1)^(transverse dim / 2)``; a Kleinian orbit's ``eps`` is 1, so
    the alternating sum is checked against ``s``.  The assembled value is
    ``s * sum_k (-1)^k log Z_k``.
    """
    _require_rows(cols)
    with _in_float_range(lam):
        ratios = _trace_ratios(cols, policy.j_max)
        dim = len(ratios) - 1
        s = (-1) ** (dim // 2)
        alt = sum((-1.0) ** k * ratio for k, ratio in enumerate(ratios))
        max_residual = float(np.abs(alt - s).max())
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
    with _in_float_range(lam):
        a, _, c, x = _iterates(cols, policy.j_max)
        chi = np.prod([_label_character(label, x) for label in labels], axis=0)
        return _value(cols, chi / _det_one_minus_ps(a, c), lam, "selberg", policy)


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


def factorization_check(cols: OrbitColumns, k: int, lam: complex, policy: TruncationPolicy) -> FactorizationReport:
    """Compare the graded zeta against its Selberg-product factorization.

    Per orbit iterate the graded weight is matched against the triple sum
    over ``(l, p, q)`` with ``p + 2q <= p_max`` of Selberg weights at
    shifted spectral parameter ``lam + 2(q - l) + p + n0 + k``; the same
    truncated triple sum accumulated over orbits gives the right-hand log
    product.
    """
    lam = complex(lam)
    _require_rows(cols)
    ell_min = float(cols.length.min())
    tail_estimate = (policy.p_max + 2) ** 2 * math.exp(-(policy.p_max + 1) * ell_min)
    with _in_float_range(lam):
        lhs, (rhs,) = _factorization_weights(cols, k, policy.j_max, [policy.p_max])
        max_abs, max_rel = _relative_residual(lhs, rhs)
        phases = _phases(cols, lam, policy.j_max)[0]
        log_lhs, log_rhs = (complex(block_sum((phases * w).ravel())) for w in (lhs, rhs))
    return FactorizationReport(k, lam, policy.p_max, log_lhs, log_rhs, max_abs, max_rel, tail_estimate)


def factorization_residual_curve(cols: OrbitColumns, k, lam, policy, p_values):
    """Max relative per-orbit residual for each truncation order."""
    p_values = [int(p) for p in p_values]
    if not p_values:
        return []
    _require_rows(cols)
    with _in_float_range(complex(lam)):
        lhs, rhs_by_p = _factorization_weights(cols, k, policy.j_max, p_values)
        return [(p, _relative_residual(lhs, rhs)[1]) for p, rhs in zip(p_values, rhs_by_p)]
