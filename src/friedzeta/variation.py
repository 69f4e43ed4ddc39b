"""Variation of the zeta along time-change families, and the Ruelle series of an orbit dump.

The log-derivative of the flow zeta in the family parameter is an orbit
sum weighted by the orbit integrals of the time-change symbol; its
parameter integral is evaluated by composite Simpson quadrature with a
Richardson doubling check.  The sum runs over the (orbit, iterate) cells
``(gamma, j)`` with ``p j <= n_max``, the truncation of the trace series
(``continuation.toral_log_zetas``): per node one exponential over one flat
array of cells, at real λ of a real array, one product with a kept weight
and one compensated sum.  The cells, ``j`` times each orbit's length and
slope and the weights are built once per orbit table and twist.  The orbit
lengths are checked once per τ, at the outermost node: rounding is
monotone, so every node's lengths lie between those at 0 and there.  The
direct quotient it is checked against sums the same cells with the Ruelle
weight, at τ and, once per λ, at 0; an orbit dump's Euler products are that
Ruelle sum over the dump's cells.  A separate matrix-calculus verifier
checks the determinant-expansion identity behind the wedge-trace form of
the same integrand.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from ._record import record
from .errors import ConvergenceError, ValidationError
from .summation import block_sum
from .toral import Character, OrbitDump, OrbitTable, SuspensionModel, orbit_table, ruelle_factors
from .wedge import compound_derivative, compound_matrix
from .zetas import (TruncationPolicy, ZetaValue, _in_float_range, _last_shell, _require_cells, _require_convergence,
                    _shell_tail)

__all__ = [
    "dump_log_zetas",
    "variation_rhs",
    "VariationResult",
    "direct_quotient",
    "wedge_derivative_check",
    "WedgeCheckResult",
]


@record(eq=False)
class _Cells:
    """The (orbit, iterate) cells ``p j <= n_max`` of orbit rows under their Ruelle factors and their λ-free factors.

    ``j_length0`` and ``j_slope`` are ``j`` times the orbit's length at τ = 0 and its τ-derivative, so
    ``j_length0 + t * j_slope`` is ``j len(t)``; ``slope_weight`` is ``-slope (eps chi)^j``, the variation
    integrand's weight, and ``ruelle_weight`` ``-(eps chi)^j / j``, the Ruelle product's.  Rows without a
    slope (a dump's) have neither slope array.  ``log_0`` keeps the latest λ's Ruelle log at τ = 0.
    """

    j_length0: np.ndarray
    j_slope: np.ndarray | None
    slope_weight: np.ndarray | None
    ruelle_weight: np.ndarray
    log_0: dict


def _build_cells(period: np.ndarray, length0: np.ndarray, rho: np.ndarray, n_max: int,
                 slope: np.ndarray | None = None) -> _Cells:
    """The cells of the rows ``(period, length0, rho)`` and, where given, ``slope``: row by row and
    ``j = 1..n_max // p`` within a row.  Their count is checked against ``MAX_CELLS`` before any is built, summed
    in floating point, which is exact to 2^53 and cannot wrap as int64 can."""
    iterates = n_max // period
    _require_cells(int(iterates.sum(dtype=float)))
    row = np.repeat(np.arange(len(iterates)), iterates)
    j = np.arange(1, len(row) + 1) - np.repeat(np.cumsum(iterates) - iterates, iterates)
    power = rho[row] ** j
    j_slope = slope_weight = None
    if slope is not None:
        slope = slope[row]
        j_slope, slope_weight = j * slope, -slope * power
    return _Cells(j * length0[row], j_slope, slope_weight, -power / j, {})


@lru_cache(maxsize=1)
def _cells(table: OrbitTable, representation: Character | None) -> _Cells:
    """The cells of ``table`` under ``representation``."""
    rho = ruelle_factors(representation, table.transverse()[0][table.period], table.class_exps, table.period)
    return _build_cells(table.period, table.length0, rho, table.n_max, table.slope)


def _cell_sum(cells: _Cells, weight: np.ndarray, lam: complex, t: float) -> complex:
    """``sum_cells weight exp(-lam j len(t))``.

    The lengths are unchecked: the caller checks them once at a τ at least as far from 0 as ``t`` on its
    side.  At ``Im(lam) = 0`` the exponential is taken of the real array ``-Re(lam) j len``: the value of the
    complex one up to its rounding, at a fraction of its cost, and one value whether ``lam`` is a float or a
    complex with either sign of zero.
    """
    phase = cells.j_length0.copy() if t == 0.0 else cells.j_slope * t + cells.j_length0
    if lam.imag == 0:
        phase *= -lam.real
        np.exp(phase, out=phase)
    else:
        phase = np.exp(-lam * phase)
    return complex(block_sum(phase * weight))


def _simpson(values, h: float) -> complex:
    n = len(values) - 1
    acc = values[0] + values[n]
    acc += 4.0 * sum(values[1:n:2])
    acc += 2.0 * sum(values[2:n:2])
    return acc * h / 3.0


@record
class VariationResult:
    ratio: complex
    integral: complex
    richardson_diff: float
    subdivisions: int


def variation_rhs(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    tau: float,
    policy: TruncationPolicy,
    richardson_tol: float = 1e-8,
) -> VariationResult:
    """Predicted ratio ``zeta_tau(lam) / zeta_0(lam)`` from the orbit sums.

    Evaluates ``exp(-lam * integral_0^tau G(t) dt)`` where
    ``G(t) = -sum_{p j <= n_max} slope (eps chi)^j exp(-lam j len(t))`` over
    the (orbit, iterate) cells, with composite Simpson quadrature on
    ``2 * policy.quad_subdiv`` panels.  The rule on ``policy.quad_subdiv``
    panels reads the even nodes of the same grid, and the two ratios must
    agree to ``richardson_tol``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, False, "variation")
    model.require_tau(tau)
    table = orbit_table(model, policy.max_period)
    panels = 2 * policy.quad_subdiv
    integral = integral_coarse = 0.0
    if tau != 0.0:  # the integral over [0, 0] is 0: no orbit sum is taken
        # node 2i of this grid is bit for bit node i of the grid of quad_subdiv panels
        nodes = [tau * i / panels for i in range(panels + 1)]
        # the one length check for every node: tau * panels / panels can round one ulp past tau
        table.lengths(max(tau, nodes[-1], key=abs))
        # an overflowing orbit sum raises the Euler product's ConvergenceError, not a warning and an inf
        # that passes Richardson
        with _in_float_range(lam):
            cells = _cells(table, representation)
            values = [_cell_sum(cells, cells.slope_weight, lam, t) for t in nodes]
        integral = _simpson(values, tau / panels)
        integral_coarse = _simpson(values[::2], tau / policy.quad_subdiv)
    try:
        ratio, ratio_coarse = cmath.exp(-lam * integral), cmath.exp(-lam * integral_coarse)
    except OverflowError:
        raise ConvergenceError(f"variation at lambda={lam}, tau={tau} overflows floating point") from None
    diff = abs(ratio - ratio_coarse)
    if diff > richardson_tol:
        raise ConvergenceError(
            f"Richardson check failed: doubling quadrature moved the ratio by {diff:.3e}"
        )
    return VariationResult(ratio, integral, diff, panels)


def direct_quotient(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    tau: float,
    policy: TruncationPolicy,
) -> complex:
    """Reference ratio ``exp(L_tau - L_0)``, ``L`` the Ruelle log over the cells ``p j <= n_max``.

    ``L = -sum (eps chi)^j exp(-lam j len) / j``, the Ruelle series at depth ``n_max``.  ``L_0`` is kept per
    table, twist and λ, so a τ grid takes it once.  ``L_tau`` is taken first, and ``L_0`` whenever none is
    kept, so each raises what it raised when both ran per τ.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, False, "orbit zeta")
    table = orbit_table(model, policy.max_period)
    table.lengths(tau)  # refuses an inadmissible tau, or lengths there past the float range
    with _in_float_range(lam):
        cells = _cells(table, representation)
        log_tau = _cell_sum(cells, cells.ruelle_weight, lam, tau)
        if lam not in cells.log_0:
            cells.log_0.clear()
            cells.log_0[lam] = _cell_sum(cells, cells.ruelle_weight, lam, 0.0)
    return cmath.exp(log_tau - cells.log_0[lam])


def dump_log_zetas(dump: OrbitDump, lams, policy: TruncationPolicy, allow_formal: bool = False) -> list[ZetaValue]:
    """The untwisted Ruelle log ``-sum_{p j <= M} eps^j exp(-lam j len) / j`` of an orbit dump at each λ of ``lams``.

    ``M`` is ``policy.max_period``, each value's ``n_used``: a deeper ``M`` than the dump's deepest period, where
    its cells are incomplete, is refused.  The tail is the heuristic of the last length shell summed.
    """
    depth, deepest = policy.max_period, int(dump.period.max(initial=0))
    if len(dump) and depth > deepest:
        raise ValidationError(f"n_max = {depth} is above the dump's deepest period {deepest}, where its cells are "
                              "incomplete")
    cells = _build_cells(dump.period, dump.length, dump.epsilon, min(depth, deepest))  # none in an empty dump
    length = dump.length[dump.period <= depth]
    last = _last_shell(length)
    values = []
    for lam in map(complex, lams):
        _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
        with _in_float_range(lam):
            log_value = _cell_sum(cells, cells.ruelle_weight, lam, 0.0)
            tail = _shell_tail(length, float(np.exp(-lam.real * length[last]).sum()), lam.real, policy.entropy)
        warnings = () if len(length) else ("empty spectrum",)
        values.append(ZetaValue(log_value, tail, lam, "ruelle", policy, warnings, n_used=depth))
    return values


# ---------------------------------------------------------------------------
# Determinant-expansion verifier
# ---------------------------------------------------------------------------


@record
class WedgeCheckResult:
    q_wedge: complex
    q_difference: complex
    residual: float


def wedge_derivative_check(
    s_of_tau,
    ds_of_tau,
    m_matrix,
    tau1: float,
    fd_step: float = 1e-5,
) -> WedgeCheckResult:
    """Verify the wedge-trace expansion of a determinant derivative.

    With ``A^(k) = d/dtau(wedge^k S_tau) (wedge^k S_tau1)^-1``, compares

        q = -(1/det(I - M)) sum_k (-1)^k Tr(A^(k) wedge^k M)

    against the centered difference of
    ``-det(I - S_tau S_tau1^-1 M) / det(I - M)`` at ``tau1``.
    """
    s1 = np.asarray(s_of_tau(tau1), dtype=complex)
    ds1 = np.asarray(ds_of_tau(tau1), dtype=complex)
    m = np.asarray(m_matrix, dtype=complex)
    n = m.shape[0]
    if s1.shape != (n, n):
        raise ValidationError("family and matrix dimensions disagree")
    det_m = complex(np.linalg.det(np.eye(n) - m))
    if abs(det_m) < 1e-12:
        raise ValidationError("det(I - M) = 0: singular input")
    s1_inv = np.linalg.inv(s1)
    q = 0.0 + 0.0j
    for k in range(n + 1):
        a_k = compound_derivative(s1, ds1, k) @ np.linalg.inv(compound_matrix(s1, k))
        q += (-1.0) ** k * np.trace(a_k @ compound_matrix(m, k))
    q = -q / det_m

    def f(t: float) -> complex:
        s = np.asarray(s_of_tau(t), dtype=complex)
        return -complex(np.linalg.det(np.eye(n) - s @ s1_inv @ m)) / det_m

    q_fd = (f(tau1 + fd_step) - f(tau1 - fd_step)) / (2.0 * fd_step)
    return WedgeCheckResult(q, q_fd, abs(q - q_fd))
