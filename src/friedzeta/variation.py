"""Variation of the zeta along time-change families.

The log-derivative of the flow zeta in the family parameter is an orbit
sum weighted by the orbit integrals of the time-change symbol; its
parameter integral is evaluated by composite Simpson quadrature with a
Richardson doubling check.  A separate matrix-calculus verifier checks
the determinant-expansion identity behind the wedge-trace form of the
same integrand.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .summation import block_sum
from .toral import Character, OrbitTable, SuspensionModel, orbit_table, orientation_index
from .wedge import compound_derivative, compound_matrix
from .zetas import TruncationPolicy, orbit_columns, ruelle_log_zeta

__all__ = [
    "variation_rhs",
    "VariationResult",
    "direct_quotient",
    "wedge_derivative_check",
    "WedgeCheckResult",
]


def _twist(table: OrbitTable, representation: Character | None) -> np.ndarray:
    """``eps * rho`` of every primitive orbit."""
    eps = orientation_index(table.model.automorphism, 1) ** table.period
    if representation is None:
        return eps.astype(complex)
    return eps * representation.values(table.class_exps, table.period)


def _orbit_sum(table: OrbitTable, twist, lam: complex, tau_prime: float, j_max: int) -> complex:
    """``sum_gamma (int_gamma q) sum_j eps^j rho^j exp(-lam*j*len(tau'))``."""
    e1 = twist * np.exp(-lam * table.lengths(tau_prime))
    power = np.ones_like(e1)
    total = np.zeros_like(e1)
    for _ in range(j_max):
        power = power * e1
        total += power
    return complex(block_sum((-table.slope) * total))


def _simpson(values, h: float) -> complex:
    n = len(values) - 1
    acc = values[0] + values[n]
    acc += 4.0 * sum(values[1:n:2])
    acc += 2.0 * sum(values[2:n:2])
    return acc * h / 3.0


@dataclass(frozen=True)
class VariationResult:
    ratio: complex
    integral: complex
    richardson_diff: float
    integrand_residual: float
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

    Evaluates ``exp(-lam * integral_0^tau G(t) dt)`` where ``G`` is the
    orbit sum of :func:`_orbit_sum`, with composite Simpson quadrature on
    ``policy.quad_subdiv`` panels; doubling the panel count must agree to
    ``richardson_tol``.  Also reports the worst disagreement between the
    time-change-symbol integrand and its wedge-trace determinant form on
    sampled orbit iterates.
    """
    lam = complex(lam)
    if lam.real <= policy.entropy:
        raise ConvergenceError(
            f"Re(lambda)={lam.real} outside convergence region Re > {policy.entropy}"
        )
    model.require_tau(tau)
    table = orbit_table(model, policy.max_period)
    twist = _twist(table, representation)

    def eval_ratio(panels: int) -> complex:
        nodes = [tau * i / panels for i in range(panels + 1)]
        values = [_orbit_sum(table, twist, lam, t, policy.j_max) for t in nodes]
        integral = _simpson(values, tau / panels) if tau != 0.0 else 0.0
        try:
            return cmath.exp(-lam * integral), integral
        except OverflowError:
            raise ConvergenceError(f"variation at lambda={lam}, tau={tau} overflows floating point") from None

    ratio_coarse, _ = eval_ratio(policy.quad_subdiv)
    ratio_fine, integral = eval_ratio(2 * policy.quad_subdiv)
    diff = abs(ratio_fine - ratio_coarse)
    if diff > richardson_tol:
        raise ConvergenceError(
            f"Richardson check failed: doubling quadrature moved the ratio by {diff:.3e}"
        )
    residual = _integrand_residual(table, twist, lam, tau / 2.0, min(3, policy.j_max))
    return VariationResult(ratio_fine, integral, diff, residual, 2 * policy.quad_subdiv)


def _integrand_residual(table: OrbitTable, twist, lam: complex, tau_prime: float, j_top: int) -> float:
    """Per-orbit agreement of the symbol form and the wedge-trace form.

    The wedge form is assembled literally from the alternating wedge
    traces with the time-change derivation inserted in the flow slot, so
    the comparison exercises the determinant expansion, not a
    pre-simplified identity.
    """
    auto = table.model.automorphism
    lengths = table.lengths(tau_prime)
    worst = 0.0
    for i in range(min(len(table.period), 64)):
        n = int(table.period[i])
        eps = orientation_index(auto, n)
        rho = twist[i] * eps  # twist = eps * rho with eps = +-1
        int_q = -table.slope[i]
        for j in range(1, j_top + 1):
            lu, ls = (auto.lam_u**n) ** j, (auto.lam_s**n) ** j
            det = (1.0 - lu) * (1.0 - ls)
            weight = cmath.exp(-lam * j * lengths[i]) * rho**j
            symbol_form = int_q * eps**j * weight
            # sum_k (-1)^k (integral of Tr(A^(k) wedge^k dphi^j)) / |det(1-P^j)|
            elem = [1.0, ls + lu, ls * lu]  # e_0, e_1, e_2 of transverse eigenvalues
            alt = sum((-1.0) ** k * elem[k - 1] for k in range(1, 4))
            wedge_form = (j * int_q) * alt * weight / (j * abs(det))
            worst = max(worst, abs(symbol_form - wedge_form))
    return worst


def direct_quotient(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    tau: float,
    policy: TruncationPolicy,
) -> complex:
    """Reference ratio from two truncated Euler products over the columns of one orbit table."""
    table = orbit_table(model, policy.max_period)
    log_tau = ruelle_log_zeta(orbit_columns(table, representation, tau), None, lam, policy).log_value
    log_0 = ruelle_log_zeta(orbit_columns(table, representation, 0.0), None, lam, policy).log_value
    return cmath.exp(log_tau - log_0)


# ---------------------------------------------------------------------------
# Determinant-expansion verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
