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

from . import _kernels
from .errors import ConvergenceError, ValidationError
from .summation import block_sum
from .toral import Character, SuspensionModel, orbit_records, primitive_orbits
from .wedge import compound_derivative, compound_matrix
from .zetas import TruncationPolicy, ruelle_log_zeta

__all__ = [
    "variation_rhs",
    "VariationResult",
    "direct_quotient",
    "wedge_derivative_check",
    "WedgeCheckResult",
]


@dataclass(frozen=True)
class _FamilyData:
    base_length: np.ndarray  # Birkhoff sum of the roof at tau = 0
    length_slope: np.ndarray  # Birkhoff sum of roof*g: d(length)/d(tau)
    epsilon: np.ndarray
    rho: np.ndarray
    lam_u: np.ndarray
    lam_s: np.ndarray


def _family_data(model: SuspensionModel, representation, policy: TruncationPolicy) -> _FamilyData:
    auto = model.automorphism
    orbits = primitive_orbits(auto, policy.max_period)
    sign_u = 1 if auto.lam_u > 0 else -1
    base = np.empty(len(orbits))
    slope = np.empty(len(orbits))
    eps = np.empty(len(orbits))
    rho = np.empty(len(orbits), dtype=complex)
    lam_u = np.empty(len(orbits))
    lam_s = np.empty(len(orbits))
    from .toral import homology_class

    pos = 0
    by_period: dict[int, list] = {}
    for o in orbits:
        by_period.setdefault(o.period, []).append(o)
    for n, group in sorted(by_period.items()):
        num1 = np.array([o.num1 for o in group], dtype=np.int64)
        num2 = np.array([o.num2 for o in group], dtype=np.int64)
        den = group[0].den
        b_r = _kernels.birkhoff_sums(num1, num2, den, auto.matrix, n, model.roof, None, 0.0)
        if model.time_change is None:
            b_rg = np.zeros_like(b_r)
        else:
            b_tot = _kernels.birkhoff_sums(
                num1, num2, den, auto.matrix, n, model.roof, model.time_change, 1.0
            )
            b_rg = b_tot - b_r
        for idx, o in enumerate(group):
            base[pos] = b_r[idx]
            slope[pos] = b_rg[idx]
            eps[pos] = sign_u**n
            if representation is None:
                rho[pos] = 1.0
            else:
                cls = homology_class(auto, (o.num1, o.num2), o.den, n)
                rho[pos] = representation.value(*cls)
            lam_u[pos] = auto.lam_u**n
            lam_s[pos] = auto.lam_s**n
            pos += 1
    return _FamilyData(base, slope, eps, rho, lam_u, lam_s)


def _orbit_sum(data: _FamilyData, lam: complex, tau_prime: float, j_max: int) -> complex:
    """``sum_gamma (int_gamma q) sum_j eps^j rho^j exp(-lam*j*len(tau'))``."""
    lengths = data.base_length + tau_prime * data.length_slope
    e1 = data.epsilon * data.rho * np.exp(-lam * lengths)
    power = np.ones_like(e1)
    total = np.zeros_like(e1)
    for _ in range(j_max):
        power = power * e1
        total += power
    return complex(block_sum((-data.length_slope) * total))


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
    data = _family_data(model, representation, policy)

    def eval_ratio(panels: int) -> complex:
        nodes = [tau * i / panels for i in range(panels + 1)]
        values = [_orbit_sum(data, lam, t, policy.j_max) for t in nodes]
        integral = _simpson(values, tau / panels) if tau != 0.0 else 0.0
        return cmath.exp(-lam * integral), integral

    ratio_coarse, _ = eval_ratio(policy.quad_subdiv)
    ratio_fine, integral = eval_ratio(2 * policy.quad_subdiv)
    diff = abs(ratio_fine - ratio_coarse)
    if diff > richardson_tol:
        raise ConvergenceError(
            f"Richardson check failed: doubling quadrature moved the ratio by {diff:.3e}"
        )
    residual = _integrand_residual(data, lam, tau / 2.0, min(3, policy.j_max))
    return VariationResult(ratio_fine, integral, diff, residual, 2 * policy.quad_subdiv)


def _integrand_residual(data: _FamilyData, lam: complex, tau_prime: float, j_top: int) -> float:
    """Per-orbit agreement of the symbol form and the wedge-trace form.

    The wedge form is assembled literally from the alternating wedge
    traces with the time-change derivation inserted in the flow slot, so
    the comparison exercises the determinant expansion, not a
    pre-simplified identity.
    """
    sample = min(len(data.base_length), 64)
    worst = 0.0
    for i in range(sample):
        ell = data.base_length[i] + tau_prime * data.length_slope[i]
        int_q = -data.length_slope[i]
        for j in range(1, j_top + 1):
            lu, ls = data.lam_u[i] ** j, data.lam_s[i] ** j
            det = (1.0 - lu) * (1.0 - ls)
            rho_j = data.rho[i] ** j
            weight = cmath.exp(-lam * j * ell) * rho_j
            symbol_form = int_q * (data.epsilon[i] ** j) * weight
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
    """Reference ratio from two truncated Euler products."""
    rec_tau = orbit_records(model, policy.max_period, tau=tau)
    rec_0 = orbit_records(model, policy.max_period, tau=0.0)
    log_tau = ruelle_log_zeta(rec_tau, representation, lam, policy).log_value
    log_0 = ruelle_log_zeta(rec_0, representation, lam, policy).log_value
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
