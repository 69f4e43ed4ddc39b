"""Variation of the zeta along time-change families.

The log-derivative of the flow zeta in the family parameter is an orbit
sum weighted by the orbit integrals of the time-change symbol; its
parameter integral is evaluated by composite Simpson quadrature with a
Richardson doubling check.  Each node's iterate sum is taken by binary
splitting, one array expression per bit of ``j_max``.  The orbit lengths are
checked once per τ, at the outermost node: rounding is monotone, so every
node's lengths lie between those at 0 and there.  At real λ each node
exponentiates a real array, not a complex one.  The direct quotient
it is checked against takes the τ = 0 Euler product once per λ and
``j_max``, not once per τ, and the orbit sums read the twist ε·ρ kept on
the same τ = 0 columns, built once per orbit table and twist.  The τ
product's columns share every τ = 0 array that reads no length.  A separate
matrix-calculus verifier checks the determinant-expansion identity behind
the wedge-trace form of the same integrand.
"""

from __future__ import annotations

import cmath

import numpy as np

from ._record import record
from .errors import ConvergenceError, ValidationError
from .summation import block_sum
from .toral import Character, OrbitTable, SuspensionModel, orbit_table
from .wedge import compound_derivative, compound_matrix
from .zetas import TruncationPolicy, _in_float_range, _kept, orbit_columns, ruelle_log_zeta

__all__ = [
    "variation_rhs",
    "VariationResult",
    "direct_quotient",
    "wedge_derivative_check",
    "WedgeCheckResult",
]


def _orbit_sum(table: OrbitTable, twist, lam: complex, tau_prime: float, j_max: int) -> complex:
    """``sum_gamma (int_gamma q) sum_j eps^j rho^j exp(-lam*j*len(tau'))``.

    The lengths ``length0 + tau' * slope`` are bit for bit those of
    ``table.lengths(tau')``, unchecked: the caller checks them once at a node
    at least as far from 0 as ``tau'`` on its side, and since rounding is
    monotone in ``tau'``, every length here lies between its values there and
    at 0, so all are finite.  At ``Im(lam) = 0`` the exponent is real, and the
    exponential is taken of the real array ``-Re(lam) * len``: the value of the
    complex one up to its rounding (within an ulp), at a fraction of its cost,
    and one value whether ``lam`` is a float or a complex with either sign of
    zero.  Complex ``lam`` keeps the complex exponential.

    The iterate sum ``S_J = sum_{j=1..J} z^j`` is taken by binary splitting,
    ``S_2m = S_m + z^m S_m`` and ``S_2m+1 = S_2m + z^(2m+1)``, reading the bits of
    ``j_max`` from the top.  The first round is ``S_2 = z + z^2``, from one
    product and no copy of ``z``, so ``J >= 2`` takes
    ``2 floor(log2 J) + popcount(J) - 2`` array products (7 at J = 16) in place
    of ``2J``, no division, and no power above ``z^J``.  The sum is scaled by
    ``-slope`` in place.
    """
    lengths = table.length0 + tau_prime * table.slope
    z = twist * (np.exp(-lam.real * lengths) if lam.imag == 0 else np.exp(-lam * lengths))
    bits = bin(j_max)[3:]
    total = z  # S_1
    if bits:
        power = z * z  # z^m
        total = z + power  # S_m, m = 2
    for i, bit in enumerate(bits):
        if i:
            total += power * total
            power *= power
        if bit == "1":
            power *= z
            total += power
    total *= -table.slope
    return complex(block_sum(total))


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

    Evaluates ``exp(-lam * integral_0^tau G(t) dt)`` where ``G`` is the
    orbit sum of :func:`_orbit_sum`, with composite Simpson quadrature on
    ``2 * policy.quad_subdiv`` panels.  The rule on ``policy.quad_subdiv``
    panels reads the even nodes of the same grid, and the two ratios must
    agree to ``richardson_tol``.
    """
    lam = complex(lam)
    if lam.real <= policy.entropy:
        raise ConvergenceError(
            f"Re(lambda)={lam.real} outside convergence region Re > {policy.entropy}"
        )
    model.require_tau(tau)
    table = orbit_table(model, policy.max_period)
    panels = 2 * policy.quad_subdiv
    integral = integral_coarse = 0.0
    if tau != 0.0:  # the integral over [0, 0] is 0: no orbit sum is taken
        # eps * rho does not depend on tau: one array per table and twist, kept on the tau = 0 columns
        cols_0 = orbit_columns(table, representation)
        twist = _kept(cols_0, "twist", None, lambda: cols_0.epsilon * cols_0.rho)
        # node 2i of this grid is bit for bit node i of the grid of quad_subdiv panels
        nodes = [tau * i / panels for i in range(panels + 1)]
        # the one length check for every node: tau * panels / panels can round one ulp past tau
        table.lengths(max(tau, nodes[-1], key=abs))
        # an overflowing orbit sum raises the Euler product's ConvergenceError, not a warning and an inf
        # that passes Richardson
        with _in_float_range(lam):
            values = [_orbit_sum(table, twist, lam, t, policy.j_max) for t in nodes]
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
    """Reference ratio from two truncated Euler products over the columns of one orbit table.

    The τ = 0 log is kept on the τ = 0 columns per ``(lam, j_max)``, so a τ
    grid takes that product once.  The τ product still runs first, under this
    τ's policy, and the τ = 0 product runs whenever none is kept, so each
    raises what it raised when both ran per τ.
    """
    table = orbit_table(model, policy.max_period)
    log_tau = ruelle_log_zeta(orbit_columns(table, representation, tau), lam, policy).log_value
    cols_0 = orbit_columns(table, representation, 0.0)
    log_0 = _kept(cols_0, "ruelle_log", (lam, policy.j_max),
                  lambda: ruelle_log_zeta(cols_0, lam, policy).log_value)
    return cmath.exp(log_tau - log_0)


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
