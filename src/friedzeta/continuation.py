"""Cycle-expansion determinants: analytic continuation of the zeta to 0.

Each graded determinant is the exponential-of-trace generating function
``d_k = sum_n c_n`` with the standard trace-to-coefficient recursion
``c_n = -(1/n) sum_m t_m c_{n-m}``, built from per-period fixed-point
trace sums.  For analytic roof data the coefficients decay
super-exponentially and the sum evaluates the zeta factors at any
spectral parameter, in particular at 0.

The circle part ``u`` of the twist is factored out of the traces
(``t_m = u^m * t_hat_m``) and restored as ``c_n = u^n * c_hat_n``; with
constant roofs the stripped recursion then telescopes to exact zeros in
floating point, which is what the exact identity checks rely on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConvergenceError, ResonanceAtZeroError, ValidationError
from .summation import block_sum
from .toral import Character, SuspensionModel, fixed_points
from .zetas import TruncationPolicy

__all__ = [
    "DynamicalDeterminant",
    "dynamical_determinant",
    "zeta_at_zero",
    "ZetaAtZero",
    "check_resonance_at_zero",
    "trace_sums",
]


@dataclass(frozen=True)
class DynamicalDeterminant:
    """Graded determinant value with its trace and coefficient sequences.

    ``traces`` and ``coefficients`` are the circle-stripped sequences;
    ``circle`` restores them (``t_m = circle^m * traces[m-1]``).
    """

    grading: int
    lam: complex
    circle: complex
    traces: tuple[complex, ...]
    coefficients: tuple[complex, ...]
    value: complex
    n_used: int
    reliable: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _out_of_range(lam: complex) -> ConvergenceError:
    return ConvergenceError(
        f"cycle expansion at lambda={lam} overflows floating point; raise Re(lambda) or lower n_max"
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as ConvergenceError
def trace_sums(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    n_max: int,
    tau: float = 0.0,
):
    """Circle-stripped fixed-point sums ``S_m`` and counts for m = 1..n_max.

    ``S_m = sum_{x in Fix(A^m)} exp(-lam * r_m(x)) * fiber(x)`` where
    ``r_m`` is the effective-roof Birkhoff sum and ``fiber`` the finite
    character part of the twist (the circle part is excluded).  When the
    weight is point-independent (``lam = 0`` or constant effective roof)
    and the fiber is trivial, ``S_m`` reduces to the exact fixed-point
    count ``|det(A^m - I)|`` without enumeration.
    """
    model.require_tau(tau)
    lam = complex(lam)
    auto = model.automorphism
    fiber_trivial = representation is None or representation.fiber_is_trivial
    const_roof = model.roof.is_constant and (
        tau == 0.0 or model.time_change is None or model.time_change.is_constant
    )
    s_values: list[complex] = []
    counts: list[int] = []
    for m in range(1, n_max + 1):
        count = abs(auto.det_one_minus_power(m))
        counts.append(count)
        if fiber_trivial and lam == 0:
            s_values.append(complex(count))
            continue
        if fiber_trivial and const_roof:
            r0 = model.roof.constant
            if tau != 0.0 and model.time_change is not None:
                r0 *= 1.0 + tau * model.time_change.constant
            try:
                s_values.append(count * cmath.exp(-lam * r0 * m))
            except (OverflowError, ValueError):
                raise _out_of_range(lam) from None
            continue
        pts = fixed_points(auto, m)
        if lam == 0:
            weights = np.ones(pts.count)
        else:
            birkhoff = _kernels.birkhoff_sums(
                pts.num1,
                pts.num2,
                pts.den,
                auto.matrix,
                m,
                model.roof,
                model.time_change,
                tau,
            )
            weights = np.exp(-lam * birkhoff)
        if not fiber_trivial:
            am = auto.power(m)
            v1 = ((am[0][0] - 1) * pts.num1 + am[0][1] * pts.num2) // pts.den
            v2 = (am[1][0] * pts.num1 + (am[1][1] - 1) * pts.num2) // pts.den
            u_mat, d_mat, _ = auto._coker_snf
            phase = np.zeros(pts.count)
            for row, (order, exp) in enumerate(
                zip(representation.fiber_orders, representation.fiber_exponents)
            ):
                if order > 1 and exp:
                    y = (u_mat[row][0] * v1 + u_mat[row][1] * v2) % order
                    phase += (2.0 * math.pi * exp / order) * y
            weights = weights * np.exp(1j * phase)
        s_values.append(complex(block_sum(np.asarray(weights, dtype=complex))))
    if not all(cmath.isfinite(s) for s in s_values):
        raise _out_of_range(lam)
    return s_values, counts


def _plemelj_smithies(traces: list[complex], tail_tol: float, n_max: int):
    """Coefficient recursion with compensated sums and decay-based stop."""
    coeffs: list[complex] = [1.0 + 0.0j]
    warnings: list[str] = []
    reliable = True
    for n in range(1, n_max + 1):
        parts_re = []
        parts_im = []
        for m in range(1, n + 1):
            prod = traces[m - 1] * coeffs[n - m]
            parts_re.append(prod.real)
            parts_im.append(prod.imag)
        c = -complex(math.fsum(parts_re), math.fsum(parts_im)) / n
        coeffs.append(c)
        if n >= 4 and abs(coeffs[n]) > abs(coeffs[n - 1]) >= tail_tol:
            reliable = False
        if n >= 3 and abs(c) < tail_tol:
            break
    if not reliable:
        warnings.append("continuation unreliable: coefficient decay is not monotone past n=4")
    return coeffs, reliable, warnings


def dynamical_determinant(
    model: SuspensionModel,
    representation: Character | None,
    k: int,
    lam: complex,
    n_max: int,
    tau: float = 0.0,
    tail_tol: float = 1e-12,
    _precomputed=None,
) -> DynamicalDeterminant:
    """Degree-``k`` cycle-expansion determinant at spectral parameter ``lam``.

    Traces are ``t_m = Tr(wedge^k A^m) * S_m / |det(A^m - I)|`` with the
    circle part of the twist stripped; the value is ``sum_n u^n c_n``.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    auto = model.automorphism
    if _precomputed is None:
        s_values, counts = trace_sums(model, representation, lam, n_max, tau)
    else:
        s_values, counts = _precomputed
    traces = [
        auto.wedge_trace_power(k, m) * (s_values[m - 1] / counts[m - 1])
        for m in range(1, n_max + 1)
    ]
    u = 1.0 + 0.0j if representation is None else complex(representation.circle)
    try:
        coeffs, reliable, warnings = _plemelj_smithies(traces, tail_tol, n_max)
        u_pow = 1.0 + 0.0j
        re_parts = []
        im_parts = []
        for n, c in enumerate(coeffs):
            term = u_pow * c
            re_parts.append(term.real)
            im_parts.append(term.imag)
            u_pow *= u
        value = complex(math.fsum(re_parts), math.fsum(im_parts))
    except (OverflowError, ValueError):  # math.fsum met inf - inf or overflowed
        raise _out_of_range(lam) from None
    if not cmath.isfinite(value):
        raise _out_of_range(lam)
    return DynamicalDeterminant(
        grading=k,
        lam=complex(lam),
        circle=u,
        traces=tuple(traces),
        coefficients=tuple(coeffs),
        value=value,
        n_used=len(coeffs) - 1,
        reliable=reliable,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ZetaAtZero:
    """Zeta value at 0 assembled from the graded determinants."""

    value: complex
    modulus: float
    determinants: tuple[DynamicalDeterminant, ...]
    reliable: bool

    @property
    def d_values(self) -> tuple[complex, ...]:
        return tuple(d.value for d in self.determinants)


def check_resonance_at_zero(dets, resonance_tol: float = 1e-9) -> None:
    """Raise :class:`ResonanceAtZeroError` when a determinant at 0 vanishes within ``resonance_tol``."""
    for d in dets:
        if abs(d.value) < resonance_tol:
            raise ResonanceAtZeroError(
                f"resonance at zero: d_{d.grading}(0) = {d.value}; zeta value undefined"
            )


def zeta_at_zero(
    model: SuspensionModel,
    representation: Character | None,
    policy: TruncationPolicy,
    tau: float = 0.0,
    resonance_tol: float = 1e-9,
) -> ZetaAtZero:
    """``zeta(0) = d_1(0) / (d_0(0) d_2(0))`` from the cycle expansions.

    Raises :class:`ResonanceAtZeroError` when a determinant vanishes
    within ``resonance_tol``: the value is undefined exactly in the
    excluded resonant case.
    """
    pre = trace_sums(model, representation, 0.0, policy.max_period, tau)
    dets = tuple(
        dynamical_determinant(
            model,
            representation,
            k,
            0.0,
            policy.max_period,
            tau=tau,
            tail_tol=policy.tail_tol,
            _precomputed=pre,
        )
        for k in range(3)
    )
    check_resonance_at_zero(dets, resonance_tol)
    value = dets[1].value / (dets[0].value * dets[2].value)
    return ZetaAtZero(
        value=value,
        modulus=abs(value),
        determinants=dets,
        reliable=all(d.reliable for d in dets),
    )
