"""The per-orbit Euler products that the weight-group reduction replaced, kept as its references.

Each product builds the full (orbit x iterate) array of its terms: powers by
``np.cumprod``, ``-multiplicity base^j / j`` per cell, the wedge-trace ratios
``Tr(wedge^k P^j) / |det(1 - P^j)|`` taken on every orbit (toral ones by this
module's arithmetic, Kleinian ones from ``zetas._trace_ratios``, which takes
them per orbit), the Selberg weights ``chi / det(1 - P_s^j)``, one
:func:`~friedzeta.summation.block_sum` over the whole array, the tail bound
from the j = 1 column and the iterate-truncation warning from the j = j_max
column.  Each returns its :class:`~friedzeta.zetas.ZetaValue` and the sum of
its term magnitudes, the scale its rounding is read against.
"""

from __future__ import annotations

import math

import numpy as np

from friedzeta import zetas
from friedzeta.errors import ValidationError
from friedzeta.summation import block_sum
from friedzeta.zetas import ZetaValue


def powers(base, j_max):
    """``base**j`` for j = 1..j_max along a new last axis."""
    return np.cumprod(np.broadcast_to(base[:, None], (len(base), j_max)), axis=1)


def per_row(cols, values):
    """A column of one value per weight group of ``cols``, repeated onto every row of the group."""
    return np.repeat(values, np.diff(cols.starts, append=len(cols)))


def terms(cols, base, j_max):
    """``-multiplicity base^j / j`` per (orbit, iterate)."""
    out = powers(base, j_max)
    out *= -per_row(cols, cols.multiplicity)[:, None]
    out *= 1.0 / np.arange(1, j_max + 1)
    return out


def phases(cols, lam, j_max):
    """``-multiplicity rho^j exp(-lam j len) / j`` per (orbit, iterate): the λ-dependent factor of a term."""
    return terms(cols, cols.rho * np.exp(-lam * cols.length), j_max)


def trace_ratios(cols, j_max):
    """``Tr(wedge^k P^j) / |det(1 - P^j)|`` per (k, orbit, iterate).

    Toral ratios (k = 0..2) are divided through by ``|lam_u|^j``; Kleinian
    ones (k = 0..4) are ``zetas._trace_ratios``, one row per orbit.
    """
    if cols.theta is not None:
        return zetas._trace_ratios(cols, j_max)
    if np.isnan(cols.lam_u).any():
        raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
    r = powers(1.0 / per_row(cols, cols.lam_u), j_max)
    s = powers(per_row(cols, cols.lam_s), j_max)
    r_abs = np.abs(r)
    traces = (r_abs, s * r_abs + np.sign(r), powers(per_row(cols, cols.det_power), j_max) * r_abs)
    scale = 1.0 / (np.abs(r - 1.0) * np.abs(s - 1.0))
    return np.array([trace * scale for trace in traces])


def tail_bound(lengths, first_terms_abs, sigma, h):
    """Twice the magnitude in the last length shell ``(L - l_min, L]``, continued at rate ``exp(-(sigma - h) l_min)``
    per shell, ``l_min`` the shortest length."""
    if not len(lengths):
        return 0.0
    top, width = float(lengths.max()), float(lengths.min())
    x = (sigma - h) * width
    if x <= 0.0:
        return math.inf
    shell = sum(first_terms_abs[lengths > top - width].tolist())
    base = shell if shell > 0 else math.exp(-(sigma - h) * top)
    return 2.0 * base * math.exp(-x) / -math.expm1(-x)


def zeta_value(cols, array, lam, kind, policy):
    """``(ZetaValue, sum of |terms|)`` of the (orbit, iterate) term ``array``."""
    warnings = () if len(cols) else ("empty spectrum",)
    worst_last = float(np.abs(array[:, -1]).max(initial=0.0))
    if worst_last > policy.tail_tol:
        warnings += (f"iterate truncation: largest j={policy.j_max} term is {worst_last:.2e}; "
                     "increase j_max or tail_tol",)
    tail = tail_bound(cols.length, np.abs(array[:, 0]), lam.real, policy.entropy)
    value = ZetaValue(complex(block_sum(array.ravel())), tail, lam, kind, policy, warnings)
    return value, float(np.abs(array).sum())


def ruelle(cols, lam, policy):
    lam = complex(lam)
    base = per_row(cols, cols.epsilon) * cols.rho * np.exp(-lam * cols.length)
    return zeta_value(cols, terms(cols, base, policy.j_max), lam, "ruelle", policy)


def graded(cols, k, lam, policy):
    lam = complex(lam)
    ratios = trace_ratios(cols, policy.j_max)
    return zeta_value(cols, phases(cols, lam, policy.j_max) * ratios[k], lam, f"graded[{k}]", policy)


def selberg(cols, labels, lam, policy):
    """Kleinian Selberg product: phases times ``chi / det(1 - P_s^j)`` per (orbit, iterate)."""
    lam = complex(lam)
    a, _, c, x = zetas._iterates(cols, policy.j_max)
    chi = np.prod([zetas._label_character(label, x) for label in labels], axis=0)
    array = phases(cols, lam, policy.j_max) * chi / zetas._det_one_minus_ps(a, c)
    return zeta_value(cols, array, lam, "selberg", policy)


def factorization_logs(cols, k, lam, policy):
    """``((log lhs, scale), (log rhs, scale))`` of the factorization check from per-orbit phases."""
    lhs, (rhs,) = zetas._factorization_weights(cols, k, policy.j_max, [policy.p_max])
    phase = phases(cols, complex(lam), policy.j_max)
    return tuple((complex(block_sum((phase * w).ravel())), float(np.abs(phase * w).sum())) for w in (lhs, rhs))


def assembly_residual(cols, j_max):
    """``max |sum_k (-1)^k Tr(wedge^k P^j) / |det(1 - P^j)| - s eps^j|`` over every (orbit, iterate),
    ``s = (-1)^(dim / 2)``."""
    ratios = trace_ratios(cols, j_max)
    alt = sum((-1.0) ** k * ratio for k, ratio in enumerate(ratios))
    s = (-1) ** ((len(ratios) - 1) // 2)
    return float(np.abs(alt - s * powers(per_row(cols, cols.epsilon), j_max)).max())
