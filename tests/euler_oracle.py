"""Per-orbit Euler products, kept as the references of the Kleinian products, the trace series and a dump's cells.

Each product builds the full (orbit x iterate) array of its terms: powers by
``np.cumprod``, ``-multiplicity base^j / j`` per cell, the wedge-trace ratios
``Tr(wedge^k P^j) / |det(1 - P^j)|`` taken on every orbit (toral ones by this
module's arithmetic, Kleinian ones from ``zetas._trace_ratios``, which takes
them per orbit), the Selberg weights ``chi / det(1 - P_s^j)``, one
:func:`~friedzeta.summation.block_sum` over the whole array, the tail bound
from the j = 1 column and the iterate-truncation warning from the j = j_max
column.  Each returns its :class:`~friedzeta.zetas.ZetaValue` and the sum of
its term magnitudes, the scale its rounding is read against.

Toral rows come from :func:`table_columns` or :func:`records_columns`, which
keep the eigenvalues a dump lacks.  Given a ``depth`` M, the Ruelle and
graded products keep the cells with ``period * j <= M`` only: the truncation
of the trace series that the model's products (``continuation.toral_log_zetas``)
and a dump's (``variation.dump_log_zetas``) read; without one they keep
``j <= j_max`` on every row, the truncation of the products over orbit columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from friedzeta import zetas
from friedzeta.summation import block_sum
from friedzeta.zetas import ZetaValue


@dataclass
class ToralColumns:
    """The rows of an orbit table or of an ``OrbitRecord`` list, with their transverse data per row."""

    length: np.ndarray
    chi: np.ndarray
    period: np.ndarray
    epsilon: np.ndarray
    lam_u: np.ndarray
    lam_s: np.ndarray
    det_power: np.ndarray
    theta = None

    def __len__(self):
        return len(self.length)

    @property
    def multiplicity(self):
        return np.ones(len(self))


def _chi(representation, class_exps, winding):
    return np.ones(len(winding), dtype=complex) if representation is None else \
        representation.values(class_exps, winding)


def table_columns(table, representation=None, tau=0.0):
    """The columns of an orbit table at ``tau``."""
    return ToralColumns(table.lengths(tau), _chi(representation, table.class_exps, table.period), table.period,
                        *(column[table.period] for column in table.transverse()))


def records_columns(records, representation=None):
    """The columns of ``OrbitRecord`` rows in list order."""
    def column(name, dtype=float):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    class_exps = np.array([r.class_exps for r in records], dtype=np.int64).reshape(len(records), -1)
    winding = column("winding", np.int64)
    return ToralColumns(column("length"), _chi(representation, class_exps, winding), column("period", np.int64),
                        column("epsilon"), column("lam_u"), column("lam_s"), column("det_power"))


def powers(base, j_max):
    """``base**j`` for j = 1..j_max along a new last axis."""
    return np.cumprod(np.broadcast_to(base[:, None], (len(base), j_max)), axis=1)


def epsilon(cols):
    """The orientation index per row: a Kleinian row's is 1."""
    return cols.epsilon if isinstance(cols, ToralColumns) else np.ones(len(cols))


def twist(cols):
    """The twist's value per row: a Kleinian row takes none."""
    return cols.chi if isinstance(cols, ToralColumns) else np.ones(len(cols), dtype=complex)


def terms(cols, base, j_max):
    """``-multiplicity base^j / j`` per (orbit, iterate)."""
    out = powers(base, j_max)
    out *= -cols.multiplicity[:, None]
    out *= 1.0 / np.arange(1, j_max + 1)
    return out


def phases(cols, lam, j_max):
    """``-multiplicity chi^j exp(-lam j len) / j`` per (orbit, iterate): the λ-dependent factor of a term."""
    return terms(cols, twist(cols) * np.exp(-lam * cols.length), j_max)


def cells(cols, depth):
    """1 on the (orbit, iterate) cells with ``period * j <= depth``, 0 elsewhere, ``j = 1..depth``."""
    return (cols.period[:, None] * np.arange(1, depth + 1) <= depth).astype(float)


def trace_ratios(cols, j_max):
    """``Tr(wedge^k P^j) / |det(1 - P^j)|`` per (k, orbit, iterate).

    Toral ratios (k = 0..2) are divided through by ``|lam_u|^j``, which keeps
    them finite at any ``j``; Kleinian ones (k = 0..4) are ``zetas._trace_ratios``,
    one row per orbit.
    """
    if cols.theta is not None:
        return zetas._trace_ratios(cols, j_max)
    r = powers(1.0 / cols.lam_u, j_max)
    s = powers(cols.lam_s, j_max)
    r_abs = np.abs(r)
    traces = (r_abs, s * r_abs + np.sign(r), powers(cols.det_power, j_max) * r_abs)
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
    value = ZetaValue(complex(block_sum(array.ravel())), tail, lam, kind, warnings)
    return value, float(np.abs(array).sum())


def ruelle(cols, lam, policy, depth=None):
    """The Ruelle product over ``j <= policy.j_max``, or over the cells ``period * j <= depth``."""
    lam = complex(lam)
    j_max = policy.j_max if depth is None else depth
    base = epsilon(cols) * twist(cols) * np.exp(-lam * cols.length)
    array = terms(cols, base, j_max)
    if depth is not None:
        array *= cells(cols, depth)
    return zeta_value(cols, array, lam, "ruelle", policy)


def graded(cols, k, lam, policy, depth=None):
    """The degree-``k`` graded product over ``j <= policy.j_max``, or over the cells ``period * j <= depth``."""
    lam = complex(lam)
    j_max = policy.j_max if depth is None else depth
    array = phases(cols, lam, j_max) * trace_ratios(cols, j_max)[k]
    if depth is not None:
        array *= cells(cols, depth)
    return zeta_value(cols, array, lam, f"graded[{k}]", policy)


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
    return float(np.abs(alt - s * powers(epsilon(cols), j_max)).max())
