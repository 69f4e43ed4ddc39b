"""Truncated Euler products: Ruelle, graded and Selberg zeta functions.

Every product takes :class:`OrbitColumns`, built once per spectrum by
:func:`orbit_columns`, and ends in one :func:`~friedzeta.summation.block_sum`
of phases times λ-free weights, so values are reproducible bit for bit.

The products share one shape, ``-sum_gamma sum_j (m / j) z^j w_j`` with
``z = rho exp(-lam len)`` and a λ-free weight ``w_j``, and one reduction, by
weight group: the rows whose λ-free inputs are equal.  Toral rows group by
orientation index, eigenvalues of the return map and ``det(A)^n``, one
group per period of an orbit table; Kleinian weights differ per orbit, so
each Kleinian row is its own group, in row order.  Per λ, one exp per orbit
gives ``z``; ``j_max`` vector products ``z^j`` in group order, each followed
by one segmented sum, give the (group x iterate) phases
``-(multiplicity / j) sum z^j``.  The weights ``eps^j`` (Ruelle),
``Tr(wedge^k P^j) / |det(1 - P^j)|`` (graded k, and the sign check) and
``chi / det(1 - P_s^j)`` (Selberg) are (group x iterate) tables.  Phases are built once per λ, weights and the Kleinian iterate
tables once per columns and ``j_max``, all kept on the columns; the columns of an orbit table's τ grid share
the arrays that read no length.  The n0 = 2
Poincaré data and characters are closed forms; ``poincare_data`` and
``char_sigma`` are their references in the tests.
Tail bounds are Margulis-type geometric estimates anchored on the last
length shell actually summed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from ._record import fields, record, replace
from .characters import IrrepLabel
from .errors import CapacityError, ConvergenceError, ValidationError
from .kleinian import ComplexLengthRecord
from .summation import block_sum
from .toral import Character, OrbitDump, OrbitTable
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
# orbits x iterates (x orders) per product: bounds the power loop and the Kleinian iterate tables alike
MAX_CELLS = 1 << 24
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


# ---------------------------------------------------------------------------
# Orbit columns, weight groups and λ-free weights
# ---------------------------------------------------------------------------


@record(eq=False)
class OrbitColumns:
    """Read-only columns of a spectrum, one row per primitive orbit.

    Toral rows keep the order of their table or dump; Kleinian rows are in
    ``sort_key`` order.  The weight groups fix the order every
    reduction reads, so the row order only has to be deterministic.

    ``rho`` is the twist's value on each orbit and ``epsilon`` its
    orientation index.  Toral rows carry the eigenvalues ``lam_u``,
    ``lam_s`` of the transverse return map and ``det_power = det(A)^period``
    (``nan`` eigenvalues for orbit-dump rows); Kleinian rows carry the
    holonomy angle ``theta`` instead.  Arrays derived from the columns (the
    weight groups, the signs, the wedge-trace ratios, the current λ's phases,
    the Kleinian iterates and the factorization's tables) are kept with them
    and freed with them, as are
    ``variation.direct_quotient``'s τ = 0 Ruelle log and the twist
    ``epsilon * rho`` of ``variation.variation_rhs``.

    The columns of an orbit table at τ ≠ 0 are its τ = 0 columns with other
    lengths: they hold the τ = 0 arrays themselves, and the arrays derived
    without reading a length (the groups' order, the signs, the toral
    ratios) are kept once, on the τ = 0 columns' ``_shared`` store, for the
    columns of every τ.  Other columns share with no one.
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
        object.__setattr__(self, "_shared", self._derived)

    def __len__(self) -> int:
        return len(self.length)


def orbit_columns(spectrum, representation=None, tau: float = 0.0) -> OrbitColumns:
    """Columns of an :class:`OrbitTable` (lengths at ``tau``), an :class:`OrbitDump` or Kleinian length records.

    This is where a spectrum and its twist become the columns every Euler
    product takes.  Toral orbits take a :class:`Character` twist (``None``
    is trivial); Kleinian records carry their own ``rho`` and take none.
    The columns of a table at τ ≠ 0 share every array but ``length`` with
    its τ = 0 columns, which are built once per table and twist.
    """
    if isinstance(spectrum, OrbitTable):
        return _table_columns(spectrum, representation, float(tau))
    if tau:
        raise ValidationError("tau applies to an orbit table; dumps and length records carry their lengths")
    if isinstance(spectrum, OrbitDump):
        nan = np.full(len(spectrum), math.nan)
        return _toral_columns(representation, spectrum.class_exps, spectrum.length, spectrum.epsilon, nan, nan,
                              np.zeros(len(spectrum), dtype=np.int64), spectrum.winding)
    records = list(spectrum)
    if not all(isinstance(r, ComplexLengthRecord) for r in records):
        raise ValidationError("a spectrum is an orbit table, an orbit dump or ComplexLengthRecord rows")
    if records and representation is not None:
        raise ValidationError("length records carry their own rho value and take no twist")
    records.sort(key=lambda r: r.sort_key())
    rows = np.array([(r.length, r.theta, r.multiplicity) for r in records], dtype=float)
    length, theta, multiplicity = rows.reshape(-1, 3).T
    rho = np.array([r.rho for r in records], dtype=complex)
    return OrbitColumns(length, rho, np.ones(len(records)), multiplicity, theta=theta)


@lru_cache(maxsize=2)  # the tau = 0 columns and the current tau's
def _table_columns(table: OrbitTable, representation, tau: float) -> OrbitColumns:
    length = table.lengths(tau)
    if not tau:
        return _toral_columns(representation, table.class_exps, length, *table.transverse(), table.period)
    cols_0 = _table_columns(table, representation, 0.0)
    cols = replace(cols_0, length=length)
    object.__setattr__(cols, "_shared", cols_0._shared)
    return cols


def _toral_columns(representation, class_exps, length, eps, lam_u, lam_s, det_power, winding):
    if representation is None:
        rho = np.ones(len(length), dtype=complex)
    elif isinstance(representation, Character):
        rho = representation.values(class_exps, winding)
    else:
        raise ValidationError("toral orbits take a Character twist")
    return OrbitColumns(length, rho, eps, np.ones(len(length)), lam_u, lam_s, det_power)


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


def _kept(cols: OrbitColumns, name: str, key, build, shared: bool = False):
    """``build()`` (an array, a tuple of them or a number), kept on ``cols`` until ``name`` has another ``key``.

    Kept arrays are read-only.  A ``shared`` one reads no length: it is kept on the ``_shared`` store, found
    there by the columns of every τ of one table and twist, and listed with ``cols``'s own.
    """
    store = cols._shared if shared else cols._derived
    kept = store.get(name)
    if kept is None or kept[0] != key:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        kept = store[name] = (key, value)
    cols._derived[name] = kept
    return kept[1]


def _groups(cols: OrbitColumns):
    """``(order, starts, rows, in_shell)``: the weight groups of the columns, built once per columns.

    A toral weight group is the rows whose λ-free inputs (``epsilon``, ``lam_u``, ``lam_s``, ``det_power``,
    ``multiplicity``) are equal, compared bit for bit so that the ``nan`` eigenvalues of dump rows tie: a
    table has one group per period, a dump one per orientation index.  Kleinian weights differ per orbit,
    so each Kleinian row is a group of its own, in row order.  ``order`` sorts the rows into group order
    (stably, so each group keeps the row order of the columns), ``starts`` holds the first position of
    each group in it and ``rows`` one row of each group.  ``in_shell`` marks, in group order, the rows of
    the last length shell ``(L - 1, L]`` that the tail bound reads.

    The groups read no length, so the columns of every τ of a table share one ``(order, starts, rows)``;
    ``in_shell`` is built per columns.
    """
    def build():
        if cols.theta is not None:
            order = starts = np.arange(len(cols))
        else:
            inputs = (cols.multiplicity, cols.det_power, cols.lam_s, cols.lam_u, cols.epsilon)
            keys = [key.view(np.int64) if key.dtype == np.float64 else key for key in inputs]
            order = np.lexsort(keys)
            first = np.zeros(len(order), dtype=bool)
            first[:1] = True
            for key in keys:
                ordered = key[order]
                first[1:] |= ordered[1:] != ordered[:-1]
            starts = np.flatnonzero(first)
        return order, starts, order[starts]

    order, starts, rows = _kept(cols, "groups", None, build, shared=True)
    in_shell = _kept(cols, "in_shell", None, lambda: cols.length[order] > cols.length.max(initial=-math.inf) - 1.0)
    return order, starts, rows, in_shell


def _weight_rows(cols: OrbitColumns, j_max: int):
    """The rows the λ-free weights are taken on: one per weight group.

    The columns are first held to the (orbit x iterate) cap, so the cap refuses the same requests however
    many groups there are.
    """
    _require_cells(len(cols) * j_max)
    return _groups(cols)[2]


def _signs(cols: OrbitColumns, j_max: int) -> np.ndarray:
    """``eps^j`` per (weight row, iterate): the Ruelle weight and the sign check's target.

    Built once per ``j_max`` and shared by the columns of every τ of a table.
    """
    return _kept(cols, "signs", j_max, lambda: _powers(cols.epsilon[_weight_rows(cols, j_max)], j_max), shared=True)


def _group_phases(cols: OrbitColumns, lam: complex, j_max: int):
    """``Phi[g, j] = -(m_g / j) sum_{gamma in g} z^j``, ``z = rho exp(-lam len)``, per (weight group, iterate).

    Built once per ``lam`` from one exp per orbit, ``j_max`` vector products ``z^j`` in group order and,
    after each, one segmented sum over the groups; no (orbit x iterate) array is built.  Returned with
    two magnitudes per group: ``m_g sum |z|`` over its rows in the last length shell, which the tail
    bound reads, and ``m_g max |z^j_max| / j_max``, which the iterate-truncation warning reads.
    """
    def build():
        _require_cells(len(cols) * j_max)
        order, starts, rows, in_shell = _groups(cols)
        z = (cols.rho * np.exp(-lam * cols.length))[order]
        sums = np.empty((len(starts), j_max), dtype=complex)
        power = z.copy()
        sums[:, 0] = np.add.reduceat(power, starts)
        for j in range(1, j_max):
            power *= z
            sums[:, j] = np.add.reduceat(power, starts)
        multiplicity = cols.multiplicity[rows]
        sums *= -multiplicity[:, None]
        sums *= 1.0 / np.arange(1, j_max + 1)
        shell = np.add.reduceat(np.where(in_shell, np.abs(z), 0.0), starts) * multiplicity
        last = np.maximum.reduceat(np.abs(power), starts) * multiplicity / j_max
        return sums, shell, last

    return _kept(cols, "group_phases", (lam, j_max), build)


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
    """``Tr(wedge^k P^j) / |det(1 - P^j)|`` per (k, weight row, iterate), k = 0..dim, built once per ``j_max``.

    The one λ-free array of the graded terms, the factorization's left side
    and the sign check, taken on the rows of :func:`_weight_rows`: one per
    weight group, so every row of Kleinian columns.  Toral traces and
    determinants are divided through by ``|lam_u|^j``, which leaves every
    ratio unchanged and keeps both finite at any ``j``.  Toral ratios read
    no length and are shared by the columns of every τ of a table.
    """
    def build():
        if cols.theta is None:
            if np.isnan(cols.lam_u).any():
                raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
            rows = _weight_rows(cols, j_max)
            r = _powers(1.0 / cols.lam_u[rows], j_max)  # lam_u^-j
            s = _powers(cols.lam_s[rows], j_max)
            r_abs = np.abs(r)
            traces = (r_abs, s * r_abs + np.sign(r), _powers(cols.det_power[rows], j_max) * r_abs)
            # |det| = |r - 1| |s - 1|; a reciprocal, then products
            scale, combine = 1.0 / (np.abs(r - 1.0) * np.abs(s - 1.0)), np.multiply
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

    return _kept(cols, "ratios", j_max, build, shared=cols.theta is None)


def _require_convergence(lam: complex, threshold: float, allow_formal: bool, what: str):
    if not allow_formal and lam.real <= threshold:
        raise ConvergenceError(
            f"Re(lambda)={lam.real} outside convergence region Re > {threshold} for {what}"
        )


def _shell_tail(top: float, shell: float, sigma: float, h: float) -> float:
    """Twice the magnitude ``shell`` summed in the shell ``(top-1, top]``, continued at rate
    ``exp(-(sigma - h))`` per unit length.
    """
    if sigma <= h:
        return math.inf
    q = math.exp(-(sigma - h))
    base = shell if shell > 0 else math.exp(-(sigma - h) * top)
    return 2.0 * base * q / (1.0 - q)


def _group_value(cols: OrbitColumns, weights: np.ndarray, lam: complex, kind: str, policy: TruncationPolicy):
    """Sum ``Phi * weights`` over (weight group, iterate), with the tail from the last length shell.

    An orbit's j = 1 and j = j_max terms are ``|m z|`` and ``|m z^j_max| / j_max`` times its group's
    weight, so the tail and the truncation warning read :func:`_group_phases`' per-group magnitudes.  A
    j = j_max term above ``tail_tol`` is flagged: the iterate truncation could then dominate the length tail.
    """
    phases, shell, last = _group_phases(cols, lam, policy.j_max)
    magnitude = np.abs(weights)
    tail, warnings = 0.0, ("empty spectrum",)
    if len(cols):
        top = float(cols.length.max())
        tail = _shell_tail(top, float((shell * magnitude[:, 0]).sum()), lam.real, policy.entropy)
        warnings = ()
    worst_last = float((last * magnitude[:, -1]).max(initial=0.0))
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

    ``log zeta = -sum_gamma sum_j (1/j) eps^j rho^j exp(-lam*j*len)``;
    requires ``Re(lam) > policy.entropy`` unless ``allow_formal``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    with _in_float_range(lam):
        return _group_value(cols, _signs(cols, policy.j_max), lam, "ruelle", policy)


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
        return _group_value(cols, ratios[k], lam, f"graded[{k}]", policy)


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
        max_residual = float(np.abs(alt - s * _signs(cols, policy.j_max)).max())
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
        return _group_value(cols, chi / _det_one_minus_ps(a, c), lam, "selberg", policy)


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
    _require_kleinian(cols, "factorization checks")
    if not len(cols):
        raise ValidationError("empty spectrum")
    ell_min = float(cols.length.min())
    tail_estimate = (policy.p_max + 2) ** 2 * math.exp(-(policy.p_max + 1) * ell_min)
    with _in_float_range(lam):
        lhs, (rhs,) = _factorization_weights(cols, k, policy.j_max, [policy.p_max])
        max_abs, max_rel = _relative_residual(lhs, rhs)
        phases = _group_phases(cols, lam, policy.j_max)[0]
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
