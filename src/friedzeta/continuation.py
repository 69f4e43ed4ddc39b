"""Cycle-expansion determinants and the toral Euler products, both from one stream of trace sums.

Each graded determinant is the exponential-of-trace generating function
``d_k = sum_n c_n`` with the standard trace-to-coefficient recursion
``c_n = -(1/n) sum_m t_m c_{n-m}``, built from per-period fixed-point
trace sums read off the orbit table.  For analytic roof data the
coefficients decay super-exponentially and the sum evaluates the zeta
factors at any spectral parameter, in particular at 0.

The recursion stops once the coefficients have decayed, usually well
before ``n_max``, so traces are pulled one at a time: ``c_n`` reads
``t_n`` only, ``S_n`` reads the orbits of the periods dividing ``n``,
and the model's orbit table grows to period ``n`` only when ``S_n`` is
first read (the first read also builds the small periods up to
``n_max``, in one union pass).  One stream of sums serves a whole grid
of ``lambda`` (:func:`cycle_zetas`; :func:`cycle_zeta` is a grid of one): the three
determinants of every ``lambda`` read it, each ``S_n`` is computed once
per ``lambda`` that reads it, and the ``lambda``-free parts of ``S_n``
once for the grid.  The cost of a value thus follows the depth its
recursion reads, not ``n_max`` nor the depth of another ``lambda``; the
values are those of the whole-table computation at each ``lambda``
alone, since ``c_1..c_n`` depend on ``t_1..t_n`` alone.

The circle part ``u`` of the twist is factored out of the traces
(``t_m = u^m * t_hat_m``) and restored as ``c_n = u^n * c_hat_n``; with
constant roofs the stripped recursion then telescopes to exact zeros in
floating point, which is what the exact identity checks rely on.

The same traces give the Euler products of the suspension
(:func:`toral_log_zetas`): every orbit of period ``p`` has return map
``A^p``, so the graded product regroups by ``m = p j`` into the partial sums
``log Z_k = -sum_{m <= M} u^m t_m / m`` of the trace series, one exp per
(orbit, iterate) cell with ``p j <= M``.  Their tails past ``M`` have a
closed-form bound that reads no orbit, so each depth is known before the
table is built.
"""

from __future__ import annotations

import bisect
import cmath
import math
import sys

import numpy as np

from ._record import record
from .characters import _reduce_angle
from .errors import CapacityError, ConvergenceError, ResonanceAtZeroError, ValidationError
from .summation import block_sum, fsum_complex
from .toral import Character, OrbitTable, SuspensionModel, _small_depth, orbit_table
from .zetas import TruncationPolicy, ZetaValue, _require_convergence

__all__ = [
    "DynamicalDeterminant",
    "dynamical_determinant",
    "cycle_zeta",
    "cycle_zetas",
    "CycleZeta",
    "zeta_at_zero",
    "zeta_at_zero_at",
    "check_resonance_at_zero",
    "trace_sums",
    "toral_log_zetas",
]

# A determinant below this modulus at its own lambda is a zero: a resonance at 0, else a pole or zero of zeta
RESONANCE_TOL = 1e-9
# A certified series tail is evaluated in floats within a few ulps; this factor covers the rounding
TAIL_MARGIN = 1.0 + 1e-12
LOG_TINY = math.log(sys.float_info.min)  # exp below this exponent is subnormal, and loses precision


@record
class DynamicalDeterminant:
    """Graded determinant value with its trace and coefficient sequences.

    ``traces`` and ``coefficients`` are the circle-stripped sequences, the
    ``n_used`` traces the recursion read and ``c_0..c_{n_used}``; ``circle``
    restores them (``t_m = circle^m * traces[m-1]``).
    """

    grading: int
    lam: complex
    circle: complex
    traces: tuple[complex, ...]
    coefficients: tuple[complex, ...]
    value: complex
    n_used: int
    reliable: bool
    tail_bound: float
    warnings: tuple[str, ...] = ()


def _out_of_range(lam: complex) -> ConvergenceError:
    return ConvergenceError(
        f"cycle expansion at lambda={lam} overflows floating point; raise Re(lambda) or lower n_max"
    )


class _TraceStream:
    """Circle-stripped fixed-point sums ``S_m`` over a grid of ``lam``, each computed the first time its ``lam`` reads it.

    ``S_m = sum_{x in Fix(A^m)} exp(-lam * r_m(x)) * fiber(x)``, where ``r_m`` is the effective-roof Birkhoff sum
    and ``fiber`` the finite character part of the twist (its circle part, ``circle``, is excluded), is one sum
    ``sum p * fiber * exp(-lam * k * length)`` over ``lam``-free columns.  A point of least period ``p | m`` lies
    on a primitive orbit with ``r_m = (m/p) * length`` and ``fiber(x) = fiber(class)^(m/p)``, so the columns are
    the orbit table's rows of the periods ``p | m``, with ``k = m/p``.  Where the weight does not depend on the
    point (``lam = 0`` or a constant effective roof ``r_bar``) and the fiber is trivial, they are one row that
    enumerates nothing: the ``|det(A^m - I)|`` fixed points, each with ``r_m = m * r_bar``.  The other ``lam``
    read the table: the first ``S_m`` read grows it to period ``m`` (the first growth also builds the small
    periods up to ``n_max``, the cap of the command's recursions, in one union pass: see :meth:`table`) and
    gathers the columns of ``S_m`` once for the grid, and each ``lam`` takes its own exponential over them, so
    the work follows the depth each ``lam`` reads and the memory the table, not the grid.  The integers
    ``|det(A^m - I)|`` and ``Tr(wedge^k A^m)`` come from the automorphism's trace recurrence; a count past the
    float range enters ``S_m`` in log space and ``t_m`` through an exact integer ratio.
    """

    def __init__(self, model: SuspensionModel, representation: Character | None, lams, tau: float, n_max: int):
        model.require_tau(tau)
        self.model, self.representation, self.tau, self.n_max = model, representation, tau, n_max
        self.lams = [complex(lam) for lam in lams]
        self.circle = 1.0 + 0.0j if representation is None else complex(representation.circle)
        self.fiber_trivial = representation is None or representation.fiber_is_trivial
        scaled = tau != 0.0 and model.time_change is not None
        self.const_roof = model.roof.is_constant and (not scaled or model.time_change.is_constant)
        self.r_bar = np.array([model.roof.constant * (1.0 + tau * model.time_change.constant if scaled else 1.0)])
        self.integers: list[tuple[int, int, int, int]] = []  # per m: |det(A^m - I)|, Tr(wedge^k A^m) for k = 0, 1, 2
        self.sums: list[list[complex]] = [[] for _ in self.lams]  # per lam: S_1, S_2, ... as far as it read
        self.columns: dict[int, tuple] = {}  # per m read from the table: (m/p, lengths, fiber values or None, p)
        self.lengths: list[np.ndarray] = []  # per period read from the table: its orbit lengths at tau

    def reads_table(self, lam: complex) -> bool:
        """Whether ``S_m`` at ``lam`` sums over the orbit table rather than over one row of fixed points."""
        return not (self.fiber_trivial and (lam == 0 or self.const_roof))

    def trace(self, i: int, k: int, m: int) -> complex:
        """``t_m = Tr(wedge^k A^m) * S_m / |det(A^m - I)|`` at the ``i``-th ``lam``, circle part stripped; the sums
        below ``m`` at that ``lam`` are computed first."""
        sums = self.sums[i]
        while len(sums) < m:
            sums.append(self._sum(self.lams[i], len(sums) + 1))
        count, wedge = self.integers[m - 1][0], self.integers[m - 1][1 + k]
        if count > sys.float_info.max:
            return wedge / count * sums[m - 1]
        return wedge * (sums[m - 1] / count)

    def table(self, m: int) -> OrbitTable:
        """The orbit table to period ``m``, with its lengths at ``tau`` checked finite (else :class:`CapacityError`).

        Each period's lengths are computed and checked once, when the stream first reads that period.  The
        first growth also builds the small periods up to ``n_max`` (:func:`toral._small_depth`), in one union
        pass; when one of those past ``m`` is out of the float range it builds to ``m`` only, so an error
        comes only from a period read.
        """
        small = 0 if self.lengths else _small_depth(self.model.automorphism, self.n_max)
        if small > m:
            try:
                orbit_table(self.model, small)
            except CapacityError:  # a length past m is out of the float range: build only the periods read
                pass
        table = orbit_table(self.model, m)
        for p in range(len(self.lengths) + 1, m + 1):
            self.lengths.append(table.lengths(self.tau, table.period_slice(p)))
        return table

    def _sum(self, lam: complex, m: int) -> complex:
        auto = self.model.automorphism
        for n in range(len(self.integers) + 1, m + 1):
            self.integers.append((abs(auto.det_one_minus_power(n)), 1, auto.trace_power(n), auto.det**n))
        if self.reads_table(lam):
            k, lengths, fiber, period = self._columns(m)
        else:  # one row: the |det(A^m - I)| fixed points, each with r_m = m * r_bar
            k, lengths, fiber, period = m, self.r_bar, None, self.integers[m - 1][0]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported as ConvergenceError
            terms = -lam * k
            terms *= lengths
            if lengths is self.r_bar and (period > sys.float_info.max or terms.real[0] < LOG_TINY):
                terms, period = terms + math.log(period), 1  # the one row's count or weight past the normal floats
            np.exp(terms, out=terms)
            if fiber is not None:
                terms *= fiber
            terms *= period
        s = complex(block_sum(terms))
        if not cmath.isfinite(s):
            raise _out_of_range(lam)
        return s

    def _columns(self, m: int) -> tuple:
        """The ``lam``-free columns of ``S_m`` over the rows of the periods ``p | m``, in order, gathered once."""
        if m not in self.columns:
            table = self.table(m)
            divisors = [p for p in range(1, m + 1) if m % p == 0]
            rows = [table.period_slice(p) for p in divisors]
            period = np.concatenate([table.period[r] for r in rows])
            k = m // period  # a point of least period p | m has r_m = (m/p) * length
            fiber = None
            if not self.fiber_trivial:
                fiber = self.representation.fiber_values(k[:, None] * np.concatenate([table.class_exps[r] for r in rows]))
            self.columns[m] = (k, np.concatenate([self.lengths[p - 1] for p in divisors]), fiber, period)
        return self.columns[m]


def trace_sums(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    n_max: int,
    tau: float = 0.0,
):
    """Circle-stripped fixed-point sums ``S_m`` and counts for m = 1..n_max (see :class:`_TraceStream`)."""
    stream = _TraceStream(model, representation, (lam,), tau, n_max)
    stream.trace(0, 0, n_max)
    return stream.sums[0], [count for count, *_ in stream.integers]


def _plemelj_smithies(trace, tail_tol: float, n_max: int, window: int):
    """Coefficient recursion with compensated sums and a decay-based stop.

    ``trace(m)`` is read when the recursion reaches ``c_m``, so the traces
    past the stop are never computed.  Past n = 2 it stops at an exact
    zero, or once the last ``window`` coefficients are all below
    ``tail_tol``: under a fiber character of order q the coefficients off
    multiples of q can vanish by symmetry, so one small coefficient does
    not show decay.  The tail bound is 0 after an exact zero and else the
    largest of the last ``window``.
    """
    traces: list[complex] = []
    coeffs: list[complex] = [1.0 + 0.0j]
    warnings: list[str] = []
    reliable = True
    for n in range(1, n_max + 1):
        traces.append(trace(n))
        c = -fsum_complex([traces[m - 1] * coeffs[n - m] for m in range(1, n + 1)]) / n
        coeffs.append(c)
        if n >= 4 and abs(coeffs[n]) > abs(coeffs[n - 1]) >= tail_tol:
            reliable = False
        if n >= 3 and (c == 0 or all(abs(x) < tail_tol for x in coeffs[-window:])):
            break
    if not reliable:
        warnings.append("continuation unreliable: coefficient decay is not monotone past n=4")
    tail = 0.0 if coeffs[-1] == 0 else max(abs(x) for x in coeffs[-window:])
    return traces, coeffs, tail, reliable, warnings


def _fiber_order(representation: Character | None) -> int:
    """Order of the fiber part of the character (1 when trivial)."""
    if representation is None:
        return 1
    pairs = zip(representation.fiber_exponents, representation.fiber_orders)
    return math.lcm(*(d // math.gcd(e, d) for e, d in pairs))


def dynamical_determinant(
    model: SuspensionModel,
    representation: Character | None,
    k: int,
    lam: complex,
    n_max: int,
    tau: float = 0.0,
    tail_tol: float = 1e-12,
    _stream: tuple[_TraceStream, int] | None = None,
) -> DynamicalDeterminant:
    """Degree-``k`` cycle-expansion determinant at spectral parameter ``lam``.

    Traces are ``t_m = Tr(wedge^k A^m) * S_m / |det(A^m - I)|`` with the
    circle part of the twist stripped; the value is ``sum_n u^n c_n``.
    ``traces`` holds the ``n_used`` traces the recursion read; ``_stream``
    is a :class:`_TraceStream` of the same model, character and ``tau``,
    whose sums other determinants share, and the index of ``lam`` in its grid.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    stream, i = (_TraceStream(model, representation, (lam,), tau, n_max), 0) if _stream is None else _stream

    def trace(m: int) -> complex:
        return stream.trace(i, k, m)

    u = stream.circle
    window = max(2, _fiber_order(representation))
    try:
        traces, coeffs, tail, reliable, warnings = _plemelj_smithies(trace, tail_tol, n_max, window)
        terms, u_pow = [], 1.0 + 0.0j
        for c in coeffs:
            terms.append(u_pow * c)
            u_pow *= u
        value = fsum_complex(terms)
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
        tail_bound=tail,
        warnings=tuple(warnings),
    )


@record
class CycleZeta:
    """Zeta value at ``lam`` assembled from the graded determinants."""

    value: complex
    modulus: float
    determinants: tuple[DynamicalDeterminant, ...]
    reliable: bool

    @property
    def d_values(self) -> tuple[complex, ...]:
        return tuple(d.value for d in self.determinants)

    @property
    def log_value(self) -> complex:
        """``log d_1 - log d_0 - log d_2`` with the imaginary part in (-pi, pi].

        Finite where ``value`` is not: ``d_0 d_2`` can overflow while the log stays moderate.
        """
        log_d0, log_d1, log_d2 = (cmath.log(d) for d in self.d_values)
        log_value = log_d1 - log_d0 - log_d2
        return complex(log_value.real, _reduce_angle(log_value.imag))

    @property
    def tail_bound(self) -> float:
        """Heuristic truncation error: the largest tail bound of the three determinants."""
        return max(d.tail_bound for d in self.determinants)


def check_resonance_at_zero(dets) -> None:
    """Reject determinants that vanish within :data:`RESONANCE_TOL` at their own ``lam``.

    At ``lam = 0`` that is the excluded resonance (:class:`ResonanceAtZeroError`);
    elsewhere ``log zeta`` meets a pole or zero (:class:`ConvergenceError`).
    """
    for d in dets:
        if abs(d.value) < RESONANCE_TOL:
            if d.lam == 0:
                raise ResonanceAtZeroError(
                    f"resonance at zero: d_{d.grading}(0) = {d.value}; zeta value undefined"
                )
            kind = "zero" if d.grading == 1 else "pole"
            raise ConvergenceError(f"{kind} at lambda={d.lam}: d_{d.grading} = {d.value}; log zeta undefined")


def cycle_zetas(
    model: SuspensionModel,
    representation: Character | None,
    lams,
    policy: TruncationPolicy,
    tau: float = 0.0,
) -> list[CycleZeta]:
    """:func:`cycle_zeta` at each ``lam`` of ``lams``, in order, from one stream of trace sums.

    Every determinant of every ``lam`` reads the same :class:`_TraceStream`,
    so each ``S_m`` is computed once per ``lam`` that reads it, over columns
    gathered once for the grid; the periods past the deepest stop are never
    enumerated, but for the small periods up to ``policy.max_period`` that
    the stream's first growth builds in one union pass, and no period past
    the deepest stop raises its errors (the enumeration cap, an overflow).
    A ``lam`` raises what :func:`cycle_zeta` raises at it alone, once the
    ``lam`` before it have their values.
    """
    lams = tuple(lams)
    stream = _TraceStream(model, representation, lams, tau, policy.max_period)
    zetas = []
    for i, lam in enumerate(lams):
        dets = tuple(
            dynamical_determinant(
                model, representation, k, lam, policy.max_period, tau=tau,
                tail_tol=policy.tail_tol, _stream=(stream, i),
            )
            for k in range(3)
        )
        check_resonance_at_zero(dets)
        value = dets[1].value / (dets[0].value * dets[2].value)
        zetas.append(CycleZeta(value=value, modulus=abs(value), determinants=dets,
                               reliable=all(d.reliable for d in dets)))
    return zetas


def cycle_zeta(
    model: SuspensionModel,
    representation: Character | None,
    lam: complex,
    policy: TruncationPolicy,
    tau: float = 0.0,
) -> CycleZeta:
    """``zeta(lam) = d_1(lam) / (d_0(lam) d_2(lam))`` from the cycle expansions: :func:`cycle_zetas` on a grid of one.

    The three determinants share one stream of trace sums, each sum
    computed the first time a recursion reads it.  A determinant that
    vanishes within :data:`RESONANCE_TOL` raises
    :class:`ResonanceAtZeroError` at ``lam = 0``, the excluded resonant
    case, and :class:`ConvergenceError` elsewhere.
    """
    return cycle_zetas(model, representation, (lam,), policy, tau)[0]


def zeta_at_zero(
    model: SuspensionModel,
    representation: Character | None,
    policy: TruncationPolicy,
    tau: float = 0.0,
) -> CycleZeta:
    """``zeta(0)``: :func:`cycle_zeta` at ``lam = 0``."""
    return cycle_zeta(model, representation, 0.0, policy, tau)


def zeta_at_zero_at(model: SuspensionModel, representation: Character | None, z: CycleZeta, tau: float) -> CycleZeta:
    """:func:`zeta_at_zero` at ``tau``, given its value ``z`` at another ``tau`` of the same model, character and policy.

    At ``lam = 0`` every weight ``exp(-0 * length)`` is 1 exactly, so the
    value does not depend on ``tau``.  What ``tau`` decides is whether the
    sums can be read: ``tau`` must be admissible, and where the sums read
    the orbit table (a non-trivial fiber) a length at ``tau`` out of the
    float range, to the deepest period ``z`` read, raises the
    :class:`CapacityError` that :func:`zeta_at_zero` raises at ``tau``.
    """
    depth = max(d.n_used for d in z.determinants)
    stream = _TraceStream(model, representation, (0.0,), tau, depth)
    if stream.reads_table(0.0):
        stream.table(depth)
    return z


# ---------------------------------------------------------------------------
# Euler products as partial sums of the trace series
# ---------------------------------------------------------------------------


def _certified_tail(k: int, rate: float, log_lam_u: float, depth: int) -> float:
    """A bound on ``sum_{m > depth} |t_m^(k)| / m``, for ``x = exp(-rate)`` and ``q = |lam_u| x < 1``.

    ``|S_m| <= |det(A^m - I)| x^m`` and ``|Tr(wedge^k A^m)| <= 1``, or ``q^m / x^m + 1`` for k = 1, so the
    tail is at most ``(q^(M+1) / (1 - q) + x^(M+1) / (1 - x)) / (M + 1)`` for k = 1 and
    ``x^(M+1) / ((1 - x) (M + 1))`` for k = 0 and 2, with ``1 - x`` and ``1 - q`` taken by ``expm1``.
    """
    n = depth + 1
    tail = math.exp(-rate * n) / -math.expm1(-rate)
    if k == 1:
        tail += math.exp((log_lam_u - rate) * n) / -math.expm1(log_lam_u - rate)
    return TAIL_MARGIN * tail / n


def _series_depths(rate: float, log_lam_u: float, policy: TruncationPolicy) -> list[tuple[int, float | None]]:
    """``(depth, certified tail or None)`` for k = 0, 1, 2 at ``rate = Re(lam) r_min``.

    Each depth is the smallest whose bound is at most ``policy.tail_tol``, capped at ``policy.max_period``;
    where ``q >= 1`` there is no bound, and every depth is ``max_period``.  The bound falls as the depth grows, so
    each depth is found by bisection, in O(log ``max_period``) bounds.
    """
    if rate <= log_lam_u:
        return [(policy.max_period, None)] * 3
    plan = []
    for k in range(3):
        depth = 1 + bisect.bisect_left(range(1, policy.max_period), True,
                                       key=lambda m: _certified_tail(k, rate, log_lam_u, m) <= policy.tail_tol)
        plan.append((depth, _certified_tail(k, rate, log_lam_u, depth)))
    return plan


def _log_series(stream: _TraceStream, i: int, k: int, depth: int) -> tuple[complex, float]:
    """``-sum_{m <= depth} u^m t_m^(k) / m`` at the ``i``-th ``lam`` of ``stream``, and its last term's modulus."""
    u = stream.circle
    terms = [u**m * stream.trace(i, k, m) / m for m in range(1, depth + 1)]
    value = -fsum_complex(terms)
    if not cmath.isfinite(value):
        raise OverflowError
    return value, abs(terms[-1])


def toral_log_zetas(
    model: SuspensionModel,
    representation: Character | None,
    lams,
    policy: TruncationPolicy,
    tau: float = 0.0,
    allow_formal: bool = False,
) -> list[tuple[ZetaValue, ...]]:
    """Per ``lam`` of ``lams``: the Ruelle and the graded 0, 1 and 2 log zetas, as partial sums of the trace series.

    ``log Z_k = -sum_{m <= M} u^m t_m^(k) / m`` over one :class:`_TraceStream` for the grid; the Ruelle log
    is ``-(log Z_0 - log Z_1 + log Z_2)``, since per cell the alternating sum of the weights is ``-eps^j``.
    Re(lam) must exceed ``policy.entropy`` unless ``allow_formal``.  With ``x = exp(-Re(lam) r_min)``,
    ``r_min = model.min_effective_roof(tau)``, and ``q = |lam_u| x < 1``, each (lam, k) stops at its certified
    depth (:func:`_series_depths`) and the Ruelle tail is the sum of the three; where ``q >= 1`` every row reads
    to ``max_period`` and its tail is the modulus of its last term, a heuristic.
    """
    lams = [complex(lam) for lam in lams]
    for lam in lams:
        _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    r_min, log_lam_u = model.min_effective_roof(tau), math.log(abs(model.automorphism.lam_u))
    plans = [_series_depths(lam.real * r_min, log_lam_u, policy) for lam in lams]
    stream = _TraceStream(model, representation, lams, tau, max(depth for plan in plans for depth, _ in plan))
    deepest = [depth for lam, plan in zip(lams, plans) if stream.reads_table(lam) for depth, _ in plan]
    if deepest:
        stream.table(max(deepest))
    rows = []
    for i, (lam, plan) in enumerate(zip(lams, plans)):
        graded = []
        for k, (depth, tail) in enumerate(plan):
            try:
                value, last = _log_series(stream, i, k, depth)
            except (ConvergenceError, OverflowError, ValueError):
                raise ConvergenceError(f"Euler product at lambda={lam} leaves floating point") from None
            graded.append(ZetaValue(value, last if tail is None else tail, lam, f"graded[{k}]",
                                    tail_kind="heuristic" if tail is None else "certified", n_used=depth))
        g0, g1, g2 = graded
        ruelle = ZetaValue(-(g0.log_value - g1.log_value + g2.log_value),
                           g0.tail_bound + g1.tail_bound + g2.tail_bound, lam, "ruelle",
                           tail_kind=g1.tail_kind, n_used=max(g.n_used for g in graded))
        rows.append((ruelle, *graded))
    return rows
