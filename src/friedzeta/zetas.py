"""Truncated Euler products: Ruelle, graded and Selberg zeta functions.

All sums run over primitive-orbit records and iterate indices in a fixed
sorted order with compensated accumulation, so values are reproducible
bit for bit.  Tail bounds are Margulis-type geometric estimates anchored
on the last length shell actually summed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .characters import IrrepLabel, TorusElement, char_label, homogeneous_sums, rotation_eigenvalues
from .errors import ConvergenceError, ValidationError
from .kleinian import ComplexLengthRecord, poincare_data
from .summation import kahan_complex_sum
from .toral import Character, OrbitRecord, transverse_wedge_traces

__all__ = [
    "TruncationPolicy",
    "ZetaValue",
    "ruelle_log_zeta",
    "graded_log_zeta",
    "assemble_ruelle_from_graded",
    "AssemblyReport",
    "selberg_log_zeta",
    "factorization_check",
    "factorization_residual_curve",
    "FactorizationReport",
    "guillemin_series",
]

N0 = 2  # transverse rotation rank for the hyperbolic 3-manifold model


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ZetaValue:
    """Log-domain zeta value with its truncation tail estimate."""

    log_value: complex
    tail_bound: float
    lam: complex
    kind: str
    policy: TruncationPolicy
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


# ---------------------------------------------------------------------------
# Record access helpers
# ---------------------------------------------------------------------------


def _sorted_records(spectrum):
    return sorted(spectrum, key=lambda r: r.sort_key())


def _record_rho(record, representation) -> complex:
    if isinstance(record, OrbitRecord):
        if representation is None:
            return 1.0 + 0.0j
        if not isinstance(representation, Character):
            raise ValidationError("toral orbit records take a Character twist")
        return representation.value(record.class_exps, record.winding)
    if isinstance(record, ComplexLengthRecord):
        if representation is not None:
            raise ValidationError(
                "length records carry their own rho value; pass representation=None"
            )
        return complex(record.rho)
    raise ValidationError(f"unsupported spectrum record {type(record).__name__}")


def _epsilon(record) -> int:
    return record.epsilon if isinstance(record, OrbitRecord) else 1


def _multiplicity(record) -> int:
    return getattr(record, "multiplicity", 1)


def _det_one_minus_p(record, j: int) -> float:
    """Signed ``det(1 - P^j)`` of the transverse return map power."""
    if isinstance(record, OrbitRecord):
        if math.isnan(record.lam_u):
            raise ValidationError("record lacks eigenvalue data (orbit dump round-trip)")
        return (1.0 - record.lam_u**j) * (1.0 - record.lam_s**j)
    pd = poincare_data(record.length, record.theta, j, 0)
    return pd.det_one_minus_p


def _wedge_trace(record, j: int, k: int) -> float:
    if isinstance(record, OrbitRecord):
        return transverse_wedge_traces(record, j, k)
    return poincare_data(record.length, record.theta, j, k).wedge_trace


def _transverse_dim(record) -> int:
    return 2 if isinstance(record, OrbitRecord) else 4


def _require_convergence(lam: complex, threshold: float, allow_formal: bool, what: str):
    if not allow_formal and lam.real <= threshold:
        raise ConvergenceError(
            f"Re(lambda)={lam.real} outside convergence region Re > {threshold} for {what}"
        )


def _tail_bound(lengths, first_terms_abs, sigma: float, h: float) -> float:
    """Geometric tail from the last length shell.

    Doubles the magnitude summed in the shell ``(L-1, L]`` and continues
    it at rate ``exp(-(sigma - h))`` per unit length.
    """
    if not lengths:
        return 0.0
    if sigma <= h:
        return math.inf
    top = max(lengths)
    shell = sum(t for length, t in zip(lengths, first_terms_abs) if length > top - 1.0)
    q = math.exp(-(sigma - h))
    base = shell if shell > 0 else math.exp(-(sigma - h) * top)
    return 2.0 * base * q / (1.0 - q)


def _check_iterate_truncation(last_term_abs: float, policy: TruncationPolicy, warnings: tuple) -> tuple:
    """Flag runs whose iterate truncation could dominate the length tail."""
    if last_term_abs > policy.tail_tol:
        warnings = warnings + (
            f"iterate truncation: largest j={policy.j_max} term is {last_term_abs:.2e}; "
            "increase j_max or tail_tol",
        )
    return warnings


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def ruelle_log_zeta(
    spectrum,
    representation,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the twisted flow zeta over primitive orbit records.

    ``log zeta = -sum_gamma sum_j (1/j) eps^j rho^j exp(-lam*j*len)``;
    requires ``Re(lam) > policy.entropy`` unless ``allow_formal``.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "orbit zeta")
    records = _sorted_records(spectrum)
    warnings = () if records else ("empty spectrum",)
    terms = []
    lengths = []
    firsts = []
    worst_last = 0.0
    for rec in records:
        rho = _record_rho(rec, representation)
        eps = _epsilon(rec)
        mult = _multiplicity(rec)
        ell = rec.length
        base = eps * rho * cmath.exp(-lam * ell)
        power = 1.0 + 0.0j
        for j in range(1, policy.j_max + 1):
            power *= base
            terms.append(-mult * power / j)
            if j == 1:
                lengths.append(ell)
                firsts.append(abs(mult * power))
        worst_last = max(worst_last, abs(terms[-1]))
    log_value = kahan_complex_sum(terms)
    warnings = _check_iterate_truncation(worst_last, policy, warnings)
    tail = _tail_bound(lengths, firsts, lam.real, policy.entropy)
    return ZetaValue(log_value, tail, lam, "ruelle", policy, warnings)


def graded_log_zeta(
    spectrum,
    representation,
    k: int,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the degree-``k`` graded zeta.

    Orbit-iterate weights ``Tr(wedge^k P^j) / |det(1 - P^j)|`` carry no
    orientation index; signs are reconciled against the flow zeta only in
    :func:`assemble_ruelle_from_graded`.
    """
    lam = complex(lam)
    _require_convergence(lam, policy.entropy, allow_formal, "graded zeta")
    records = _sorted_records(spectrum)
    warnings = () if records else ("empty spectrum",)
    terms = []
    lengths = []
    firsts = []
    worst_last = 0.0
    for rec in records:
        rho = _record_rho(rec, representation)
        mult = _multiplicity(rec)
        ell = rec.length
        rho_j = 1.0 + 0.0j
        for j in range(1, policy.j_max + 1):
            rho_j *= rho
            weight = _wedge_trace(rec, j, k) / abs(_det_one_minus_p(rec, j))
            term = -mult * rho_j * cmath.exp(-lam * j * ell) * weight / j
            terms.append(term)
            if j == 1:
                lengths.append(ell)
                firsts.append(abs(term))
        worst_last = max(worst_last, abs(terms[-1]))
    log_value = kahan_complex_sum(terms)
    warnings = _check_iterate_truncation(worst_last, policy, warnings)
    tail = _tail_bound(lengths, firsts, lam.real, policy.entropy)
    return ZetaValue(log_value, tail, lam, f"graded[{k}]", policy, warnings)


@dataclass(frozen=True)
class AssemblyReport:
    log_zeta: complex
    global_sign: int
    max_residual: float
    graded_logs: tuple[complex, ...]


def assemble_ruelle_from_graded(
    spectrum,
    representation,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
    residual_tol: float = 1e-12,
) -> AssemblyReport:
    """Rebuild the flow zeta from graded zetas and machine-check the signs.

    Per orbit iterate, ``sum_k (-1)^k Tr(wedge^k P^j) = det(1 - P^j)``
    exactly, so ``eps^j = s * sign det(1 - P^j)`` for one global sign
    ``s = (-1)^(transverse dim / 2)``.  The assembled value is
    ``s * sum_k (-1)^k log Z_k``.
    """
    records = _sorted_records(spectrum)
    if not records:
        raise ValidationError("cannot assemble over an empty spectrum")
    dim = _transverse_dim(records[0])
    if any(_transverse_dim(r) != dim for r in records):
        raise ValidationError("mixed transverse dimensions in spectrum")
    s = (-1) ** (dim // 2)
    max_residual = 0.0
    for rec in records:
        eps = _epsilon(rec)
        for j in range(1, policy.j_max + 1):
            det = _det_one_minus_p(rec, j)
            alt = sum((-1.0) ** k * _wedge_trace(rec, j, k) for k in range(dim + 1))
            residual = abs(alt / abs(det) - s * eps**j)
            max_residual = max(max_residual, residual)
    if max_residual > residual_tol:
        raise ValidationError(
            f"orientation convention violated: per-orbit residual {max_residual} > {residual_tol}"
        )
    graded = tuple(
        graded_log_zeta(records, representation, k, lam, policy, allow_formal).log_value
        for k in range(dim + 1)
    )
    log_zeta = s * sum((-1) ** k * g for k, g in enumerate(graded))
    return AssemblyReport(log_zeta, s, max_residual, graded)


def _sigma_chars_upto(p_max: int, element: TorusElement):
    """``char_sigma(2, p, element)`` for all p in 0..p_max, one DP pass."""
    h = homogeneous_sums(rotation_eigenvalues(element), p_max)
    return [
        (h[p] - (h[p - 2] if p >= 2 else 0.0)).real for p in range(p_max + 1)
    ]


def selberg_log_zeta(
    spectrum,
    representation,
    mu,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
) -> ZetaValue:
    """Log of the Selberg zeta twisted by SO(2) irrep data ``mu``.

    ``mu`` is an :class:`IrrepLabel` or an iterable of labels, whose
    characters multiply pointwise (tensor product).  Convergence needs
    ``Re(lam) > n0 = 2`` unless ``allow_formal`` acknowledges a formal
    truncated comparison.
    """
    lam = complex(lam)
    _require_convergence(lam, float(N0), allow_formal, "Selberg zeta")
    labels = (mu,) if isinstance(mu, IrrepLabel) else tuple(mu)
    records = _sorted_records(spectrum)
    warnings = () if records else ("empty spectrum",)
    terms = []
    lengths = []
    firsts = []
    worst_last = 0.0
    for rec in records:
        if not isinstance(rec, ComplexLengthRecord):
            raise ValidationError("Selberg zetas take complex-length records (n0 = 2)")
        rho = _record_rho(rec, representation)
        mult = _multiplicity(rec)
        ell = rec.length
        rho_j = 1.0 + 0.0j
        for j in range(1, policy.j_max + 1):
            rho_j *= rho
            element = TorusElement(N0, j * rec.theta)
            chi = 1.0
            for lab in labels:
                chi *= char_label(lab, element)
            det_ps = poincare_data(ell, rec.theta, j, 0).det_one_minus_ps
            term = -mult * rho_j * chi * cmath.exp(-lam * j * ell) / (j * det_ps)
            terms.append(term)
            if j == 1:
                lengths.append(ell)
                firsts.append(abs(term))
        worst_last = max(worst_last, abs(terms[-1]))
    log_value = kahan_complex_sum(terms)
    warnings = _check_iterate_truncation(worst_last, policy, warnings)
    tail = _tail_bound(lengths, firsts, lam.real, policy.entropy)
    return ZetaValue(log_value, tail, lam, "selberg", policy, warnings)


@dataclass(frozen=True)
class FactorizationReport:
    k: int
    lam: complex
    p_max: int
    log_lhs: complex
    log_rhs: complex
    max_abs_residual: float
    max_rel_residual: float
    tail_estimate: float


def factorization_check(
    spectrum,
    representation,
    k: int,
    lam: complex,
    policy: TruncationPolicy,
    allow_formal: bool = False,
    required_tolerance: float | None = None,
) -> FactorizationReport:
    """Compare the graded zeta against its Selberg-product factorization.

    Per orbit iterate the graded weight is matched against the triple sum
    over ``(l, p, q)`` with ``p + 2q <= p_max`` of Selberg weights at
    shifted spectral parameter ``lam + 2(q - l) + p + n0 + k``; the same
    truncated triple sum accumulated over orbits gives the right-hand log
    product.
    """
    if not 0 <= k <= N0:
        raise ValidationError("k must be in 0..n0")
    lam = complex(lam)
    records = _sorted_records(spectrum)
    if not records:
        raise ValidationError("empty spectrum")
    ell_min = min(r.length for r in records)
    tail_estimate = (policy.p_max + 2) ** 2 * math.exp(-(policy.p_max + 1) * ell_min)
    if required_tolerance is not None and tail_estimate > required_tolerance:
        raise ConvergenceError(
            f"insufficient p_max={policy.p_max}: residual estimate {tail_estimate:.3e} "
            f"exceeds requested tolerance {required_tolerance:.3e}"
        )
    lhs_terms = []
    rhs_terms = []
    max_abs = 0.0
    max_rel = 0.0
    for rec in records:
        if not isinstance(rec, ComplexLengthRecord):
            raise ValidationError("factorization check takes complex-length records")
        rho = _record_rho(rec, representation)
        mult = _multiplicity(rec)
        ell = rec.length
        rho_j = 1.0 + 0.0j
        for j in range(1, policy.j_max + 1):
            rho_j *= rho
            element = TorusElement(N0, j * rec.theta)
            pd0 = poincare_data(ell, rec.theta, j, 0)
            lhs_w = _wedge_trace(rec, j, k) / abs(pd0.det_one_minus_p)
            # truncated sum over p + 2q <= p_max of exp(-(p+2q) j ell) chi_sigma_p
            sigma = _sigma_chars_upto(policy.p_max, element)
            x = math.exp(-2.0 * j * ell)
            sym = 0.0
            for p in range(policy.p_max, -1, -1):
                q_top = (policy.p_max - p) // 2
                geo = (1.0 - x ** (q_top + 1)) / (1.0 - x)
                sym += sigma[p] * math.exp(-p * j * ell) * geo
            nu = [char_label(IrrepLabel("nu", l, N0), element) for l in range(N0 + 1)]
            ang = sum(
                math.exp(2.0 * l * j * ell) * nu[l] * nu[k - l] for l in range(0, k + 1)
            )
            rhs_w = math.exp(-(N0 + k) * j * ell) / pd0.det_one_minus_ps * ang * sym
            resid = abs(lhs_w - rhs_w)
            max_abs = max(max_abs, resid)
            max_rel = max(max_rel, resid / abs(lhs_w) if lhs_w else resid)
            phase = rho_j * cmath.exp(-lam * j * ell)
            lhs_terms.append(-mult * phase * lhs_w / j)
            rhs_terms.append(-mult * phase * rhs_w / j)
    return FactorizationReport(
        k,
        lam,
        policy.p_max,
        kahan_complex_sum(lhs_terms),
        kahan_complex_sum(rhs_terms),
        max_abs,
        max_rel,
        tail_estimate,
    )


def factorization_residual_curve(spectrum, representation, k, lam, policy, p_values):
    """Max relative per-orbit residual for each truncation order."""
    out = []
    for p in p_values:
        rep = factorization_check(spectrum, representation, k, lam, replace(policy, p_max=int(p)))
        out.append((int(p), rep.max_rel_residual))
    return out


# ---------------------------------------------------------------------------
# Trace-formula series
# ---------------------------------------------------------------------------


def guillemin_series(spectrum, representation, k: int, t_max: float, a_weights=None):
    """Orbit side of the flat-trace formula: entries ``(t, coefficient)``.

    One entry per orbit iterate with ``j*len <= t_max``; the coefficient is
    ``(1/j) Tr(W wedge^k dphi^j) / |det(1 - P^j)| * Tr(rho^j)`` where
    ``dphi`` includes the flow direction (eigenvalue 1) and ``W`` is an
    optional weight ``a_weights(record, j, k)`` on the wedge power
    (identity when omitted).
    """
    from .wedge import compound_matrix

    entries = []
    for rec in _sorted_records(spectrum):
        if not isinstance(rec, OrbitRecord):
            raise ValidationError("trace series runs over suspension orbit records")
        rho = _record_rho(rec, representation)
        ell = rec.length
        rho_j = 1.0 + 0.0j
        j = 1
        while j * ell <= t_max:
            rho_j *= rho
            det = abs(_det_one_minus_p(rec, j))
            if a_weights is None:
                eig = (1.0, rec.lam_s**j, rec.lam_u**j)
                e = [1.0, 0.0, 0.0, 0.0]
                for x in eig:
                    for r in range(3, 0, -1):
                        e[r] += x * e[r - 1]
                wedge = e[k]
            else:
                dphi = np.diag([1.0, rec.lam_s**j, rec.lam_u**j])
                w = np.asarray(a_weights(rec, j, k))
                wedge = float(np.trace(w @ compound_matrix(dphi, k)).real)
            entries.append((j * ell, rho_j * wedge / (det * j)))
            j += 1
    entries.sort(key=lambda e: e[0])
    return entries
