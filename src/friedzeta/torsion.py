"""Reidemeister torsion of based acyclic complexes and mapping tori.

The torsion algorithm picks, for every degree, a basis subset whose
boundary images span the image (greedy maximal-modulus column pivoting),
assembles the change-of-basis matrices, and multiplies their determinants
with alternating exponents.  Torsion conventions differ across the
literature by global inversion; every value carries a convention tag and
the comparison exponent against zeta(0) is calibrated once on the exact
constant-roof case and frozen below.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._record import record
from .continuation import zeta_at_zero, zeta_at_zero_at
from .errors import NotAcyclicError, ValidationError
from .toral import Character, SuspensionModel, ToralAutomorphism
from .zetas import TruncationPolicy

__all__ = [
    "BasedChainComplex",
    "TorsionValue",
    "chain_torsion",
    "mapping_cone_complex",
    "mapping_torus_torsion",
    "fried_check",
    "fried_checks",
    "FriedReport",
    "FRIED_EXPONENT",
    "CONVENTION_TAG",
]

CONVENTION_TAG = "alternating-minors/odd-degree-numerator"

# Calibrated once on the constant-roof cat-map suspension with u = -1:
# |zeta(0)| = 5/4 and the mapping-cone torsion modulus is 5/4 under
# CONVENTION_TAG, so |zeta(0)|**FRIED_EXPONENT * torsion == 1.
FRIED_EXPONENT = -1


@record
class BasedChainComplex:
    """Finite based complex: ``boundaries[k]`` maps degree k+1 to degree k."""

    dims: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    def __init__(self, dims, boundaries, check_tol: float = 1e-12):
        dims = tuple(int(n) for n in dims)
        mats = []
        for k, b in enumerate(boundaries):
            b = np.asarray(b, dtype=complex)
            expected = (dims[k], dims[k + 1])
            if b.shape != expected:
                raise ValidationError(f"boundary {k + 1} has shape {b.shape}, expected {expected}")
            mats.append(b)
        self.__dict__.update(dims=dims, boundaries=tuple(mats))
        scale = max((float(np.abs(b).max()) for b in mats if b.size), default=0.0)
        for k in range(len(mats) - 1):
            if mats[k].size and mats[k + 1].size:
                comp = mats[k] @ mats[k + 1]
                if comp.size and float(np.abs(comp).max()) > check_tol * max(scale * scale, 1.0):
                    raise ValidationError(f"d_{k + 1} o d_{k + 2} != 0")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1


def _column_pivot_elimination(m: np.ndarray, rel_tol: float = 1e-10) -> list[int]:
    """Greedy maximal-modulus elimination: the sorted pivot column indices, as many as the rank."""
    if m.size == 0:
        return []
    a = np.array(m, dtype=complex)
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return []
    rows_free = list(range(a.shape[0]))
    cols_free = list(range(a.shape[1]))
    pivots = []
    while rows_free and cols_free:
        sub = np.abs(a[np.ix_(rows_free, cols_free)])
        i_loc, j_loc = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i_loc, j_loc] <= rel_tol * scale:
            break
        i, j = rows_free[i_loc], cols_free[j_loc]
        pivots.append(j)
        piv = a[i, j]
        for r in rows_free:
            if r != i:
                a[r, :] -= (a[r, j] / piv) * a[i, :]
        rows_free.remove(i)
        cols_free.remove(j)
    return sorted(pivots)


def _pivots_and_homology(complex_: BasedChainComplex, rel_tol: float):
    """Pivot columns of ``d_k`` at index k (none at 0 and top + 1), one elimination per boundary; homology ranks."""
    pivots = [[], *(_column_pivot_elimination(b, rel_tol) for b in complex_.boundaries), []]
    homology = [complex_.dims[k] - len(pivots[k]) - len(pivots[k + 1]) for k in range(complex_.top_degree + 1)]
    return pivots, homology


@record
class TorsionValue:
    """Torsion modulus with a representative phase and convention tag."""

    modulus: float
    phase: complex
    convention: str = CONVENTION_TAG

    @property
    def value(self) -> complex:
        return self.modulus * self.phase


def chain_torsion(complex_: BasedChainComplex, rel_tol: float = 1e-10) -> TorsionValue:
    """Torsion of a based acyclic complex.

    For each degree k a subset ``b_k`` of basis indices is chosen by
    maximal-modulus pivoting of the boundary ``d_k``; the transition
    matrix ``T_k = [d_{k+1}[:, b_{k+1}] | I[:, b_k]]`` is square by
    acyclicity and ``torsion = prod_k det(T_k)^((-1)^(k+1))``.  The
    modulus is independent of the pivot choices.
    """
    pivots, homology = _pivots_and_homology(complex_, rel_tol)
    if any(homology):
        raise NotAcyclicError(f"complex is not acyclic; homology ranks {homology}")
    dims = complex_.dims
    top = complex_.top_degree
    log_mod = 0.0
    phase = 1.0 + 0.0j
    for k in range(top + 1):
        nk = dims[k]
        cols = []
        if k + 1 <= top:
            d_next = complex_.boundaries[k]
            cols.append(d_next[:, pivots[k + 1]])
        eye = np.eye(nk, dtype=complex)
        cols.append(eye[:, pivots[k]])
        t = np.hstack([c for c in cols if c.shape[1]]) if nk else np.zeros((0, 0), dtype=complex)
        if t.shape != (nk, nk):
            raise NotAcyclicError(f"degree {k}: transition matrix is {t.shape}, wanted {(nk, nk)}")
        if nk == 0:
            continue
        sign, logdet = np.linalg.slogdet(t)
        if not np.isfinite(logdet) or sign == 0:
            raise NotAcyclicError(f"degree {k}: numerically singular minor chain")
        exponent = (-1) ** (k + 1)
        log_mod += exponent * logdet
        phase *= sign if exponent == 1 else np.conj(sign)
    return TorsionValue(math.exp(log_mod), complex(phase))


# ---------------------------------------------------------------------------
# Mapping tori
# ---------------------------------------------------------------------------


def _torus_action(automorphism: ToralAutomorphism):
    """Induced maps on the cohomology of the 2-torus in degrees 0, 1, 2."""
    a = automorphism.matrix
    h0 = np.eye(1, dtype=complex)
    h1 = np.array(a, dtype=complex).T
    h2 = np.eye(1, dtype=complex) * automorphism.det
    return (h0, h1, h2)


def mapping_cone_complex(automorphism: ToralAutomorphism, character: Character) -> BasedChainComplex:
    """Algebraic mapping cone of ``I - u A_*`` on the cellular chains of T^2.

    The cellular complex (1, 2, 1 cells) has zero differentials, so the
    cone boundaries are the blocks ``I - u A_k`` placed off-diagonally.
    """
    if not character.fiber_is_trivial:
        raise ValidationError("the mapping cone supports circle characters only (trivial finite fiber part)")
    u = complex(character.circle)
    blocks = [np.eye(b.shape[0], dtype=complex) - u * b for b in _torus_action(automorphism)]
    dims = (1, 3, 3, 1)
    d1 = np.zeros((1, 3), dtype=complex)
    d1[0, 2] = blocks[0][0, 0]
    d2 = np.zeros((3, 3), dtype=complex)
    d2[0:2, 1:3] = blocks[1]
    d3 = np.zeros((3, 1), dtype=complex)
    d3[0, 0] = blocks[2][0, 0]
    return BasedChainComplex(dims, (d1, d2, d3))


def mapping_torus_torsion(automorphism: ToralAutomorphism, character: Character) -> TorsionValue:
    """Closed-form torsion of the mapping torus of a toral automorphism.

    ``prod_k det(I - u H^k(A))^((-1)^(k+1))`` with ``H^0 = 1``,
    ``H^1 = A^T`` and ``H^2 = det A``; the exponent offset matches
    :func:`chain_torsion` on the explicit mapping cone.  A character that is
    non-trivial on the fiber has torsion 1.
    """
    if not character.fiber_is_trivial:
        # the character restricts to a non-trivial character of H_1(T^2), so the fiber's twisted
        # complex is acyclic with torsion 1, and by the Wang sequence so is the mapping torus's
        return TorsionValue(1.0, 1.0 + 0.0j)
    u = complex(character.circle)
    value = 1.0 + 0.0j
    for k, h in enumerate(_torus_action(automorphism)):
        det = complex(np.linalg.det(np.eye(h.shape[0], dtype=complex) - u * h))
        if abs(det) < 1e-12:
            raise NotAcyclicError(f"character is not acyclic: det(I - u H^{k}(A)) = {det}")
        # exponents (-1)^(k+1): degree 1 in the numerator, degrees 0 and 2 below
        value = value * det if (k + 1) % 2 == 0 else value / det
    return TorsionValue(abs(value), value / abs(value))


@record
class FriedReport:
    zeta_modulus: float
    torsion_modulus: float
    exponent: int
    deviation: float
    zeta_value: complex
    reliable: bool
    torsion_value: complex
    phase_deviation: float


def fried_checks(
    model: SuspensionModel,
    representation: Character,
    policy: TruncationPolicy,
    taus,
) -> list[FriedReport]:
    """:func:`fried_check` at each ``tau`` of ``taus``, with ``zeta(0)`` and the torsion computed once.

    ``zeta(0)`` is the same at every ``tau`` (see :func:`zeta_at_zero_at`,
    which still raises what a ``tau`` raises alone), and the torsion never
    sees ``tau``.  An empty grid gives no reports.
    """
    taus = tuple(taus)
    if not taus:
        return []
    z = zeta_at_zero(model, representation, policy, tau=taus[0])
    t = mapping_torus_torsion(model.automorphism, representation)
    for tau in taus[1:]:
        zeta_at_zero_at(model, representation, z, tau)
    report = FriedReport(
        zeta_modulus=z.modulus,
        torsion_modulus=t.modulus,
        exponent=FRIED_EXPONENT,
        deviation=abs(z.modulus**FRIED_EXPONENT * t.modulus - 1.0),
        zeta_value=z.value,
        reliable=z.reliable,
        torsion_value=t.value,
        phase_deviation=abs(cmath.phase(z.value**FRIED_EXPONENT * t.value)),
    )
    return [report] * len(taus)


def fried_check(
    model: SuspensionModel,
    representation: Character,
    policy: TruncationPolicy,
    tau: float = 0.0,
) -> FriedReport:
    """Compare ``zeta(0)`` with the mapping-torus torsion: :func:`fried_checks` on a grid of one.

    Reports the modulus deviation ``| |zeta(0)|**e * |torsion| - 1 |`` for
    the frozen global exponent ``e = FRIED_EXPONENT`` and the phase
    deviation ``|arg(zeta(0)**e * torsion)|``, both complex values beside
    them.  The torsion side never sees the roof or the time change, so a
    deviation sweep over ``tau`` isolates the variation of ``zeta(0)`` alone.
    """
    return fried_checks(model, representation, policy, (tau,))[0]
