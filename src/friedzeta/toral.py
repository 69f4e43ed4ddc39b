"""Periodic-orbit data for suspensions of hyperbolic toral automorphisms.

Periodic points of the base map are enumerated exactly through the Smith
normal form of ``A^n - I``; every base quantity (counts, homology classes,
orientation indices) is integer arithmetic.  Lengths under a time-change
family are Birkhoff sums of the effective roof ``roof * (1 + tau*g)``.
Every consumer reads one cached :class:`OrbitTable` per (model, n_max);
:func:`primitive_orbits` and :func:`orbit_records` are its row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .errors import CapacityError, ValidationError
from .trig import TrigPolynomial

__all__ = [
    "ToralAutomorphism",
    "SuspensionModel",
    "OrbitRecord",
    "Character",
    "AnosovDiagnostics",
    "smith_normal_form",
    "validate_anosov",
    "fixed_points",
    "FixedPointSet",
    "primitive_orbits",
    "orbit_records",
    "OrbitTable",
    "orbit_table",
    "orbit_length",
    "variation_coefficient",
    "homology_class",
    "orientation_index",
    "holonomy",
    "transverse_wedge_traces",
    "write_orbit_dump",
    "read_orbit_dump",
    "ORBIT_DUMP_HEADER",
]

# int64 kernels multiply residues below the denominator, so den**2 must fit.
MAX_DENOMINATOR = 1 << 31
MAX_ENUMERATED_POINTS = 1 << 27
_WALK_BLOCK = 1 << 14

ORBIT_DUMP_HEADER = "#fried-orbits v1"


# ---------------------------------------------------------------------------
# Exact 2x2 integer linear algebra
# ---------------------------------------------------------------------------


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_pow(a, n: int):
    result = ((1, 0), (0, 1))
    base = a
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


def _det(a) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def smith_normal_form(m):
    """Smith normal form of an integer 2x2 matrix.

    Returns ``(U, D, V)`` with ``U @ m @ V = D = diag(d1, d2)``,
    ``U, V`` unimodular, ``d1, d2 >= 0`` and ``d1 | d2``.
    """
    a = [[int(m[0][0]), int(m[0][1])], [int(m[1][0]), int(m[1][1])]]
    u = [[1, 0], [0, 1]]
    v = [[1, 0], [0, 1]]

    def row_op(i, j, q):  # row_i -= q * row_j
        for c in range(2):
            a[i][c] -= q * a[j][c]
            u[i][c] -= q * u[j][c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(2):
            a[r][i] -= q * a[r][j]
            v[r][i] -= q * v[r][j]

    def row_swap():
        a[0], a[1] = a[1], a[0]
        u[0], u[1] = u[1], u[0]

    def col_swap():
        for r in range(2):
            a[r][0], a[r][1] = a[r][1], a[r][0]
            v[r][0], v[r][1] = v[r][1], v[r][0]

    if a[0][0] == 0:
        if a[1][0] != 0:
            row_swap()
        elif a[0][1] != 0:
            col_swap()
        elif a[1][1] != 0:
            row_swap()
            col_swap()

    while True:
        while a[1][0] != 0 or a[0][1] != 0:
            if a[1][0] != 0:
                q = a[1][0] // a[0][0]
                row_op(1, 0, q)
                if a[1][0] != 0:
                    row_swap()
                    continue
            if a[0][1] != 0:
                q = a[0][1] // a[0][0]
                col_op(1, 0, q)
                if a[0][1] != 0:
                    col_swap()
        # diagonal now; enforce divisibility d1 | d2
        if a[0][0] != 0 and a[1][1] % a[0][0] != 0:
            col_op(0, 1, -1)  # col_0 += col_1, reintroduces an off-diagonal
            continue
        break

    for i in range(2):
        if a[i][i] < 0:
            for c in range(2):
                a[i][c] = -a[i][c]
                u[i][c] = -u[i][c]

    uu = (tuple(u[0]), tuple(u[1]))
    vv = (tuple(v[0]), tuple(v[1]))
    dd = (tuple(a[0]), tuple(a[1]))
    return uu, dd, vv


# ---------------------------------------------------------------------------
# Automorphism and model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnosovDiagnostics:
    hyperbolic: bool
    det: int
    trace: int
    lam_u: float | None
    lam_s: float | None
    reason: str


def validate_anosov(matrix) -> AnosovDiagnostics:
    """Check that an integer 2x2 matrix induces an Anosov torus map.

    Accepts iff ``|det| = 1`` and no eigenvalue lies on the unit circle.
    Both conditions are decided in exact integer arithmetic.
    """
    a = ((int(matrix[0][0]), int(matrix[0][1])), (int(matrix[1][0]), int(matrix[1][1])))
    d = _det(a)
    t = a[0][0] + a[1][1]
    if abs(d) != 1:
        return AnosovDiagnostics(False, d, t, None, None, "non-unimodular matrix")
    on_circle = (d == 1 and abs(t) <= 2) or (d == -1 and t == 0)
    if on_circle:
        return AnosovDiagnostics(False, d, t, None, None, "not Anosov: eigenvalue on the unit circle")
    disc = math.sqrt(t * t - 4 * d)
    r1 = (t + disc) / 2.0
    r2 = (t - disc) / 2.0
    lam_u, lam_s = (r1, r2) if abs(r1) >= abs(r2) else (r2, r1)
    return AnosovDiagnostics(True, d, t, lam_u, lam_s, "hyperbolic")


@dataclass(frozen=True)
class ToralAutomorphism:
    """Hyperbolic unimodular integer 2x2 matrix acting on the 2-torus."""

    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, matrix):
        m = ((int(matrix[0][0]), int(matrix[0][1])), (int(matrix[1][0]), int(matrix[1][1])))
        diag = validate_anosov(m)
        if not diag.hyperbolic:
            raise ValidationError(diag.reason)
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> int:
        return _det(self.matrix)

    @property
    def trace(self) -> int:
        return self.matrix[0][0] + self.matrix[1][1]

    @cached_property
    def diagnostics(self) -> AnosovDiagnostics:
        return validate_anosov(self.matrix)

    @property
    def lam_u(self) -> float:
        return self.diagnostics.lam_u

    @property
    def lam_s(self) -> float:
        return self.diagnostics.lam_s

    def power(self, n: int):
        return _mat_pow(self.matrix, n)

    @cached_property
    def _coker_snf(self):
        m = self.matrix
        a_minus_i = ((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1))
        return smith_normal_form(a_minus_i)

    @property
    def coker_orders(self) -> tuple[int, int]:
        """Cyclic factor orders of ``coker(A - I)`` (1 means trivial factor)."""
        _, d, _ = self._coker_snf
        return (d[0][0], d[1][1])

    def reduce_translation(self, v: tuple[int, int]) -> tuple[int, int]:
        """Reduce an integer translation vector modulo ``im(A - I)``."""
        u, d, _ = self._coker_snf
        y1 = u[0][0] * v[0] + u[0][1] * v[1]
        y2 = u[1][0] * v[0] + u[1][1] * v[1]
        return (y1 % d[0][0] if d[0][0] > 1 else 0, y2 % d[1][1] if d[1][1] > 1 else 0)

    def wedge_trace_power(self, k: int, m: int) -> int:
        """Exact ``Tr(wedge^k A^m)`` for k in {0, 1, 2}."""
        if k == 0:
            return 1
        if k == 1:
            am = self.power(m)
            return am[0][0] + am[1][1]
        if k == 2:
            return self.det ** m
        raise ValueError("k must be 0, 1 or 2 for a 2-torus base")

    def det_one_minus_power(self, m: int) -> int:
        """Exact ``det(A^m - I)`` (nonzero for hyperbolic A)."""
        am = self.power(m)
        return _det(((am[0][0] - 1, am[0][1]), (am[1][0], am[1][1] - 1)))


@dataclass(frozen=True)
class SuspensionModel:
    """Suspension flow of a toral automorphism, with a time-change family.

    The flow obtained from roof ``r`` and family parameter ``tau`` in
    ``X / (1 + tau*g)`` has closed-orbit periods equal to Birkhoff sums of
    the effective roof ``r * (1 + tau*g)`` over base orbits.  Positivity of
    roof and time change is certified by the l1 criterion of
    :meth:`TrigPolynomial.lower_bound`.
    """

    automorphism: ToralAutomorphism
    roof: TrigPolynomial
    time_change: TrigPolynomial | None = None

    def __post_init__(self):
        if self.roof.lower_bound() <= 0:
            raise ValidationError("roof positivity certificate failed")
        # the kernels form k1*x1 + k2*x2 in int64 with residues below 2^31
        for poly in (self.roof, self.time_change or TrigPolynomial()):
            _require_width(*(k for k1, k2, _, _ in poly.terms for k in (k1, k2)))

    def tau_range(self) -> tuple[float, float]:
        """Open interval of family parameters with ``1 + tau*g > 0`` certified."""
        g = self.time_change
        if g is None:
            return (-math.inf, math.inf)
        l1 = sum(abs(a) + abs(b) for _, _, a, b in g.terms)
        lo = -math.inf
        hi = math.inf
        # 1 + tau*const - |tau|*l1 > 0 on each sign branch
        denom_pos = l1 - g.constant
        if denom_pos > 0:
            hi = 1.0 / denom_pos
        denom_neg = l1 + g.constant
        if denom_neg > 0:
            lo = -1.0 / denom_neg
        return (lo, hi)

    def require_tau(self, tau: float) -> float:
        lo, hi = self.tau_range()
        if not lo < tau < hi:
            raise ValidationError(f"tau={tau} outside certified positivity range ({lo}, {hi})")
        return float(tau)

    def min_effective_roof(self, tau: float) -> float:
        """Certified lower bound for the effective roof at ``tau``."""
        self.require_tau(tau)
        r_lo = self.roof.lower_bound()
        if self.time_change is None or tau == 0.0:
            return r_lo
        g = self.time_change
        l1 = sum(abs(a) + abs(b) for _, _, a, b in g.terms)
        return r_lo * (1.0 + tau * g.constant - abs(tau) * l1)

    def default_entropy(self, tau: float = 0.0) -> float:
        """Upper bound ``log(lam_u) / min effective roof`` for orbit growth."""
        return math.log(abs(self.automorphism.lam_u)) / self.min_effective_roof(tau)


# ---------------------------------------------------------------------------
# Characters of H_1 of the mapping torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Rank-1 unitary character of ``coker(A - I) + Z`` (winding factor).

    ``circle`` is the value on the winding generator; the fiber part is
    stored as exponents against the Smith normal form cyclic factors.
    """

    circle: complex
    fiber_orders: tuple[int, ...] = (1, 1)
    fiber_exponents: tuple[int, ...] = (0, 0)

    def __post_init__(self):
        if abs(abs(self.circle) - 1.0) > 1e-12:
            raise ValidationError("circle part must be a unit complex number")
        if len(self.fiber_orders) != len(self.fiber_exponents):
            raise ValidationError("fiber orders and exponents must have equal length")
        object.__setattr__(
            self,
            "fiber_exponents",
            tuple(e % d if d > 1 else 0 for e, d in zip(self.fiber_exponents, self.fiber_orders)),
        )

    @classmethod
    def from_angle_fraction(cls, fraction: float, fiber_orders=(1, 1), fiber_exponents=(0, 0)) -> "Character":
        """Character with circle part ``exp(2*pi*i*fraction)``."""
        ang = 2.0 * math.pi * float(fraction)
        return cls(complex(math.cos(ang), math.sin(ang)), tuple(fiber_orders), tuple(fiber_exponents))

    @property
    def fiber_is_trivial(self) -> bool:
        return all(e == 0 for e in self.fiber_exponents)

    def fiber_value(self, exps: tuple[int, ...]) -> complex:
        ang = 2.0 * math.pi * sum(
            (e * y) % d / d for e, y, d in zip(self.fiber_exponents, exps, self.fiber_orders) if d > 1
        )
        return complex(math.cos(ang), math.sin(ang))

    def value(self, exps: tuple[int, ...], winding: int) -> complex:
        return self.circle**winding * self.fiber_value(exps)

    def values(self, class_exps: np.ndarray, winding: np.ndarray) -> np.ndarray:
        """:meth:`value` over rows of class exponents and an integer array of windings."""
        return self.circle**winding * self.fiber_values(class_exps)

    def fiber_values(self, class_exps: np.ndarray) -> np.ndarray:
        """:meth:`fiber_value` over the rows of an integer array of class exponents."""
        turns = np.zeros(len(class_exps))
        for col, (e, d) in enumerate(zip(self.fiber_exponents, self.fiber_orders)):
            if d > 1:
                turns += (e * class_exps[:, col]) % d / d
        ang = 2.0 * math.pi * turns
        return np.cos(ang) + 1j * np.sin(ang)


def holonomy(character: Character, homology: tuple[tuple[int, ...], int]) -> complex:
    """Character value on a homology class ``(fiber exponents, winding)``."""
    exps, winding = homology
    return character.value(tuple(exps), int(winding))


# ---------------------------------------------------------------------------
# Fixed points, orbit rows and their scalar references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointSet:
    """Fixed points of ``A^n`` as numerators over a common denominator."""

    period: int
    num1: np.ndarray
    num2: np.ndarray
    den: int

    @property
    def count(self) -> int:
        return len(self.num1)

    def as_fractions(self) -> list[tuple[Fraction, Fraction]]:
        d = self.den
        return [(Fraction(int(p), d), Fraction(int(q), d)) for p, q in zip(self.num1, self.num2)]


def _require_width(*values: int):
    for v in values:
        if abs(int(v)) >= MAX_DENOMINATOR:
            raise CapacityError(f"integer data {v} exceeds the 31-bit width supported by the int64 kernels")


def _automorphism(a) -> ToralAutomorphism:
    return a if isinstance(a, ToralAutomorphism) else ToralAutomorphism(a)


def fixed_points(automorphism: ToralAutomorphism | object, n: int) -> FixedPointSet:
    """Enumerate the fixed points of ``A^n`` on the 2-torus.

    The solution group of ``(A^n - I)x = 0 mod Z^2`` is parametrized by
    ``Z_d1 x Z_d2`` through the Smith normal form; the output is sorted
    lexicographically by numerator pair.
    """
    auto = _automorphism(automorphism)
    if n < 1:
        raise ValidationError("period must be >= 1")
    an = auto.power(n)
    m = ((an[0][0] - 1, an[0][1]), (an[1][0], an[1][1] - 1))
    count = abs(_det(m))
    if count == 0:
        raise ValidationError("A^n has eigenvalue 1; matrix is not hyperbolic")
    if count > MAX_ENUMERATED_POINTS:
        raise CapacityError(f"|det(A^n - I)| = {count} fixed points exceeds the enumeration cap")
    _, d, v = smith_normal_form(m)
    d1, d2 = d[0][0], d[1][1]
    _require_width(d2)
    stride = d2 // d1
    v = [[v[0][0] % d2, v[0][1] % d2], [v[1][0] % d2, v[1][1] % d2]]
    i = np.arange(d1, dtype=np.int64)
    j = np.arange(d2, dtype=np.int64)
    si = i * stride
    num1 = ((v[0][0] * si)[:, None] + v[0][1] * j[None, :]) % d2
    num2 = ((v[1][0] * si)[:, None] + v[1][1] * j[None, :]) % d2
    num1 = num1.ravel()
    num2 = num2.ravel()
    order = np.lexsort((num2, num1))
    return FixedPointSet(n, num1[order], num2[order], d2)


@dataclass(frozen=True)
class PrimitiveOrbit:
    """Primitive base orbit: least period and canonical base point."""

    period: int
    num1: int
    num2: int
    den: int


@dataclass(frozen=True)
class OrbitRecord:
    """Primitive closed orbit of the suspension flow.

    ``lam_u`` and ``lam_s`` are the eigenvalues of the transverse return
    map ``A^n``; ``det_power`` is the exact ``det(A)^n``.  The homology
    class is ``(fiber exponents, winding = n)``.
    """

    period: int
    num1: int
    num2: int
    den: int
    length: float
    epsilon: int
    lam_u: float
    lam_s: float
    det_power: int
    class_exps: tuple[int, ...]
    winding: int
    primitive: bool = True

    @property
    def homology(self) -> tuple[tuple[int, ...], int]:
        return (self.class_exps, self.winding)

    def sort_key(self):
        return (self.length, self.period, self.num1, self.num2)


def orientation_index(automorphism, n: int) -> int:
    """Orientation index ``sign(lam_u)^n`` of a period-``n`` orbit.

    The index of the j-th iterate of a primitive orbit is the j-th power
    of the primitive index.
    """
    s = 1 if _automorphism(automorphism).lam_u > 0 else -1
    return s**n


def homology_class(automorphism, base: tuple[int, int], den: int, n: int) -> tuple[tuple[int, int], int]:
    """Class of the period-``n`` orbit through ``base/den`` in ``coker(A-I) + Z``."""
    auto = _automorphism(automorphism)
    an = auto.power(n)
    v1 = (an[0][0] - 1) * base[0] + an[0][1] * base[1]
    v2 = an[1][0] * base[0] + (an[1][1] - 1) * base[1]
    if v1 % den or v2 % den:
        raise ValidationError("base point is not fixed by A^n: inconsistent orbit data")
    return auto.reduce_translation((v1 // den, v2 // den)), n


def transverse_wedge_traces(record: OrbitRecord, j: int, k: int) -> float:
    """``Tr(wedge^k P(gamma)^j)`` of the transverse return map, k in {0,1,2}."""
    if k == 0:
        return 1.0
    if k == 1:
        return record.lam_u**j + record.lam_s**j
    if k == 2:
        return float(record.det_power**j)
    raise ValueError("k must be 0, 1 or 2")


# ---------------------------------------------------------------------------
# The orbit table
# ---------------------------------------------------------------------------


def _orbit_minima(auto: ToralAutomorphism, pts: FixedPointSet) -> tuple[np.ndarray, np.ndarray]:
    """The smallest point of each orbit of least period ``pts.period``, sorted.

    A point is kept when its key ``num1 * den + num2`` is below the key of
    each later iterate; a point of smaller period meets its own key again.
    Blocks of ``_WALK_BLOCK`` points bound the temporaries.
    """
    den = pts.den
    (a11, a12), (a21, a22) = ((a % den for a in row) for row in auto.matrix)
    keep = np.ones(pts.count, dtype=bool)
    for lo in range(0, pts.count, _WALK_BLOCK):
        block = slice(lo, lo + _WALK_BLOCK)
        x1, x2 = pts.num1[block], pts.num2[block]
        key = x1 * den + x2
        for _ in range(pts.period - 1):
            x1, x2 = (a11 * x1 + a12 * x2) % den, (a21 * x1 + a22 * x2) % den
            keep[block] &= key < x1 * den + x2
    return pts.num1[keep], pts.num2[keep]


def _class_columns(auto: ToralAutomorphism, n: int, num1, num2, den: int) -> np.ndarray:
    """:func:`homology_class` fiber exponents of period-``n`` points, one row per point.

    ``y = U (A^n - I) x / den mod order`` (``U`` from the Smith form of
    ``A - I``) is exact with ``U (A^n - I)`` reduced mod ``den * order``;
    products use Python integers where int64 could overflow.
    """
    an = auto.power(n)
    u, d, _ = auto._coker_snf
    cols = []
    for row, order in enumerate((d[0][0], d[1][1])):
        if order <= 1:
            cols.append(np.zeros(len(num1), dtype=np.int64))
            continue
        mod = den * order
        w1 = (u[row][0] * (an[0][0] - 1) + u[row][1] * an[1][0]) % mod
        w2 = (u[row][0] * an[0][1] + u[row][1] * (an[1][1] - 1)) % mod
        dtype = np.int64 if 2 * mod * den < 1 << 63 else object
        y = (w1 * num1.astype(dtype) + w2 * num2.astype(dtype)) % mod // den
        cols.append(y.astype(np.int64))
    return np.stack(cols, axis=1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=4)
def _primitive_columns(auto: ToralAutomorphism, n_max: int):
    """``(period, num1, num2, den, class_exps)`` of every primitive orbit up to ``n_max``."""
    parts = []
    for n in range(1, n_max + 1):
        pts = fixed_points(auto, n)
        num1, num2 = _orbit_minima(auto, pts)
        parts.append((np.full(len(num1), n), num1, num2, np.full(len(num1), pts.den),
                      _class_columns(auto, n, num1, num2, pts.den)))
    return _read_only(*(np.concatenate(col).astype(np.int64) for col in zip(*parts)))


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Primitive orbits of a suspension up to period ``n_max``, one read-only column per field.

    Rows are sorted by ``(period, num1, num2)``; each orbit is represented
    by its lexicographically smallest base point ``(num1, num2) / den``.
    ``length0`` is the Birkhoff sum of the roof and ``slope`` the length's
    derivative in ``tau`` (0 without a time change).  ``class_exps`` holds
    the fiber exponents of the class in ``coker(A - I)``, one column per
    Smith factor; the winding is the period.
    """

    model: SuspensionModel
    n_max: int
    period: np.ndarray
    num1: np.ndarray
    num2: np.ndarray
    den: np.ndarray
    length0: np.ndarray
    slope: np.ndarray
    class_exps: np.ndarray

    def period_slice(self, n: int) -> slice:
        """Rows of the primitive orbits of period ``n``."""
        lo, hi = np.searchsorted(self.period, (n, n + 1))
        return slice(int(lo), int(hi))

    def lengths(self, tau: float = 0.0) -> np.ndarray:
        """Orbit lengths ``length0 + tau * slope`` at family parameter ``tau``."""
        self.model.require_tau(tau)
        return self.length0 + tau * self.slope

    def transverse(self) -> list[tuple[int, float, float, int]]:
        """``(epsilon, lam_u, lam_s, det_power)`` of the return map ``A^n``, indexed by the period ``n``."""
        auto = self.model.automorphism
        return [(orientation_index(auto, n), auto.lam_u**n, auto.lam_s**n, auto.det**n)
                for n in range(self.n_max + 1)]

    def records(self, tau: float = 0.0) -> list[OrbitRecord]:
        """Row views with lengths at ``tau``, in table order."""
        transverse = self.transverse()
        rows = zip(self.period.tolist(), self.num1.tolist(), self.num2.tolist(), self.den.tolist(),
                   self.lengths(tau).tolist(), map(tuple, self.class_exps.tolist()))
        return [OrbitRecord(n, p, q, den, ell, *transverse[n], exps, n) for n, p, q, den, ell, exps in rows]


@lru_cache(maxsize=4)
def orbit_table(model: SuspensionModel, n_max: int) -> OrbitTable:
    """The orbit table of ``model`` up to period ``n_max``, built once and cached.

    Lengths take one kernel call per period over the representatives, two with a time change.
    """
    auto = model.automorphism
    period, num1, num2, den, class_exps = _primitive_columns(auto, n_max)
    length0 = np.empty(len(period))
    slope = np.zeros(len(period))
    bounds = np.searchsorted(period, np.arange(1, n_max + 2)).tolist()
    for n, lo, hi in zip(range(1, n_max + 1), bounds, bounds[1:]):
        if lo == hi:
            continue
        args = (num1[lo:hi], num2[lo:hi], int(den[lo]), auto.matrix, n, model.roof)
        length0[lo:hi] = _kernels.birkhoff_sums(*args)
        if model.time_change is not None:
            slope[lo:hi] = _kernels.birkhoff_sums(*args, model.time_change, 1.0) - length0[lo:hi]
    return OrbitTable(model, n_max, period, num1, num2, den, *_read_only(length0, slope), class_exps)


def primitive_orbits(automorphism, n_max: int) -> list[PrimitiveOrbit]:
    """Primitive periodic orbits of the base map up to period ``n_max``.

    Each orbit is represented by its lexicographically smallest point;
    the output is sorted by ``(period, num1, num2)``.
    """
    period, num1, num2, den, _ = _primitive_columns(_automorphism(automorphism), n_max)
    return [PrimitiveOrbit(*row) for row in zip(period.tolist(), num1.tolist(), num2.tolist(), den.tolist())]


def orbit_records(model: SuspensionModel, n_max: int, tau: float = 0.0) -> list[OrbitRecord]:
    """Primitive orbit records with lengths at ``tau``: row views of :func:`orbit_table`."""
    return orbit_table(model, n_max).records(tau)


def orbit_length(model: SuspensionModel, record: OrbitRecord | PrimitiveOrbit, tau: float) -> float:
    """Period of the orbit under the time-changed flow at ``tau``.

    Equals ``sum_i roof(A^i x) * (1 + tau*g(A^i x))`` over the base orbit;
    exactly linear in ``tau``.
    """
    model.require_tau(tau)
    num1 = np.array([record.num1], dtype=np.int64)
    num2 = np.array([record.num2], dtype=np.int64)
    out = _kernels.birkhoff_sums(
        num1, num2, record.den, model.automorphism.matrix, record.period, model.roof, model.time_change, tau
    )
    return float(out[0])


def variation_coefficient(model: SuspensionModel, record: OrbitRecord | PrimitiveOrbit, tau: float) -> float:
    """Orbit integral of the time-change symbol: ``-d(length)/d(tau)``.

    Closed form ``-sum_i roof(A^i x) * g(A^i x)``; independent of ``tau``
    for the admitted families since the length is linear in ``tau``.
    """
    model.require_tau(tau)
    if model.time_change is None:
        return 0.0
    a = model.automorphism.matrix
    den = record.den
    x1, x2 = record.num1 % den, record.num2 % den
    total = 0.0
    for _ in range(record.period):
        total += model.roof.value_at_rational(x1, x2, den) * model.time_change.value_at_rational(x1, x2, den)
        x1, x2 = (a[0][0] * x1 + a[0][1] * x2) % den, (a[1][0] * x1 + a[1][1] * x2) % den
    return -total


# ---------------------------------------------------------------------------
# Orbit dump format
# ---------------------------------------------------------------------------


def write_orbit_dump(path, records: list[OrbitRecord]):
    """Write ``#fried-orbits v1``: one whitespace-separated record per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(ORBIT_DUMP_HEADER + "\n")
        for r in sorted(records, key=lambda x: (x.period, x.num1, x.num2)):
            exps = " ".join(str(e) for e in r.class_exps)
            fh.write(
                f"{r.period} {r.num1} {r.num2} {r.den} {r.length!r} {r.epsilon} {r.winding}"
                + (f" {exps}" if exps else "")
                + "\n"
            )


def read_orbit_dump(path) -> list[OrbitRecord]:
    """Read a ``#fried-orbits v1`` file.

    Transverse eigenvalue data is not part of the format; records read
    back support Ruelle sums (length, index, holonomy class) only and
    carry ``nan`` eigenvalues.  A malformed line raises a ValidationError
    naming ``path:line``.
    """
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ORBIT_DUMP_HEADER:
            raise ValidationError(f"bad orbit dump header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) < 7:
                    raise ValidationError("an orbit line needs period, base point, length, epsilon, winding")
                period, n1, n2, den = (int(x) for x in parts[:4])
                length = float(parts[4])
                if not (math.isfinite(length) and length > 0):
                    raise ValidationError(f"length must be positive and finite, got {parts[4]!r}")
                eps, winding = int(parts[5]), int(parts[6])
                exps = tuple(int(x) for x in parts[7:])
                if records and len(exps) != len(records[0].class_exps):
                    first = len(records[0].class_exps)
                    raise ValidationError(f"{len(exps)} class exponents where the first orbit line has {first}")
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            records.append(
                OrbitRecord(
                    period=period,
                    num1=n1,
                    num2=n2,
                    den=den,
                    length=length,
                    epsilon=eps,
                    lam_u=math.nan,
                    lam_s=math.nan,
                    det_power=0,
                    class_exps=exps,
                    winding=winding,
                )
            )
    return records
