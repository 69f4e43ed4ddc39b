"""Periodic-orbit data for suspensions of hyperbolic toral automorphisms.

Periodic points of the base map are enumerated exactly through the Smith
normal form of ``A^n - I``; every base quantity (counts, homology classes,
orientation indices) is integer arithmetic.  Lengths under a time-change
family are Birkhoff sums of the effective roof ``roof * (1 + tau*g)``.
Every consumer reads one :class:`OrbitTable` per model, which grows by
whole periods as deeper periods are asked for;
:func:`fixed_points`, :func:`primitive_orbits`, :func:`homology_class` and
:func:`orbit_records` serve only test oracles and perfbench trace targets.
The table is built by passes over the fixed points of ``A^n`` in Smith
coordinates ``(i, j)``.  There ``A`` is a successor permutation whose
cycles pointer doubling labels, and the roof is summed per cycle.  When
the first two or more periods a request adds each hold at most
``_UNION_POINTS`` fixed points, they share one pass over the union of
their points, where :func:`trig_values` evaluates the roof one cos or sin
per point per term; each other period takes a pass of its own.  A
cycle-expansion stream asks at once for the first small periods up to its
cap (:func:`_small_depth`), so they share that pass.  In a period's own
pass the successor, the point and every roof phase are linear in ``(i, j)``,
so each is an outer sum of two per-axis residue vectors; when the common
denominator fits in one block, the roof's values are gathered from one cos
and one sin table per period.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from functools import cached_property, lru_cache
from itertools import chain, islice, takewhile

import numpy as np

from ._record import fields, record
from .errors import CapacityError, ValidationError, ascii_line
from .trig import TWO_PI, TrigPolynomial

__all__ = [
    "ToralAutomorphism",
    "SuspensionModel",
    "OrbitRecord",
    "Character",
    "ruelle_factors",
    "AnosovDiagnostics",
    "smith_normal_form",
    "validate_anosov",
    "fixed_points",
    "FixedPointSet",
    "primitive_orbits",
    "orbit_records",
    "OrbitTable",
    "orbit_table",
    "homology_class",
    "orientation_index",
    "trig_values",
    "OrbitDump",
    "write_orbit_dump",
    "read_orbit_dump",
    "ORBIT_DUMP_HEADER",
]

# int64 kernels multiply residues below the denominator, so den**2 must fit.
MAX_DENOMINATOR = 1 << 31
MAX_ENUMERATED_POINTS = 1 << 27
# Fixed points per block of a period pass: bounds its int64 and float temporaries.
_PASS_BLOCK = 1 << 16
# A request's first new periods of at most this many fixed points share one pass (the cat map's periods 1-8).
# Measured on the cat map to period 10, 2,500 builds faster than 1,000 or 6,000: a small period's own pass is
# mostly fixed per-call work, while the shared pass costs more per point.  |det(A^n - I)| >= phi^n - 2 for every
# hyperbolic A, so at most periods 1-16 are that small: a shared pass holds at most 16 * 2,500 points.
_UNION_POINTS = 2500

ORBIT_DUMP_HEADER = "#fried-orbits v1"
# A dump holds printable ASCII, tabs and LF or CRLF line ends; any other byte is refused.
_DUMP_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
_CONTROL_BYTE = re.compile(rb"[\x00-\x08\x0a-\x1f\x7f]")  # within a line: every control byte but tab
_FIRST_ORBIT_LINE = re.compile(rb"^[ \t]*([^#\s][^\n]*)", re.M)
# a '#' after a field, which np.loadtxt would take for the start of a comment
_INLINE_HASH = re.compile(rb"^[ \t]*[^#\s][^\n]*#", re.M)
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


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


@record
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


@record
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

    def det_one_minus_power(self, m: int) -> int:
        """Exact ``det(A^m - I)`` (nonzero for hyperbolic A)."""
        am = self.power(m)
        return _det(((am[0][0] - 1, am[0][1]), (am[1][0], am[1][1] - 1)))


@record
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


@record
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
        exponents = tuple(e % d if d > 1 else 0 for e, d in zip(self.fiber_exponents, self.fiber_orders))
        object.__setattr__(self, "fiber_exponents", exponents)

    @classmethod
    def from_angle_fraction(cls, fraction: float, fiber_orders=(1, 1), fiber_exponents=(0, 0)) -> "Character":
        """Character with circle part ``exp(2*pi*i*fraction)``."""
        ang = TWO_PI * float(fraction)
        return cls(complex(math.cos(ang), math.sin(ang)), tuple(fiber_orders), tuple(fiber_exponents))

    @property
    def fiber_is_trivial(self) -> bool:
        return all(e == 0 for e in self.fiber_exponents)

    def values(self, class_exps: np.ndarray, winding: np.ndarray) -> np.ndarray:
        """The character on each class ``(class_exps[i], winding[i])``: ``circle**winding`` times
        ``exp(2 pi i sum (e * y mod d) / d)`` over the Smith factors of order ``d > 1``."""
        return self.circle**winding * self.fiber_values(class_exps)

    def fiber_values(self, class_exps: np.ndarray) -> np.ndarray:
        """The fiber part of :meth:`values` over the rows of an integer array of class exponents."""
        turns = np.zeros(len(class_exps))
        for col, (e, d) in enumerate(zip(self.fiber_exponents, self.fiber_orders)):
            if d > 1:
                turns += (e * class_exps[:, col]) % d / d
        ang = TWO_PI * turns
        return np.cos(ang) + 1j * np.sin(ang)


def ruelle_factors(representation: Character | None, epsilon: np.ndarray, class_exps: np.ndarray,
                   winding: np.ndarray) -> np.ndarray:
    """``epsilon * chi`` per orbit, the factor whose powers weigh its iterates in the Ruelle zeta: its orientation
    index times the twist's value (``None`` is trivial) on its class ``(class_exps, winding)``."""
    if representation is None:
        return epsilon.astype(complex)
    if not isinstance(representation, Character):
        raise ValidationError("toral orbits take a Character twist")
    return epsilon * representation.values(class_exps, winding)


# ---------------------------------------------------------------------------
# Fixed points and orbit rows
# ---------------------------------------------------------------------------


@record
class FixedPointSet:
    """Fixed points of ``A^n`` as numerators over a common denominator."""

    period: int
    num1: np.ndarray
    num2: np.ndarray
    den: int

    @property
    def count(self) -> int:
        return len(self.num1)


def _require_width(*values: int):
    for v in values:
        if abs(int(v)) >= MAX_DENOMINATOR:
            raise CapacityError(f"integer data {v} exceeds the 31-bit width supported by the int64 kernels")


def _automorphism(a) -> ToralAutomorphism:
    return a if isinstance(a, ToralAutomorphism) else ToralAutomorphism(a)


def _fixed_point_lattice(auto: ToralAutomorphism, n: int):
    """Smith parametrization ``(d1, d2, V)`` of the fixed points of ``A^n``.

    With ``U (A^n - I) V = diag(d1, d2)`` the fixed points are ``x / d2`` for
    ``x = V (i * d2/d1, j) mod d2`` over ``(i, j)`` in ``Z_d1 x Z_d2``.
    """
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
    return d1, d2, v


def fixed_points(automorphism: ToralAutomorphism | object, n: int) -> FixedPointSet:
    """Enumerate the fixed points of ``A^n`` on the 2-torus.

    The solution group of ``(A^n - I)x = 0 mod Z^2`` is parametrized by
    ``Z_d1 x Z_d2`` through the Smith normal form; the output is sorted
    lexicographically by numerator pair.
    """
    d1, d2, v = _fixed_point_lattice(_automorphism(automorphism), n)
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


@record
class PrimitiveOrbit:
    """Primitive base orbit: least period and canonical base point."""

    period: int
    num1: int
    num2: int
    den: int


@record
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


# ---------------------------------------------------------------------------
# The orbit table
# ---------------------------------------------------------------------------


def _axis_blocks(d1: int, d2: int):
    """``(lo, i, j)``: blocks ``i x j`` of ``Z_d1 x Z_d2``, contiguous in the flat index ``i * d2 + j``.

    A block is several whole rows of ``i`` when ``d2 < _PASS_BLOCK``, else one row cut in ``j``.
    """
    rows, cut = max(_PASS_BLOCK // d2, 1), min(d2, _PASS_BLOCK)
    for i0 in range(0, d1, rows):
        i = np.arange(i0, min(i0 + rows, d1), dtype=np.int64)
        for lo in range(0, d2, cut):
            yield i0 * d2 + lo, i, np.arange(lo, min(lo + cut, d2), dtype=np.int64)


def _outer_mod(ci: int, cj: int, i: np.ndarray, j: np.ndarray, m: int, dtype=np.int32) -> np.ndarray:
    """``(ci * i + cj * j) mod m`` over the block ``i x j``: an outer sum of per-axis residues."""
    s = np.add.outer((ci % m * i % m).astype(dtype), (cj % m * j % m).astype(dtype))
    np.subtract(s, m, out=s, where=s >= m)  # both residues are below m
    return s


def trig_values(poly: TrigPolynomial, x1: np.ndarray, x2: np.ndarray, den) -> np.ndarray:
    """``poly`` at the points ``(x1, x2) / den``: one cos or sin per point per term, terms added in order.

    ``den`` is an int or an array of one denominator per point.  A zero
    amplitude skips its cos or sin; the sum is the same bit for bit.
    """
    value = np.full(len(x1), float(poly.constant))
    for k1, k2, a, b in poly.terms:
        ph = (TWO_PI / den) * ((k1 * x1 + k2 * x2) % den)
        if b == 0.0:
            value += a * np.cos(ph)
        elif a == 0.0:
            value += b * np.sin(ph)
        else:
            value += a * np.cos(ph) + b * np.sin(ph)
    return value


def _trig_block(poly: TrigPolynomial, w, i: np.ndarray, j: np.ndarray, m: int, cos, sin) -> np.ndarray:
    """``poly`` at the points ``w (i, j) / m`` of a block, flat; ``cos`` and ``sin`` map phase indices mod ``m``.

    Terms are added in order and a zero amplitude skips its cos or sin, so
    every value is the same bit for bit as one cos or sin per point per term.  Phases are intp, the
    index type ``take`` would otherwise convert them to on every call.
    """
    value = np.full((len(i), len(j)), float(poly.constant))
    for k1, k2, a, b in poly.terms:
        k = _outer_mod(k1 * w[0][0] + k2 * w[1][0], k1 * w[0][1] + k2 * w[1][1], i, j, m, np.intp)  # k . x mod m
        if b == 0.0:
            value += a * cos(k)
        elif a == 0.0:
            value += b * sin(k)
        else:
            value += a * cos(k) + b * sin(k)
    return value.ravel()


def _index_map(auto: ToralAutomorphism, k: int, d1: int, d2: int, v) -> tuple[int, int, int, int]:
    """``B^k`` on the flat index ``i * d2 + j`` of :func:`_fixed_point_lattice`, ``B = V^-1 A V``.

    Returns ``(c1, c2, r1, r2)``: the image is ``(c1 i + c2 j) mod d2 + d2 ((r1 i + r2 j) mod d1)``.
    """
    stride = d2 // d1
    det_v = _det(v)
    v_inv = ((det_v * v[1][1], -det_v * v[0][1]), (-det_v * v[1][0], det_v * v[0][0]))
    (b11, b12), (b21, b22) = _mat_mul(_mat_mul(v_inv, auto.power(k)), v)
    # B^k maps the lattice (stride * Z_d1) x Z_d2 into itself, so stride | b12 mod d2
    return b21 * stride, b22, b11, b12 % d2 // stride


def _index_image(auto: ToralAutomorphism, k: int, d1: int, d2: int, v, index: np.ndarray) -> np.ndarray:
    """The flat indices that ``B^k`` maps ``index`` to; int64 products stay below ``d2**2``."""
    c1, c2, r1, r2 = _index_map(auto, k, d1, d2, v)
    i, j = np.divmod(index, d2)
    return (c1 % d2 * i + c2 % d2 * j) % d2 + (r1 % d1 * i + r2 % d1 * j) % d1 * d2


def _period_pass(auto: ToralAutomorphism, n: int, roof: TrigPolynomial | None = None,
                 time_change: TrigPolynomial | None = None, lattice=None):
    """The primitive orbits of least period ``n``, in one pass over the fixed points of ``A^n``.

    Points are indexed by ``Z_d1 x Z_d2`` (:func:`_fixed_point_lattice`), where
    ``A`` acts as ``B = V^-1 A V``: that is the successor permutation.
    ``ceil(log2 n)`` rounds of pointer doubling label each point with the
    smallest index on its cycle, its head.  A cycle is a primitive orbit
    when its head is not fixed by ``B^(n/q)`` for any prime ``q | n``, a
    test on the heads alone.  Its representative is its lexicographically
    smallest point.
    The successor, the point ``x = V (i * stride, j) mod d2`` and every roof
    phase ``k . x mod d2`` are linear in ``(i, j)``, so each is an outer sum
    of two per-axis residue vectors.  When ``d2`` is at most a block, the
    phases index one cos and one sin table over ``2 pi / d2 * arange(d2)``.
    Returns the table columns ``(period, num1, num2, den, length0, slope,
    class_exps)`` sorted by ``(num1, num2)``: ``length0`` and ``slope`` are
    the orbit sums of ``roof`` and of ``roof * time_change`` (0 where
    absent).  ``lattice`` is ``_fixed_point_lattice(auto, n)`` when the
    caller has it already.
    """
    d1, d2, v = lattice or _fixed_point_lattice(auto, n)
    count, stride = d1 * d2, d2 // d1
    c1, c2, r1, r2 = _index_map(auto, 1, d1, d2, v)
    succ = np.empty(count, dtype=np.int32)  # count <= MAX_ENUMERATED_POINTS < 2^31
    for lo, i, j in _axis_blocks(d1, d2):
        nxt = _outer_mod(c1, c2, i, j, d2)
        if d1 > 1:  # plus d2 times the successor's row, (r1 * i + r2 * j) mod d1
            nxt += _outer_mod(r1 * d2, r2 * d2, i, j, count)
        succ[lo : lo + nxt.size] = nxt.ravel()
    label = np.arange(count, dtype=np.int32)
    rounds = (n - 1).bit_length()
    # take converts the int32 index to intp, a whole-array transient each round that indexing does without
    # (numpy 2.4: a peak of 20-21 B/pt for the pass against 15-17), but indexing ran 7-21 % slower on the
    # cat map at 12 and 13 and on 0 1 1 3 at 11, so take stays
    for r in range(rounds):
        np.minimum(label, label.take(succ), out=label)
        if r + 1 < rounds:
            succ = succ.take(succ)
    del succ
    heads = np.flatnonzero(label == np.arange(count, dtype=np.int32))  # one per cycle, of any length q | n
    primes = (q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q)))
    for q in primes:  # a cycle shorter than n is fixed by B^(n/q) for some prime q | n
        heads = heads[_index_image(auto, n // q, d1, d2, v, heads) != heads]
    # one row per primitive orbit, plus a spare row for the points of smaller period
    row = np.full(count, len(heads), dtype=np.int32)
    row[heads] = np.arange(len(heads), dtype=np.int32)
    row = row[label]
    del label
    key = np.full(len(heads) + 1, _INT64_MAX)
    length, slope = np.zeros(len(heads) + 1), np.zeros(len(heads) + 1)
    w = ((v[0][0] * stride, v[0][1]), (v[1][0] * stride, v[1][1]))  # x = w (i, j) mod d2
    # every phase is a residue k mod d2: tables of cos and sin at k * (2 pi / d2) give the same bits as
    # evaluating there, and cost no more than one block's temporaries; past that (as when d1 = 1 and the
    # tables would hold a value per point) each block evaluates its own phases
    step = TWO_PI / d2
    if d2 <= _PASS_BLOCK:
        angle = np.arange(d2 if roof is not None else 0) * step
        cos, sin = np.cos(angle).take, np.sin(angle).take
    else:
        cos, sin = (lambda k: np.cos(k * step)), (lambda k: np.sin(k * step))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _orbit_columns
        for lo, i, j in _axis_blocks(d1, d2):
            x1, x2 = _outer_mod(*w[0], i, j, d2), _outer_mod(*w[1], i, j, d2)
            rows = row[lo : lo + x1.size]
            np.minimum.at(key, rows, (x1.astype(np.int64) * d2 + x2).ravel())
            if roof is not None:
                r = _trig_block(roof, w, i, j, d2, cos, sin)
                np.add.at(length, rows, r)
                if time_change is not None:
                    np.add.at(slope, rows, r * _trig_block(time_change, w, i, j, d2, cos, sin))
    order = np.argsort(key[:-1])
    key = key[order]
    num1, num2 = key // d2, key % d2
    return (np.full(len(key), n), num1, num2, np.full(len(key), d2), length[order], slope[order],
            _class_columns(auto, n, num1, num2, d2))


def _union_pass(auto: ToralAutomorphism, lattices: dict, roof: TrigPolynomial | None = None,
                time_change: TrigPolynomial | None = None):
    """Table columns of several periods in one pass over the union of their fixed points.

    ``lattices`` maps each period ``n`` to ``_fixed_point_lattice(auto, n)``.
    Point ``(i, j)`` of period ``n`` is union index ``start_n + i * d2 + j``.
    The integers of each period (its successor map, the map from ``(i, j)``
    to ``x``, its class maps) are one column of ``params``, gathered to one
    value per point or orbit, so each step of :func:`_period_pass` is one
    array operation for all periods.
    Pointer doubling runs the rounds of the deepest period; more rounds
    leave a shallower cycle's smallest index as its label.  A cycle is a
    primitive orbit when its size, a count of its label, is its period.
    The roof is one cos or sin per point per term (:func:`trig_values`).  Returns
    ``(period, num1, num2, den, length0, slope, class_exps)`` sorted by
    ``(period, num1, num2)``: per period, bit for bit the columns of
    :func:`_period_pass`.
    """
    params = []
    for n, (d1, d2, v) in lattices.items():
        stride = d2 // d1
        c1, c2, r1, r2 = _index_map(auto, 1, d1, d2, v)
        params.append((n, d1 * d2, d1, d2, c1 % d2, c2 % d2, r1 % d1, r2 % d1, v[0][0] * stride % d2,
                      v[0][1] % d2, v[1][0] * stride % d2, v[1][1] % d2,
                      *(w for factor in _class_maps(auto, n, d2) for w in factor)))
    params = np.array(params, dtype=np.int64).T
    count = params[1]
    which = np.repeat(np.arange(len(count)), count)  # the period of each point, as a column of params
    index = np.arange(len(which))
    start = (np.cumsum(count) - count)[which]
    n, _, d1, d2, c1, c2, r1, r2, w11, w12, w21, w22 = params[:12, which]
    i, j = np.divmod(index - start, d2)
    succ = (c1 * i + c2 * j) % d2 + (r1 * i + r2 * j) % d1 * d2 + start
    label = index.copy()
    rounds = (max(lattices) - 1).bit_length()
    for r in range(rounds):
        np.minimum(label, label.take(succ), out=label)
        if r + 1 < rounds:
            succ = succ.take(succ)
    heads = np.flatnonzero(np.bincount(label, minlength=len(index)) == n)
    row = np.full(len(index), len(heads))  # a spare row for the points of smaller period
    row[heads] = np.arange(len(heads))
    row = row[label]
    key = np.full(len(heads) + 1, _INT64_MAX)
    length, slope = np.zeros(len(heads) + 1), np.zeros(len(heads) + 1)
    x1, x2 = (w11 * i + w12 * j) % d2, (w21 * i + w22 * j) % d2
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _orbit_columns
        np.minimum.at(key, row, x1 * d2 + x2)
        if roof is not None:
            r = trig_values(roof, x1, x2, d2)
            np.add.at(length, row, r)
            if time_change is not None:
                np.add.at(slope, row, r * trig_values(time_change, x1, x2, d2))
    period, den, maps = n[heads], d2[heads], params[12:, which[heads]]
    order = np.lexsort((key[:-1], period))  # heads ascend by period: this sorts within each period
    key, length, slope = key[order], length[order], slope[order]
    num1, num2 = key // den, key % den
    class_exps = np.stack([(w1 * num1 + w2 * num2) % mod // den for w1, w2, mod in maps.reshape(-1, 3, len(den))],
                          axis=1)
    return period, num1, num2, den, length, slope, class_exps


def _class_maps(auto: ToralAutomorphism, n: int, den: int):
    """``(w1, w2, mod)`` per Smith factor of ``coker(A - I)``, for :func:`homology_class` of period-``n`` points.

    The fiber exponent of ``x / den`` is ``(w1 x1 + w2 x2) mod mod // den``:
    ``y = U (A^n - I) x / den mod order`` (``U`` from the Smith form of
    ``A - I``) is exact with ``U (A^n - I)`` reduced mod ``mod = den * order``.
    A factor of order 1 gives 0.
    """
    an = auto.power(n)
    u, d, _ = auto._coker_snf
    for row, order in enumerate((d[0][0], d[1][1])):
        mod = den * order
        yield ((u[row][0] * (an[0][0] - 1) + u[row][1] * an[1][0]) % mod,
               (u[row][0] * an[0][1] + u[row][1] * (an[1][1] - 1)) % mod, mod)


def _class_columns(auto: ToralAutomorphism, n: int, num1, num2, den: int) -> np.ndarray:
    """:func:`homology_class` fiber exponents of period-``n`` points, one row per point.

    Products use Python integers where int64 could overflow.
    """
    cols = []
    for w1, w2, mod in _class_maps(auto, n, den):
        if mod == den:  # a factor of order 1
            cols.append(np.zeros(len(num1), dtype=np.int64))
            continue
        dtype = np.int64 if 2 * mod * den < 1 << 63 else object
        y = (w1 * num1.astype(dtype) + w2 * num2.astype(dtype)) % mod // den
        cols.append(y.astype(np.int64))
    return np.stack(cols, axis=1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _small_depth(auto: ToralAutomorphism, n_max: int) -> int:
    """The last period ``s <= n_max`` such that periods ``1..s`` each hold at most ``_UNION_POINTS`` fixed points.

    The counts ``|det(A^n - I)| = |det(A)^n - Tr(A^n) + 1|`` come from the
    recurrence ``Tr(A^n) = Tr(A) Tr(A^(n-1)) - det(A) Tr(A^(n-2))``, so no
    power of ``A`` is taken.
    """
    (a, b), (c, d) = auto.matrix
    trace, det = a + d, a * d - b * c
    before, now, s = 2, trace, 0  # Tr(A^s), Tr(A^(s+1))
    while s < n_max and abs(det ** (s + 1) - now + 1) <= _UNION_POINTS:
        before, now, s = now, trace * now - det * before, s + 1
    return s


def _orbit_columns(auto: ToralAutomorphism, n_max: int, roof=None, time_change=None, shallower=None):
    """Read-only ``(period, num1, num2, den, length0, slope, class_exps)`` up to ``n_max``.

    The periods past those of ``shallower``, an :class:`OrbitTable` whose
    columns the result extends when given, are built by passes in period
    order.  When the first two or more new periods each hold at most
    ``_UNION_POINTS`` fixed points, they share one :func:`_union_pass`;
    every other new period takes one :func:`_period_pass`.  So the first
    request of a cycle-expansion stream, which reaches at least
    :func:`_small_depth`, builds all the small periods in one pass.  Every new
    period's lattice comes first, so a period past the enumeration cap is
    refused before any pass, and each pass's orbit sums are checked as it
    returns: a sum beyond the float range is a :class:`CapacityError` naming
    its period.  ``length0`` and ``slope`` are 0 without a roof or time
    change.
    """
    depth, parts = (0, []) if shallower is None else (shallower.n_max, [shallower.columns()])
    lattices = {n: _fixed_point_lattice(auto, n) for n in range(depth + 1, n_max + 1)}
    small = list(takewhile(lambda n: lattices[n][0] * lattices[n][1] <= _UNION_POINTS, lattices))
    union = [{n: lattices.pop(n) for n in small}] if len(small) > 1 else []
    passes = chain((_union_pass(auto, run, roof, time_change) for run in union),
                   (_period_pass(auto, n, roof, time_change, lattice) for n, lattice in lattices.items()))
    for columns in passes:
        period, *_, length, slope, _ = columns
        finite = np.isfinite(length) & np.isfinite(slope)
        if not finite.all():
            raise CapacityError(f"orbit lengths of period {period[~finite][0]} exceed the floating-point range")
        parts.append(columns)
    return _read_only(*(np.concatenate(col) for col in zip(*parts)))


@record(eq=False)
class OrbitTable:
    """Primitive orbits of a suspension up to period ``n_max``, one read-only column per field.

    Rows are sorted by ``(period, num1, num2)``; each orbit is represented
    by its lexicographically smallest base point ``(num1, num2) / den``.
    ``length0`` is the Birkhoff sum of the roof and ``slope`` that of
    ``roof * g``, the length's derivative in ``tau`` (0 without a time
    change).  ``class_exps`` holds the fiber exponents of the class in
    ``coker(A - I)``, one column per Smith factor; the winding is the period.
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

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(period, num1, num2, den, length0, slope, class_exps)``."""
        return tuple(getattr(self, name) for name in fields(self)[2:])

    def up_to(self, n_max: int) -> OrbitTable:
        """The orbits of period at most ``n_max``, as prefix views of the columns."""
        stop = int(np.searchsorted(self.period, n_max, side="right"))
        return OrbitTable(self.model, n_max, *(column[:stop] for column in self.columns()))

    def period_slice(self, n: int) -> slice:
        """Rows of the primitive orbits of period ``n``."""
        lo, hi = np.searchsorted(self.period, (n, n + 1))
        return slice(int(lo), int(hi))

    def lengths(self, tau: float = 0.0, rows: slice = slice(None)) -> np.ndarray:
        """Orbit lengths ``length0 + tau * slope`` of ``rows`` (all by default) at family parameter ``tau``.

        All are finite, else a :class:`CapacityError`.
        """
        self.model.require_tau(tau)
        with np.errstate(over="ignore"):
            lengths = self.length0[rows] + tau * self.slope[rows]
        if not np.isfinite(lengths).all():
            raise CapacityError(f"orbit lengths at tau={tau} exceed the floating-point range")
        return lengths

    def transverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(epsilon, lam_u, lam_s, det_power)`` of ``A^n`` for n = 0..n_max, indexed by the period n.

        Every orbit of a period has that period's values; epsilon and det_power are int64.
        """
        auto = self.model.automorphism
        periods = range(self.n_max + 1)
        per_period = ([orientation_index(auto, n) for n in periods], [auto.lam_u**n for n in periods],
                      [auto.lam_s**n for n in periods], [auto.det**n for n in periods])
        return tuple(np.array(column) for column in per_period)

    def records(self, tau: float = 0.0) -> list[OrbitRecord]:
        """Row views with lengths at ``tau``, in table order."""
        rows = zip(self.period.tolist(), self.num1.tolist(), self.num2.tolist(), self.den.tolist(),
                   self.lengths(tau).tolist(), *(column[self.period].tolist() for column in self.transverse()),
                   map(tuple, self.class_exps.tolist()), self.period.tolist())
        return [OrbitRecord(*row) for row in rows]


@lru_cache(maxsize=4)
def _deepest_table(model: SuspensionModel) -> list:
    """One slot per model (the four latest models kept): its deepest table built so far, or None, and the
    prefix views handed out from that table by depth."""
    return [None, {}]


def orbit_table(model: SuspensionModel, n_max: int) -> OrbitTable:
    """The orbit table of ``model`` up to period ``n_max``, each period built once per process.

    One table per model grows by whole periods: rows are sorted by
    period, so a shallower table is a prefix of a deeper one.  A request
    at the built depth returns the cached table, one below it prefix views
    of its columns (the same views for the same depth, so what is kept on
    them is found again), and one beyond it builds the new periods only
    (:func:`_orbit_columns`).  A pass evaluates the roof (and the time
    change) once at every fixed point and sums it along each orbit.
    """
    slot = _deepest_table(model)
    table, views = slot
    if table is None or n_max > table.n_max:
        table, views = _build_table(model, n_max, table), {}
        slot[:] = table, views
    if n_max == table.n_max:
        return table
    if n_max not in views:
        views[n_max] = table.up_to(n_max)
    return views[n_max]


def _build_table(model: SuspensionModel, n_max: int, shallower: OrbitTable | None = None) -> OrbitTable:
    """The orbit table of ``model`` up to ``n_max``, uncached: ``shallower`` extended when given."""
    return OrbitTable(model, n_max, *_orbit_columns(model.automorphism, n_max, model.roof, model.time_change,
                                                    shallower))


def primitive_orbits(automorphism, n_max: int) -> list[PrimitiveOrbit]:
    """Primitive periodic orbits of the base map up to period ``n_max``.

    Each orbit is represented by its lexicographically smallest point;
    the output is sorted by ``(period, num1, num2)``.
    """
    period, num1, num2, den, *_ = _orbit_columns(_automorphism(automorphism), n_max)
    return [PrimitiveOrbit(*row) for row in zip(period.tolist(), num1.tolist(), num2.tolist(), den.tolist())]


def orbit_records(model: SuspensionModel, n_max: int, tau: float = 0.0) -> list[OrbitRecord]:
    """Primitive orbit records with lengths at ``tau``: row views of :func:`orbit_table`."""
    return orbit_table(model, n_max).records(tau)


# ---------------------------------------------------------------------------
# Orbit dump format
# ---------------------------------------------------------------------------


@record(eq=False)
class OrbitDump:
    """The orbit lines of a ``#fried-orbits v1`` file as read-only columns, in file order.

    ``class_exps`` holds one column per class exponent.  Transverse
    eigenvalue data is not part of the format, so the columns support
    Ruelle sums (length, index, holonomy class) only.
    """

    period: np.ndarray
    num1: np.ndarray
    num2: np.ndarray
    den: np.ndarray
    length: np.ndarray
    epsilon: np.ndarray
    winding: np.ndarray
    class_exps: np.ndarray

    def __len__(self) -> int:
        return len(self.length)


def write_orbit_dump(path, table: OrbitTable, tau: float = 0.0):
    """Write ``#fried-orbits v1``: one orbit of ``table`` per line, in table order, lengths at ``tau``.

    Fields are whitespace separated: period, base point numerators and
    denominator, length (its ``repr``), orientation index, winding and
    the class exponents.  The period, denominator, index and winding are
    those of the period, written into one line template per period.
    """
    auto = table.model.automorphism
    rows = zip(table.num1.tolist(), table.num2.tolist(), table.lengths(tau).tolist(),
               *(column.tolist() for column in table.class_exps.T))
    exps = " %d" * table.class_exps.shape[1]
    lines = [ORBIT_DUMP_HEADER]
    for n in range(1, table.n_max + 1):
        span = table.period_slice(n)
        if span.stop > span.start:  # %r is the length's repr
            line = f"{n} %d %d {table.den[span.start]} %r {orientation_index(auto, n)} {n}{exps}"
            lines += map(line.__mod__, islice(rows, span.stop - span.start))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_orbit_dump(path) -> OrbitDump:
    """Read a ``#fried-orbits v1`` file into read-only contiguous columns.

    A good file is one ``np.loadtxt`` parse and one check of every row at
    once.  Otherwise :func:`_refuse_dump_line` names the first line the
    format refuses in a ValidationError: a malformed line, a length that is
    not positive and finite, an epsilon other than -1 or 1, a winding other
    than the period, a period or denominator below 1, an integer beyond 64
    bits, a ``_`` in a number, or a byte that is neither printable ASCII
    nor a tab or line end.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _dump_rows(data)
    if rows is None:
        _refuse_dump_line(path, data)
    return OrbitDump(*_read_only(*(np.ascontiguousarray(rows[name]) for name in fields(OrbitDump))))


def _dump_dtype(exps: int) -> np.dtype:
    """One orbit line with ``exps`` class exponents, its fields named as in :class:`OrbitDump`."""
    ints = [(name, np.int64) for name in ("period", "num1", "num2", "den")]
    return np.dtype([*ints, ("length", np.float64), ("epsilon", np.int64), ("winding", np.int64),
                     ("class_exps", np.int64, (exps,))])


def _dump_rows(data: bytes) -> np.ndarray | None:
    """The orbit lines as one structured array, or None where :func:`_refuse_dump_line` refuses a line.

    Each check is the column form of one of that function's, so the two
    refuse the same files.
    """
    head, _, body = data.partition(b"\n")
    if (head.strip() != ORBIT_DUMP_HEADER.encode() or data.translate(None, _DUMP_BYTES)
            or data.count(b"\r") != data.count(b"\r\n") + data.endswith(b"\r")
            or b"#" in body and _INLINE_HASH.search(body)):
        return None
    first = _FIRST_ORBIT_LINE.search(body)
    if first is None:
        return np.empty(0, _dump_dtype(0))
    width = len(first[1].split())
    if width < 7:
        return None
    try:
        # numpy releases that keep the 1.23 deprecation read "0.5" or "1e3" in an integer column as a
        # truncated float and only warn; as an error, loadtxt raises ValueError whatever the caller's filters
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.BytesIO(body), _dump_dtype(width - 7), comments="#", ndmin=1)
    except ValueError:
        return None
    period, length, epsilon = rows["period"], rows["length"], rows["epsilon"]
    if not ((length > 0) & (length < np.inf) & (np.abs(epsilon) == 1) & (rows["winding"] == period)
            & (period >= 1) & (rows["den"] >= 1)).all():
        return None
    # -2**63 passes np.loadtxt but not the 64-bit check; the mask above already bounds the other fields
    if any((rows[name] == _INT64_MIN).any() for name in ("num1", "num2", "class_exps")):
        return None
    return rows


def _refuse_dump_line(path, data: bytes):
    """Raise the ValidationError, naming ``path:line``, for the first line of ``data`` the dump format refuses."""
    width = None
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        text = ascii_line(path, lineno, raw)
        stray = _CONTROL_BYTE.search(raw.removesuffix(b"\r"))
        if stray:
            col = stray.start() + 1
            raise ValidationError(f"{path}:{lineno}: control byte 0x{raw[col - 1]:02x} at column {col}")
        line = text.strip()
        if lineno == 1:
            if line != ORBIT_DUMP_HEADER:
                raise ValidationError(f"bad orbit dump header: {line!r}")
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) < 7:
                raise ValidationError("an orbit line needs period, base point, length, epsilon, winding")
            row = [int(x) for x in parts[:4]]  # period, base point, denominator
            length = float(parts[4])
            if not (math.isfinite(length) and length > 0):
                raise ValidationError(f"length must be positive and finite, got {parts[4]!r}")
            row += [int(x) for x in parts[5:]]  # epsilon, winding, class exponents
            if width is not None and len(row) != width:
                raise ValidationError(
                    f"{len(row) - 6} class exponents where the first orbit line has {width - 6}")
            if max(map(abs, row)) >= 1 << 63:
                raise ValidationError("integer field exceeds 64 bits")
            if row[4] not in (-1, 1):
                raise ValidationError(f"epsilon must be -1 or 1, got {row[4]}")
            if row[5] != row[0]:
                raise ValidationError(f"winding {row[5]} differs from the period {row[0]}")
            if row[0] < 1 or row[3] < 1:
                raise ValidationError(f"period and denominator must be at least 1, got {row[0]} and {row[3]}")
            for x in parts:
                if "_" in x:  # int() and float() read it as a digit separator; np.loadtxt does not
                    raise ValidationError(f"digit separator '_' in {x!r}")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        width = len(row)
    raise ValidationError(f"{path}: the column parser refused a dump whose every line checks out")
