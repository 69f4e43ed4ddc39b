"""Length spectra with holonomy for hyperbolic 3-manifold models.

Conjugacy classes of a rank-r free (Schottky) group are enumerated as
cyclically reduced words up to rotation; complex lengths come from the
eigenvalue of larger modulus of the SL(2, C) matrix.  A synthetic
generator produces reproducible spectra whose counting function follows
exponential orbit growth.
"""

from __future__ import annotations

import math
from cmath import phase, sqrt as csqrt

import numpy as np

from ._record import record
from .characters import _reduce_angle
from .errors import CapacityError, NotLoxodromicError, ValidationError, ascii_line

__all__ = [
    "MobiusGenerator",
    "CyclicWord",
    "ComplexLengthRecord",
    "PoincareData",
    "enumerate_conjugacy_classes",
    "word_matrix",
    "complex_length",
    "poincare_data",
    "synthetic_spectrum",
    "schottky_spectrum",
    "disc_separation_report",
    "write_spectrum",
    "read_spectrum",
    "SPECTRUM_HEADER",
]

SPECTRUM_HEADER = "#fried-spectrum v1 n0=2"
# Words the Schottky walk visits, 2r(2r-1)^(L-1) per length L: rank 2 to length 11 is 354,292.
MAX_WALKED_WORDS = 1 << 20
# Records of a synthetic spectrum, each one root solve in Python.
MAX_SYNTHETIC_RECORDS = 1 << 18


@record
class MobiusGenerator:
    """SL(2, C) matrix with unit determinant."""

    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __init__(self, matrix):
        m = (
            (complex(matrix[0][0]), complex(matrix[0][1])),
            (complex(matrix[1][0]), complex(matrix[1][1])),
        )
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if abs(det - 1.0) > 1e-12:
            raise ValidationError(f"determinant must be 1, got {det}")
        object.__setattr__(self, "matrix", m)

    def inverse(self) -> "MobiusGenerator":
        (a, b), (c, d) = self.matrix
        return MobiusGenerator(((d, -b), (-c, a)))

    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=complex)


@record
class CyclicWord:
    """Cyclically reduced word in canonical (lexicographically minimal) rotation.

    Letters are nonzero ints: ``+i`` is the i-th generator (1-based),
    ``-i`` its inverse.  ``primitive`` is a function of the letters.
    """

    letters: tuple[int, ...]
    primitive: bool = True

    @staticmethod
    def _min_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
        n = len(letters)
        if n == 0:
            return letters
        return min(letters[i:] + letters[:i] for i in range(n))


def _is_primitive(letters: tuple[int, ...]) -> bool:
    n = len(letters)
    if n == 0:
        return False
    for p in range(1, n):
        if n % p == 0 and letters == letters[p:] + letters[:p]:
            return False
    return True


def enumerate_conjugacy_classes(rank: int, l_max: int) -> list[CyclicWord]:
    """Cyclic classes of cyclically reduced words of length 1..l_max.

    One representative per rotation class; a word and its inverse are kept
    as distinct classes (they index distinct closed orbits of the flow).
    """
    if rank < 2:
        raise ValidationError("need at least 2 generators")
    if l_max < 1:
        raise ValidationError("l_max must be >= 1")
    walked = 0
    for length in range(1, l_max + 1):  # stops at the cap, a few lengths in
        walked += 2 * rank * (2 * rank - 1) ** (length - 1)
        if walked > MAX_WALKED_WORDS:
            raise CapacityError(f"words up to length {l_max} at rank {rank} exceed the cap of {MAX_WALKED_WORDS}")
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    seen: set[tuple[int, ...]] = set()
    out: list[CyclicWord] = []

    def extend(word: list[int], length: int):
        if len(word) == length:
            if word[0] != -word[-1] or length == 1:
                canon = CyclicWord._min_rotation(tuple(word))
                if canon not in seen:
                    seen.add(canon)
                    out.append(CyclicWord(canon, _is_primitive(canon)))
            return
        for x in alphabet:
            if word and x == -word[-1]:
                continue
            word.append(x)
            extend(word, length)
            word.pop()

    for length in range(1, l_max + 1):
        for first in alphabet:
            extend([first], length)
    out.sort(key=lambda w: (len(w.letters), w.letters))
    return out


def word_matrix(word: CyclicWord, generators: list[MobiusGenerator]) -> np.ndarray:
    """Product of generator matrices along the word."""
    m = np.eye(2, dtype=complex)
    for x in word.letters:
        g = generators[abs(x) - 1]
        m = m @ (g.array() if x > 0 else g.inverse().array())
    return m


def complex_length(matrix) -> tuple[float, float]:
    """Complex length ``(ell, theta)`` of a loxodromic SL(2, C) element.

    Solves ``2 cosh((ell + i theta)/2) = +-tr`` with ``ell > 0`` and
    ``theta in (-pi, pi]``: ``ell = 2 log|lam|`` and ``theta = 2 arg lam``
    for the eigenvalue ``lam`` of larger modulus.
    """
    if isinstance(matrix, MobiusGenerator):
        m = matrix.matrix
    else:
        m = ((complex(matrix[0][0]), complex(matrix[0][1])), (complex(matrix[1][0]), complex(matrix[1][1])))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    # word products grow like e^{ell/2}, and det's rounding error with the squared entries
    if abs(det - 1.0) > 1e-9 * max(1.0, sum(abs(x) ** 2 for row in m for x in row)):
        raise ValidationError("matrix must have determinant 1")
    t = m[0][0] + m[1][1]
    if abs(t.imag) < 1e-12 and abs(t.real) <= 2.0:
        raise NotLoxodromicError(f"trace {t} lies in [-2, 2]: not loxodromic")
    disc = csqrt(t * t - 4.0)
    roots = ((t + disc) / 2.0, (t - disc) / 2.0)
    lam = max(roots, key=abs)
    ell = 2.0 * math.log(abs(lam))
    if ell <= 0:
        raise NotLoxodromicError("eigenvalues on the unit circle: not loxodromic")
    theta = _reduce_angle(2.0 * phase(lam))
    return ell, theta


@record
class ComplexLengthRecord:
    """Closed geodesic datum: length, holonomy angle, multiplicity."""

    length: float
    theta: float
    multiplicity: int = 1
    label: str = ""
    rho: complex = 1.0 + 0.0j

    def __init__(self, length, theta, multiplicity=1, label="", rho=1.0 + 0.0j):
        # written out, not the record's generic __init__: spectra build these by keyword, by the thousand
        if not (math.isfinite(length) and length > 0):
            raise ValidationError(f"length must be positive and finite, got {length!r}")
        if not math.isfinite(theta):
            raise ValidationError(f"theta must be finite, got {theta!r}")
        if multiplicity < 1:
            raise ValidationError("multiplicity must be >= 1")
        self.__dict__.update(length=length, theta=_reduce_angle(theta), multiplicity=multiplicity, label=label,
                             rho=rho)

    def sort_key(self):
        return (self.length, self.label)


@record
class PoincareData:
    """Determinants and wedge trace of the 4x4 geodesic Poincare map power."""

    det_one_minus_p: float
    det_one_minus_ps: float
    wedge_trace: float


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def poincare_data(ell: float, theta: float, j: int, k: int) -> PoincareData:
    """Data of ``P^j`` for ``P = diag(e^-ell R_theta, e^ell R_theta)``.

    Wedge traces are read off the characteristic polynomial of the 4x4
    block matrix, so no closed form is assumed.
    """
    if ell <= 0:
        raise ValidationError("ell must be positive")
    if j < 1 or not 0 <= k <= 4:
        raise ValidationError("need j >= 1 and 0 <= k <= 4")
    if j * ell > 300.0:
        raise ValidationError("j*ell too large: expanding block overflows doubles")
    r = _rotation(j * theta)
    ps = math.exp(-j * ell) * r
    pu = math.exp(j * ell) * r
    p = np.zeros((4, 4))
    p[:2, :2] = ps
    p[2:, 2:] = pu
    det_p = float(np.linalg.det(np.eye(4) - p))
    det_ps = float(np.linalg.det(np.eye(2) - ps))
    coeffs = np.poly(p)  # [1, -e1, e2, -e3, e4]
    wedge = float(((-1.0) ** k) * coeffs[k].real)
    return PoincareData(det_p, det_ps, wedge)


# ---------------------------------------------------------------------------
# Spectrum generators
# ---------------------------------------------------------------------------


def _solve_counting(h: float, target: float, ell_lo: float) -> float:
    """Solve ``exp(h*ell)/ell = target`` on the increasing branch."""
    ell = max(ell_lo, math.log(max(target * ell_lo, 2.0)) / h)
    for _ in range(80):
        f = h * ell - math.log(ell) - math.log(target)
        fp = h - 1.0 / ell
        step = f / fp
        ell -= step
        if abs(step) < 1e-14 * max(1.0, ell):
            break
    return ell


def synthetic_spectrum(
    h: float, count: int, seed: int, min_length: float = 1.0
) -> list[ComplexLengthRecord]:
    """Reproducible pseudo-random spectrum with exponential orbit growth.

    The k-th length solves ``exp(h*ell)/ell = k0 + k*u_k`` with a small
    multiplicative jitter ``u_k``, so the cumulative counting function
    stays within a factor 2 of ``exp(h*ell)/ell`` above the offset scale.
    Angles are uniform on ``(-pi, pi]``.
    """
    if h <= 0:
        raise ValidationError("entropy h must be positive")
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count > MAX_SYNTHETIC_RECORDS:
        raise CapacityError(f"{count} synthetic records exceed the cap of {MAX_SYNTHETIC_RECORDS}")
    rng = np.random.default_rng(seed)
    ell_lo = max(min_length, 1.5 / h)
    k0 = math.ceil(math.exp(h * ell_lo) / ell_lo)
    jitter = rng.uniform(0.95, 1.05, size=count)
    angles = rng.uniform(-math.pi, math.pi, size=count)
    lengths = [_solve_counting(h, k0 + (k + 1) * jitter[k], ell_lo) for k in range(count)]
    records = [
        ComplexLengthRecord(length=lengths[k], theta=float(angles[k]), label=f"s{k:05d}")
        for k in range(count)
    ]
    records.sort(key=lambda r: r.sort_key())
    return records


def schottky_spectrum(generators: list[MobiusGenerator], l_max: int) -> list[ComplexLengthRecord]:
    """Primitive complex-length spectrum of a Schottky-type free group.

    Enumerates primitive conjugacy classes up to word length ``l_max`` and
    extracts complex lengths from the word matrices.  Discreteness is not
    certified; see :func:`disc_separation_report` for a heuristic.
    """
    words = [w for w in enumerate_conjugacy_classes(len(generators), l_max) if w.primitive]
    records = []
    for w in words:
        ell, theta = complex_length(word_matrix(w, generators))
        label = ".".join(str(x) for x in w.letters)
        records.append(ComplexLengthRecord(length=ell, theta=theta, label=label))
    records.sort(key=lambda r: r.sort_key())
    return records


@record
class DiscReport:
    """Isometric-circle gaps; ``min_gap`` is ``None`` where the heuristic does not apply."""

    applicable: bool
    separated: bool
    min_gap: float | None


def disc_separation_report(generators: list[MobiusGenerator]) -> DiscReport:
    """Heuristic isometric-circle separation check (not a discreteness proof)."""
    circles = []
    for g in generators:
        for m in (g.matrix, g.inverse().matrix):
            c = m[1][0]
            d = m[1][1]
            if abs(c) < 1e-12:
                return DiscReport(False, False, None)  # a generator fixes infinity: no isometric circle
            circles.append((-d / c, 1.0 / abs(c)))
    min_gap = math.inf
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            z1, r1 = circles[i]
            z2, r2 = circles[j]
            min_gap = min(min_gap, abs(z1 - z2) - (r1 + r2))
    return DiscReport(True, min_gap > 0, min_gap)


# ---------------------------------------------------------------------------
# Spectrum file format
# ---------------------------------------------------------------------------


def write_spectrum(path, records: list[ComplexLengthRecord]):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SPECTRUM_HEADER + "\n")
        for r in sorted(records, key=lambda x: x.sort_key()):
            line = f"{r.length!r} {r.theta!r} {r.multiplicity}"
            if r.label:
                line += f" {r.label}"
            fh.write(line + "\n")


def read_spectrum(path) -> list[ComplexLengthRecord]:
    """Read a ``#fried-spectrum v1`` file; a malformed line raises a ValidationError naming ``path:line``."""
    records = []
    with open(path, "rb") as fh:
        header = ascii_line(path, 1, fh.readline()).strip()
        if not header.startswith("#fried-spectrum v1"):
            raise ValidationError(f"bad spectrum header: {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = ascii_line(path, lineno, raw).strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) < 2:
                    raise ValidationError("a spectrum line needs at least ell and theta")
                if len(parts) > 4:
                    raise ValidationError("a spectrum line has at most ell, theta, multiplicity and label")
                mult = int(parts[2]) if len(parts) > 2 else 1
                label = parts[3] if len(parts) > 3 else ""
                ell, theta = float(parts[0]), float(parts[1])
                records.append(ComplexLengthRecord(ell, theta, multiplicity=mult, label=label))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return records
