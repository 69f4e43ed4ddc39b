"""Characters of SO(n0) rotation classes via symmetric polynomials.

Conjugacy classes are represented by maximal-torus angles.  Characters of
the exterior-power representations are elementary symmetric polynomials of
the rotation eigenvalues, and characters of trace-free symmetric tensors
are differences ``h_p - h_{p-2}`` of complete homogeneous symmetric
polynomials, which inverts the branching of full symmetric tensors into
trace-free ones.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import ValidationError
from .trig import TWO_PI

__all__ = [
    "TorusElement",
    "IrrepLabel",
    "rotation_eigenvalues",
    "char_nu",
    "char_sigma",
    "char_label",
    "branching_check",
    "tensor_decomposition_check",
    "dim_sigma",
    "casimir_constant",
    "homogeneous_sums",
]


def _reduce_angle(theta: float) -> float:
    t = math.remainder(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    return t


@record
class TorusElement:
    """Maximal-torus representative of an SO(n0) class.

    For even ``n0 = 2m`` the element is ``m`` rotation angles; odd ``n0``
    is supported for ``n0 = 3`` only, with one angle and a fixed +1
    eigenvalue.
    """

    n0: int
    angles: tuple[float, ...]

    def __init__(self, n0: int, angles):
        if isinstance(angles, (int, float)):
            angles = (angles,)
        angles = tuple(_reduce_angle(float(a)) for a in angles)
        if n0 % 2 == 0:
            if len(angles) != n0 // 2:
                raise ValidationError(f"SO({n0}) torus element needs {n0 // 2} angles")
        elif n0 == 3:
            if len(angles) != 1:
                raise ValidationError("SO(3) torus element needs exactly 1 angle")
        else:
            raise ValidationError("odd n0 supported only for n0 = 3")
        self.__dict__.update(n0=int(n0), angles=angles)


@record
class IrrepLabel:
    """Label ``nu(l)`` (l-forms) or ``sigma(p)`` (trace-free symmetric)."""

    kind: str
    degree: int
    n0: int

    def __post_init__(self):
        if self.kind not in ("nu", "sigma"):
            raise ValidationError("kind must be 'nu' or 'sigma'")
        if self.kind == "nu" and not 0 <= self.degree <= self.n0:
            raise ValidationError("nu(l) requires 0 <= l <= n0")
        if self.kind == "sigma" and self.degree < 0:
            raise ValidationError("sigma(p) requires p >= 0")


def rotation_eigenvalues(element: TorusElement) -> list[complex]:
    eig: list[complex] = []
    for a in element.angles:
        eig.append(complex(math.cos(a), math.sin(a)))
        eig.append(complex(math.cos(a), -math.sin(a)))
    if element.n0 % 2 == 1:
        eig.append(1.0 + 0.0j)
    return eig


def _elementary_sums(eigenvalues, max_degree: int) -> list[complex]:
    """Elementary symmetric polynomials ``e_0..e_max`` of the eigenvalues."""
    e = [0.0j] * (max_degree + 1)
    e[0] = 1.0 + 0.0j
    top = 0
    for lam in eigenvalues:
        top = min(top + 1, max_degree)
        for r in range(top, 0, -1):
            e[r] = e[r] + lam * e[r - 1]
    return e


def homogeneous_sums(eigenvalues, max_degree: int) -> list[complex]:
    """Complete homogeneous symmetric polynomials ``h_0..h_max``.

    Built one variable at a time through ``h'_r = h_r + lam*h'_{r-1}``,
    which is stable for eigenvalues on or inside the unit circle.
    """
    h = [0.0j] * (max_degree + 1)
    h[0] = 1.0 + 0.0j
    for lam in eigenvalues:
        for r in range(1, max_degree + 1):
            h[r] = h[r] + lam * h[r - 1]
    return h


def char_nu(n0: int, l: int, element: TorusElement) -> float:
    """Character of SO(n0) acting on l-forms at a torus element."""
    if not 0 <= l <= n0:
        raise ValidationError("need 0 <= l <= n0")
    eig = rotation_eigenvalues(element)
    return _elementary_sums(eig, l)[l].real


def char_sigma(n0: int, p: int, element: TorusElement) -> float:
    """Character on trace-free symmetric tensors of order p: ``h_p - h_{p-2}``."""
    if p < 0:
        raise ValidationError("need p >= 0")
    eig = rotation_eigenvalues(element)
    h = homogeneous_sums(eig, p)
    value = h[p] - (h[p - 2] if p >= 2 else 0.0)
    return value.real


def char_label(label: IrrepLabel, element: TorusElement) -> float:
    if label.kind == "nu":
        return char_nu(label.n0, label.degree, element)
    return char_sigma(label.n0, label.degree, element)


def branching_check(n0: int, p: int, element: TorusElement) -> float:
    """Residual of ``h_p = sum_{2q <= p} sigma_{p-2q}`` characters; ~0."""
    eig = rotation_eigenvalues(element)
    h = homogeneous_sums(eig, p)
    total = sum(char_sigma(n0, p - 2 * q, element) for q in range(p // 2 + 1))
    return abs(h[p].real - total)


def tensor_decomposition_check(element: TorusElement) -> float:
    """Residual of ``nu_1 x nu_1 = sigma_0 + nu_2 + sigma_2`` for n0 = 2."""
    if element.n0 != 2:
        raise ValidationError("decomposition check is for n0 = 2")
    lhs = char_nu(2, 1, element) ** 2
    rhs = char_sigma(2, 0, element) + char_nu(2, 2, element) + char_sigma(2, 2, element)
    return abs(lhs - rhs)


def dim_sigma(n: int, m: int) -> int:
    """Dimension of trace-free symmetric tensors of order m on R^n."""
    if m == 0:
        return 1
    if m == 1:
        return n
    return math.comb(n + m - 1, m) - math.comb(n + m - 3, m - 2)


def casimir_constant(n: int, m: int) -> Fraction:
    """Casimir normalization ``n^2/4 - m(m + n - 2)`` as an exact rational."""
    from fractions import Fraction  # here, not at the top: no command needs it, and it loads decimal
    return Fraction(n * n, 4) - m * (m + n - 2)

