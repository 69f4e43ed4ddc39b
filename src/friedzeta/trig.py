"""Real trigonometric polynomials on the 2-torus.

Roof functions and time changes are finite sums

    f(x) = c0 + sum_t  a_t * cos(2*pi*<k_t, x>) + b_t * sin(2*pi*<k_t, x>)

with integer frequency vectors k_t.  The orbit table (:mod:`friedzeta.toral`)
evaluates them at rational points through the residue of <k, num> modulo the
common denominator, which keeps the phase argument in [0, 2*pi) and makes
evaluation independent of which lift of the point is supplied.
"""

from __future__ import annotations

import math

from ._record import record

__all__ = ["TrigPolynomial"]

TWO_PI = 2.0 * math.pi


@record
class TrigPolynomial:
    """Finite trigonometric polynomial on the 2-torus.

    Parameters
    ----------
    constant : float
        Constant Fourier term.
    terms : tuple of (int, int, float, float)
        Nonconstant terms ``(k1, k2, cos_coef, sin_coef)``.  A term with
        ``k = (0, 0)`` is rejected; fold it into ``constant``.
    """

    constant: float = 0.0
    terms: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self):
        for k1, k2, _, _ in self.terms:
            if k1 == 0 and k2 == 0:
                raise ValueError("constant term must go in 'constant', not terms")
            if not (isinstance(k1, int) and isinstance(k2, int)):
                raise TypeError("frequencies must be integers")

    @classmethod
    def const(cls, value: float) -> "TrigPolynomial":
        return cls(constant=float(value))

    @classmethod
    def cosine(cls, k: tuple[int, int], amplitude: float, constant: float = 0.0) -> "TrigPolynomial":
        """Shorthand for ``constant + amplitude*cos(2*pi*<k, x>)``."""
        return cls(constant=float(constant), terms=((int(k[0]), int(k[1]), float(amplitude), 0.0),))

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def lower_bound(self) -> float:
        """Certified lower bound: constant minus the l1 norm of the rest."""
        return self.constant - sum(abs(a) + abs(b) for _, _, a, b in self.terms)
