"""Birkhoff sums of the effective roof over rational points of the torus.

Per point, the step loop runs sequentially and each trig term is added in
declaration order, so every sum is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["birkhoff_sums"]

TWO_PI = 2.0 * np.pi
# Points per block: bounds the per-call temporaries, about ten arrays of this length.
_KERNEL_BLOCK = 1 << 14


def _trig_values(constant, k1, k2, cos_amp, sin_amp, x1, x2, den):
    """Trig polynomial at the points ``(x1, x2) / den``, terms in order."""
    value = np.full(len(x1), float(constant))
    for t in range(len(k1)):
        ph = (TWO_PI / den) * ((k1[t] * x1 + k2[t] * x2) % den)
        value += cos_amp[t] * np.cos(ph) + sin_amp[t] * np.sin(ph)
    return value


def birkhoff_sums(num1, num2, den, matrix, steps, roof, time_change=None, tau=0.0) -> np.ndarray:
    """Birkhoff sums ``sum_i roof(A^i x) * (1 + tau*g(A^i x))`` over ``steps`` iterates.

    Parameters
    ----------
    num1, num2 : int64 arrays
        Numerators of the rational base points.
    den : int
        Common denominator (positive); iteration is exact int64 arithmetic
        mod ``den``.
    matrix : 2x2 integer matrix
        Iterated map ``A``.
    steps : int
        Number of iterates in each Birkhoff sum.
    roof, time_change : TrigPolynomial
        Effective roof is ``roof * (1 + tau*time_change)``.
    """
    n = len(num1)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    den = int(den)
    if den <= 0:
        raise ValueError("denominator must be positive")
    (a11, a12), (a21, a22) = ((int(a) % den for a in row) for row in matrix)
    roof_arrays = roof.arrays()
    change = time_change.arrays() if time_change is not None and tau != 0.0 else None
    num1 = np.asarray(num1, dtype=np.int64)
    num2 = np.asarray(num2, dtype=np.int64)
    for lo in range(0, n, _KERNEL_BLOCK):
        x1, x2 = num1[lo : lo + _KERNEL_BLOCK], num2[lo : lo + _KERNEL_BLOCK]
        acc = np.zeros(len(x1))
        for _ in range(int(steps)):
            r = _trig_values(*roof_arrays, x1, x2, den)
            if change is None:
                acc += r
            else:
                acc += r * (1.0 + tau * _trig_values(*change, x1, x2, den))
            x1, x2 = (a11 * x1 + a12 * x2) % den, (a21 * x1 + a22 * x2) % den
        out[lo : lo + _KERNEL_BLOCK] = acc
    return out
