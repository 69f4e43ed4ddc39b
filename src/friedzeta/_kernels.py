"""Birkhoff sums of the effective roof over rational points of the torus.

Per point, the step loop runs sequentially and each trig term is added in
declaration order (:func:`friedzeta.toral.trig_values`), so every sum is
reproducible bit for bit.  No command imports this module:
:func:`birkhoff_sums` is the period pass's test oracle and a perfbench
trace target.
"""

from __future__ import annotations

import numpy as np

from .toral import trig_values

__all__ = ["birkhoff_sums"]

# Points per block: bounds the per-call temporaries, about ten arrays of this length.
_KERNEL_BLOCK = 1 << 14


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
    change = time_change if tau != 0.0 else None
    num1 = np.asarray(num1, dtype=np.int64)
    num2 = np.asarray(num2, dtype=np.int64)
    for lo in range(0, n, _KERNEL_BLOCK):
        x1, x2 = num1[lo : lo + _KERNEL_BLOCK], num2[lo : lo + _KERNEL_BLOCK]
        acc = np.zeros(len(x1))
        for _ in range(int(steps)):
            r = trig_values(roof, x1, x2, den)
            if change is None:
                acc += r
            else:
                acc += r * (1.0 + tau * trig_values(change, x1, x2, den))
            x1, x2 = (a11 * x1 + a12 * x2) % den, (a21 * x1 + a22 * x2) % den
        out[lo : lo + _KERNEL_BLOCK] = acc
    return out
