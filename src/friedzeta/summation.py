"""Deterministic compensated summation.

All orbit sums in the zeta engine accumulate in a fixed sorted order, and
every data-parallel reduction goes through :func:`block_sum`, whose block
structure depends only on the array length.  Results are therefore
bit-stable from run to run.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["neumaier_sum", "kahan_complex_sum", "block_sum", "BLOCK"]

BLOCK = 1 << 15


def neumaier_sum(values) -> float:
    """Compensated (Neumaier) sum of an iterable of floats."""
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def kahan_complex_sum(values) -> complex:
    """Compensated sum of complex terms, real and imaginary parts separately."""
    re = []
    im = []
    for v in values:
        re.append(v.real)
        im.append(v.imag)
    return complex(math.fsum(re), math.fsum(im))


def block_sum(a: np.ndarray) -> complex | float:
    """Sum an array block by block in a fixed-shape reduction tree.

    The array is cut into ``BLOCK``-sized pieces, each piece is summed by
    numpy's pairwise reduction, and the partials are combined with a
    compensated scalar sum.  The tree shape depends only on ``len(a)``.
    """
    n = len(a)
    if n == 0:
        return complex(0.0) if np.iscomplexobj(a) else 0.0
    partials = [a[i : i + BLOCK].sum() for i in range(0, n, BLOCK)]
    if np.iscomplexobj(a):
        return complex(
            math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials)
        )
    return neumaier_sum(partials)
