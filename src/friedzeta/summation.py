"""Deterministic compensated summation.

Every Euler product ends in one array in a fixed order, reduced by
:func:`block_sum`, whose block structure depends only on the array length:
its (weight group x iterate) terms, with the groups in the row order of the
orbit columns (a period of an orbit table, a run of a dump, a Kleinian row).
Results are therefore bit-stable from run to run.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["block_sum", "BLOCK"]

BLOCK = 1 << 15


def block_sum(a: np.ndarray) -> complex | float:
    """Sum an array block by block in a fixed-shape reduction tree.

    The array is cut into ``BLOCK``-sized pieces, each piece is summed by
    numpy's pairwise reduction, and the partials are combined by
    ``math.fsum`` (real and imaginary parts apart).  The tree shape depends
    only on ``len(a)``.  An array of one block (or none) returns its one
    partial plus 0.0, which is what ``math.fsum`` of it returns: the same
    value, with -0.0 read as 0.0.
    """
    if len(a) <= BLOCK:
        s = a.sum()
        return complex(s.real + 0.0, s.imag + 0.0) if np.iscomplexobj(a) else float(s) + 0.0
    partials = [a[i : i + BLOCK].sum() for i in range(0, len(a), BLOCK)]
    if np.iscomplexobj(a):
        return complex(math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials))
    return math.fsum(partials)
