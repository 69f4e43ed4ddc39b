"""Deterministic compensated summation.

Every Euler product over orbit columns ends in one array in a fixed order,
reduced by :func:`block_sum`, whose block structure depends only on the
array length: its (orbit x iterate) terms, in the row order of the columns;
so do a trace sum, a variation node and a dump's Euler product, over a
table's rows or (orbit, iterate) cells.  Results are therefore bit-stable
from run to run.  Short lists of complex
terms (block partials, products, series terms) go through :func:`fsum_complex`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["block_sum", "fsum_complex", "BLOCK"]

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
    return fsum_complex(partials) if np.iscomplexobj(a) else math.fsum(partials)


def fsum_complex(terms) -> complex:
    """``math.fsum`` of the real and of the imaginary parts of a sequence of complex ``terms``, apart."""
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
