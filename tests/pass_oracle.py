"""The flat-index period pass the per-axis pass replaced, kept as its reference.

Every point's successor, coordinates and roof phases come from its flat
index ``i * d2 + j`` through int64 ``divmod`` and ``%``, and the roof is
evaluated by :func:`roof_values`, one cos or sin per point per term, written
here from the polynomial's terms rather than shared with the package.
"""

import math

import numpy as np

from friedzeta.toral import _det, _fixed_point_lattice, _mat_mul

PASS_BLOCK = 1 << 16


def index_blocks(d1: int, d2: int):
    """``(lo, i, j)`` over blocks of the flat index ``i * d2 + j`` of ``Z_d1 x Z_d2``."""
    count = d1 * d2
    for lo in range(0, count, PASS_BLOCK):
        k = np.arange(lo, min(lo + PASS_BLOCK, count), dtype=np.int64)
        yield (lo, *np.divmod(k, d2)) if d1 > 1 else (lo, 0, k)


def roof_values(poly, x1, x2, den: int):
    """``poly`` at the points ``(x1, x2) / den``, terms added in order; a zero amplitude skips its cos or sin."""
    value = np.full(len(x1), float(poly.constant))
    for k1, k2, a, b in poly.terms:
        phase = (2.0 * math.pi / den) * ((k1 * x1 + k2 * x2) % den)
        if b == 0.0:
            value += a * np.cos(phase)
        elif a == 0.0:
            value += b * np.sin(phase)
        else:
            value += a * np.cos(phase) + b * np.sin(phase)
    return value


def flat_period_pass(auto, n: int, roof=None, time_change=None):
    """``(num1, num2, den, length, slope)`` of the primitive orbits of least period ``n``."""
    d1, d2, v = _fixed_point_lattice(auto, n)
    count, stride = d1 * d2, d2 // d1
    det_v = _det(v)
    v_inv = ((det_v * v[1][1], -det_v * v[0][1]), (-det_v * v[1][0], det_v * v[0][0]))
    (b11, b12), (b21, b22) = _mat_mul(_mat_mul(v_inv, auto.matrix), v)
    b11, b12, b21, b22 = b11 % d1, b12 % d2 // stride, b21 * stride % d2, b22 % d2
    succ = np.empty(count, dtype=np.int32)
    for lo, i, j in index_blocks(d1, d2):
        nxt = (b21 * i + b22 * j) % d2
        if d1 > 1:
            nxt += (b11 * i + b12 * j) % d1 * d2
        succ[lo : lo + len(j)] = nxt
    label = np.arange(count, dtype=np.int32)
    rounds = (n - 1).bit_length()
    for r in range(rounds):
        np.minimum(label, label[succ], out=label)
        if r + 1 < rounds:
            succ = succ[succ]
    del succ
    heads = np.flatnonzero(np.bincount(label, minlength=count) == n)
    row = np.full(count, len(heads), dtype=np.int32)
    row[heads] = np.arange(len(heads), dtype=np.int32)
    row = row[label]
    del label
    key = np.full(len(heads) + 1, np.iinfo(np.int64).max)
    length, slope = np.zeros(len(heads) + 1), np.zeros(len(heads) + 1)
    v11, v12, v21, v22 = v[0][0] * stride % d2, v[0][1] % d2, v[1][0] * stride % d2, v[1][1] % d2
    for lo, i, j in index_blocks(d1, d2):
        x1, x2 = (v11 * i + v12 * j) % d2, (v21 * i + v22 * j) % d2
        rows = row[lo : lo + len(j)]
        np.minimum.at(key, rows, x1 * d2 + x2)
        if roof is not None:
            r = roof_values(roof, x1, x2, d2)
            np.add.at(length, rows, r)
            if time_change is not None:
                np.add.at(slope, rows, r * roof_values(time_change, x1, x2, d2))
    order = np.argsort(key[:-1])
    key = key[order]
    return key // d2, key % d2, d2, length[order], slope[order]
