"""One-orbit-at-a-time references for the toral array code.

A character on one homology class, a trig polynomial at one rational point,
and :class:`~friedzeta.zetas.OrbitColumns` built from a list of
:class:`~friedzeta.toral.OrbitRecord` rows, one attribute read per record.
"""

import math

import numpy as np

from friedzeta.trig import TWO_PI
from friedzeta.zetas import _toral_columns


def character_value(chi, exps, winding: int) -> complex:
    """``chi`` on the class ``(exps, winding)``: the scalar form of ``Character.values``."""
    ang = TWO_PI * sum((e * y) % d / d for e, y, d in zip(chi.fiber_exponents, exps, chi.fiber_orders) if d > 1)
    return chi.circle**winding * complex(math.cos(ang), math.sin(ang))


def trig_value(poly, num1: int, num2: int, den: int) -> float:
    """``poly`` at ``(num1, num2) / den``, one term at a time."""
    v = poly.constant
    for k1, k2, a, b in poly.terms:
        ph = TWO_PI * ((k1 * num1 + k2 * num2) % den) / den
        v += a * math.cos(ph) + b * math.sin(ph)
    return v


def columns_from_records(records, representation=None):
    """The columns of ``records`` in list order, twisted by a ``Character`` (``None`` is trivial).

    A weight group is a run of records with equal transverse data (``nan`` eigenvalues tie), its values read
    from its first record.
    """
    names = ("epsilon", "lam_u", "lam_s", "det_power")
    keys = [tuple(getattr(r, name) for name in names) for r in records]
    starts = [i for i, key in enumerate(keys)
              if not i or any(a != b and not (a != a and b != b) for a, b in zip(key, keys[i - 1]))]
    per_group = (np.array([keys[i][k] for i in starts]) for k in range(len(names)))
    class_exps = np.array([r.class_exps for r in records], dtype=np.int64).reshape(len(records), -1)
    winding, length = (np.array([getattr(r, name) for r in records]) for name in ("winding", "length"))
    return _toral_columns(representation, class_exps, winding, length, np.array(starts, dtype=np.intp), *per_group)
