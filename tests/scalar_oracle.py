"""One-orbit-at-a-time references for the toral array code.

A character on one homology class, a trig polynomial at one rational point,
and the :class:`~friedzeta.toral.OrbitDump` an orbit dump of a list of
:class:`~friedzeta.toral.OrbitRecord` rows reads back, one attribute read per record.
"""

import math

import numpy as np

from friedzeta.toral import OrbitDump
from friedzeta.trig import TWO_PI


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


def dump_from_records(records):
    """The columns a dump of ``records`` reads back, in list order."""
    def column(name, dtype=np.int64):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    class_exps = np.array([r.class_exps for r in records], dtype=np.int64).reshape(len(records), -1)
    return OrbitDump(*map(column, ("period", "num1", "num2", "den")), column("length", float), column("epsilon"),
                     column("winding"), class_exps)
