"""The whole-table cycle expansion the lazy trace stream replaced, kept as its reference.

Every trace sum ``S_1..S_n_max`` is computed from the orbit table up to
``n_max`` before the recursion reads any of them, and each determinant
builds all ``n_max`` traces; the recursion and its stop are those of
:mod:`friedzeta.continuation`.  :func:`linear_series_depths` is the scan
over every depth that the series-depth bisection replaced.
"""

import cmath
import math

import numpy as np

from friedzeta.continuation import (
    CycleZeta,
    DynamicalDeterminant,
    _certified_tail,
    _fiber_order,
    _out_of_range,
    check_resonance_at_zero,
)
from friedzeta.summation import block_sum
from friedzeta.toral import orbit_table


def wedge_trace_power(auto, k: int, m: int) -> int:
    """Exact ``Tr(wedge^k A^m)`` for k in {0, 1, 2}."""
    if k == 0:
        return 1
    if k == 1:
        am = auto.power(m)
        return am[0][0] + am[1][1]
    if k == 2:
        return auto.det**m
    raise ValueError("k must be 0, 1 or 2 for a 2-torus base")


@np.errstate(over="ignore", invalid="ignore")
def eager_trace_sums(model, representation, lam, n_max, tau=0.0):
    """``(S_m, |det(A^m - I)|)`` for m = 1..n_max, all at once."""
    model.require_tau(tau)
    lam = complex(lam)
    auto = model.automorphism
    fiber_trivial = representation is None or representation.fiber_is_trivial
    const_roof = model.roof.is_constant and (
        tau == 0.0 or model.time_change is None or model.time_change.is_constant
    )
    if not (fiber_trivial and (lam == 0 or const_roof)):
        table = orbit_table(model, n_max)
        lengths = table.lengths(tau)
    s_values, counts = [], []
    for m in range(1, n_max + 1):
        count = abs(auto.det_one_minus_power(m))
        counts.append(count)
        if fiber_trivial and lam == 0:
            s_values.append(complex(count))
            continue
        if fiber_trivial and const_roof:
            r0 = model.roof.constant
            if tau != 0.0 and model.time_change is not None:
                r0 *= 1.0 + tau * model.time_change.constant
            try:
                s_values.append(count * cmath.exp(-lam * r0 * m))
            except (OverflowError, ValueError):
                raise _out_of_range(lam) from None
            continue
        parts = []
        for p in (p for p in range(1, m + 1) if m % p == 0):
            rows = table.period_slice(p)
            weights = np.exp((-lam * (m // p)) * lengths[rows])
            if not fiber_trivial:
                weights = weights * representation.fiber_values((m // p) * table.class_exps[rows])
            parts.append(p * weights)
        s_values.append(complex(block_sum(np.concatenate(parts))))
    if not all(cmath.isfinite(s) for s in s_values):
        raise _out_of_range(lam)
    return s_values, counts


def eager_recursion(traces, tail_tol, n_max, window):
    coeffs = [1.0 + 0.0j]
    warnings = []
    reliable = True
    for n in range(1, n_max + 1):
        parts_re = []
        parts_im = []
        for m in range(1, n + 1):
            prod = traces[m - 1] * coeffs[n - m]
            parts_re.append(prod.real)
            parts_im.append(prod.imag)
        c = -complex(math.fsum(parts_re), math.fsum(parts_im)) / n
        coeffs.append(c)
        if n >= 4 and abs(coeffs[n]) > abs(coeffs[n - 1]) >= tail_tol:
            reliable = False
        if n >= 3 and (c == 0 or all(abs(x) < tail_tol for x in coeffs[-window:])):
            break
    if not reliable:
        warnings.append("continuation unreliable: coefficient decay is not monotone past n=4")
    tail = 0.0 if coeffs[-1] == 0 else max(abs(x) for x in coeffs[-window:])
    return coeffs, tail, reliable, warnings


def eager_determinant(model, representation, k, lam, n_max, sums, tail_tol=1e-12):
    """The degree-``k`` determinant from the precomputed ``sums`` of :func:`eager_trace_sums`."""
    auto = model.automorphism
    s_values, counts = sums
    traces = [wedge_trace_power(auto, k, m) * (s_values[m - 1] / counts[m - 1]) for m in range(1, n_max + 1)]
    u = 1.0 + 0.0j if representation is None else complex(representation.circle)
    window = max(2, _fiber_order(representation))
    try:
        coeffs, tail, reliable, warnings = eager_recursion(traces, tail_tol, n_max, window)
        u_pow = 1.0 + 0.0j
        re_parts = []
        im_parts = []
        for c in coeffs:
            term = u_pow * c
            re_parts.append(term.real)
            im_parts.append(term.imag)
            u_pow *= u
        value = complex(math.fsum(re_parts), math.fsum(im_parts))
    except (OverflowError, ValueError):
        raise _out_of_range(lam) from None
    if not cmath.isfinite(value):
        raise _out_of_range(lam)
    return DynamicalDeterminant(k, complex(lam), u, tuple(traces), tuple(coeffs), value, len(coeffs) - 1,
                                reliable, tail, tuple(warnings))


def eager_cycle_zeta(model, representation, lam, policy, tau=0.0):
    """``d_1 / (d_0 d_2)`` with every determinant read off one whole set of trace sums."""
    sums = eager_trace_sums(model, representation, lam, policy.max_period, tau)
    dets = tuple(eager_determinant(model, representation, k, lam, policy.max_period, sums, policy.tail_tol)
                 for k in range(3))
    check_resonance_at_zero(dets)
    value = dets[1].value / (dets[0].value * dets[2].value)
    return CycleZeta(value, abs(value), dets, all(d.reliable for d in dets))


def linear_series_depths(rate, log_lam_u, policy):
    """``continuation._series_depths`` by a scan of the certified tail at every depth up to ``policy.max_period``."""
    if rate <= log_lam_u:
        return [(policy.max_period, None)] * 3
    plan = []
    for k in range(3):
        for depth in range(1, policy.max_period + 1):
            tail = _certified_tail(k, rate, log_lam_u, depth)
            if tail <= policy.tail_tol:
                break
        plan.append((depth, tail))
    return plan
