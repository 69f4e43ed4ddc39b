"""Exact metamorphic relations of the Euler products and the cycle expansion.

Each relation changes a suspension in a way that cannot change its zeta,
so the two runs must agree to rounding:

* conjugation: ``A' = P A P^-1`` with roof frequencies ``k -> P^-T k`` maps
  orbits to orbits of the same length and transverse data;
* coboundary: adding ``g o A - g`` to the roof (``g o A`` has frequencies
  ``A^T k``) changes no orbit length;
* reversal: ``A^-1`` runs the same orbits backwards, so its flow zeta at
  twist ``u`` is that of ``A`` at ``u * det(A)^winding``;
* unit of time: the roof ``c r`` at ``lambda / c`` is the roof ``r`` at
  ``lambda`` timed in another unit; for ``c = 2^-k`` every length, the
  entropy and ``lambda * length`` scale exactly, so each product's log, tail
  bound and depth agree bit for bit;
* cyclic cover: the q-fold cover of the suspension of ``(A, r)`` is the
  suspension of ``(A^q, r_q)``, ``r_q = sum_{i<q} r o A^i`` (each roof term
  ``k`` repeated at ``(A^T)^i k``), and ``zeta_cover(u^q)`` is the product of
  ``zeta(u w)`` over ``w^q = 1``.  The cover's m-th trace is the base's
  (qm)-th, and the sum over ``w`` keeps the base terms of ``q | n`` only, so
  the Euler products compare as trace series, the cover's to depth ``M``
  and the base's to ``q M``.

The Euler products are the partial sums of the trace series that
``toral_log_zetas`` takes; each relation keeps the entropy, ``|lam_u|`` and
the certified roof bound, so both sides stop at the same depths.

The examples are small hyperbolic matrices with at most ``MAX_POINTS``
fixed points up to the depth summed.  The length, conjugation and formal
thresholds are the largest differences first measured on a few matrices at
depth 10 to 12.  Two are wider, at about twice the largest relative
difference seen over 900 random examples of these strategies: the
coboundary's cycle expansion (6.9e-15 seen; four matrices gave 5e-15) and
reversal (4.7e-16 seen, 8.3e-17 absolute; a few matrices gave 2e-17
absolute).  The cover's cycle expansions read ``A^(qn)`` and converge to
``tail_tol`` more slowly as ``|lam_u|`` and the roof grow, so they run on
the cat map at q = 2 and ``1 1 1 0`` at q = 2 and 3 under one roof, to
at most about a million fixed points in one period; near ``lambda = 0``
their agreement is bounded by the recursion's rounding, so the grid keeps
away from it.  Drawn roofs
are not used there: one that the first periods' fixed points do not see
(those of ``1 1 1 0`` up to period 3 are halves) leaves the first
coefficients at rounding level, and the decay stop then ends a recursion
at n = 3 before the coefficients that follow (ROADMAP item 15).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from friedzeta import (
    Character,
    ConvergenceError,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    TruncationPolicy,
    continuation,
    cycle_zeta,
    cycle_zetas,
)
from friedzeta.continuation import toral_log_zetas
from friedzeta.toral import orbit_table

MAX_POINTS = 4000  # fixed points of A^n summed over n <= n_max
CONJUGATION_TOL = 5.3e-15  # sorted lengths per period and Ruelle log values
FORMAL_TOL = 1e-10  # graded values and the cycle expansion under conjugation, relative
COBOUNDARY_LENGTH_TOL = 9e-15
COBOUNDARY_CYCLE_TOL = 1.5e-14  # relative
REVERSAL_TOL = 1e-15  # relative
COVER_TOL = 1e-13  # relative, Euler products and cycle expansions
COVER_POINTS = 1_000_000  # fixed points of one cover period, at most, in the cycle expansions

EXAMPLES = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _mul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inverse(m):
    """Integer inverse of a matrix of determinant +-1."""
    d = _det(m)
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def _transpose(m):
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def _apply(m, k):
    return tuple(m[i][0] * k[0] + m[i][1] * k[1] for i in range(2))


def _hyperbolic(m):
    trace, det = m[0][0] + m[1][1], _det(m)
    return det == 1 and abs(trace) > 2 or det == -1 and trace != 0


def _matrices(bound, keep):
    """Every integer matrix with entries in [-bound, bound] that ``keep`` accepts: few enough to list."""
    entries = range(-bound, bound + 1)
    return st.sampled_from([m for m in (((a, b), (c, d)) for a in entries for b in entries for c in entries
                                        for d in entries) if keep(m)])


hyperbolic = _matrices(3, _hyperbolic)
unimodular = _matrices(2, lambda m: abs(_det(m)) == 1)
frequencies = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda k: k != (0, 0))
# (k, cos, sin) terms; two terms of amplitude 0.1 leave the roof above 0.6
terms = st.lists(st.tuples(frequencies, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)), min_size=1, max_size=2)
twists = st.sampled_from([None, 0.3])


def _roof(roof_terms, frequency_map=lambda k: k):
    return TrigPolynomial(1.0, tuple((*frequency_map(k), a, b) for k, a, b in roof_terms))


def _n_max(auto: ToralAutomorphism) -> int:
    """The deepest period up to 8 whose fixed points, summed from period 1, stay within ``MAX_POINTS``."""
    points, n = 0, 0
    while n < 8:
        points += abs((1.0 - auto.lam_u ** (n + 1)) * (1.0 - auto.lam_s ** (n + 1)))
        if points > MAX_POINTS:
            break
        n += 1
    return n


def _character(u_fraction):
    return None if u_fraction is None else Character.from_angle_fraction(u_fraction)


def _cycle_log(model, rep, lam, n_max):
    """The cycle-expansion log zeta, or ``None`` where a determinant vanishes."""
    policy = TruncationPolicy(max_period=n_max, entropy=model.default_entropy())
    try:
        return cycle_zeta(model, rep, lam, policy).log_value
    except ConvergenceError:
        return None


def _euler_lambdas(model):
    h = model.default_entropy()
    return h + 2.0, h + 1.5 + 1.0j


def conjugation_differences(matrix, conjugator, roof_terms, u_fraction):
    """(length, Ruelle, graded and cycle-expansion) differences between ``A`` and ``P A P^-1``."""
    inverse_t = _transpose(_inverse(conjugator))
    a = ToralAutomorphism(matrix)
    b = ToralAutomorphism(_mul(_mul(conjugator, matrix), _inverse(conjugator)))
    models = (SuspensionModel(a, _roof(roof_terms)),
              SuspensionModel(b, _roof(roof_terms, lambda k: _apply(inverse_t, k))))
    n_max, rep = _n_max(a), _character(u_fraction)
    tables = [orbit_table(model, n_max) for model in models]
    lengths = max(float(np.abs(np.sort(tables[0].length0[tables[0].period == n])
                               - np.sort(tables[1].length0[tables[1].period == n])).max(initial=0.0))
                  for n in range(1, n_max + 1))
    policy = TruncationPolicy(max_period=n_max, entropy=models[0].default_entropy())
    ruelle = formal = 0.0
    values = [toral_log_zetas(model, rep, _euler_lambdas(models[0]), policy) for model in models]
    for rows_a, rows_b in zip(*values):
        assert [zv.n_used for zv in rows_a] == [zv.n_used for zv in rows_b]
        ruelle = max(ruelle, abs(rows_a[0].log_value - rows_b[0].log_value))
        for x, y in zip(rows_a[1:], rows_b[1:]):
            formal = max(formal, abs(x.log_value - y.log_value) / max(1.0, abs(x.log_value)))
    for lam in (0.5, 0.3 + 0.7j):
        x, y = (_cycle_log(model, rep, lam, n_max) for model in models)
        assert (x is None) == (y is None)
        if x is not None:
            formal = max(formal, abs(x - y) / max(1.0, abs(x)))
    return lengths, ruelle, formal


def coboundary_differences(matrix, roof_terms, g_terms):
    """(length, cycle-expansion) differences from adding ``g o A - g`` to the roof."""
    auto = ToralAutomorphism(matrix)
    base = _roof(roof_terms)
    g_of_a = tuple((*_apply(_transpose(matrix), k), a, b) for k, a, b in g_terms)
    minus_g = tuple((*k, -a, -b) for k, a, b in g_terms)
    models = (SuspensionModel(auto, base),
              SuspensionModel(auto, TrigPolynomial(base.constant, base.terms + g_of_a + minus_g)))
    n_max = _n_max(auto)
    tables = [orbit_table(model, n_max) for model in models]
    lengths = float(np.abs(tables[0].length0 - tables[1].length0).max())
    x, y = (_cycle_log(model, None, 0.4 + 0.3j, n_max) for model in models)
    assert (x is None) == (y is None)
    cycle = 0.0 if x is None else abs(x - y) / max(1.0, abs(x))
    return lengths, cycle


def reversal_difference(matrix, roof_terms, u_fraction):
    """Relative Ruelle difference between ``A^-1`` at ``u`` and ``A`` at ``u det(A)``."""
    forward, backward = ToralAutomorphism(matrix), ToralAutomorphism(_inverse(matrix))
    u = u_fraction or 0.0
    shift = 0.0 if _det(matrix) == 1 else 0.5  # det(A)^winding = exp(2 pi i * shift * winding)
    n_max = _n_max(forward)
    models = [SuspensionModel(auto, _roof(roof_terms)) for auto in (backward, forward)]
    twists = (Character.from_angle_fraction(u), Character.from_angle_fraction(u + shift))
    policy = TruncationPolicy(max_period=n_max, entropy=models[0].default_entropy())
    values = [toral_log_zetas(model, rep, _euler_lambdas(models[0]), policy) for model, rep in zip(models, twists)]
    worst = 0.0
    for rows_a, rows_b in zip(*values):
        x, y = rows_a[0].log_value, rows_b[0].log_value
        worst = max(worst, abs(x - y) / abs(x))
    return worst


def time_unit_rows(matrix, roof_terms, u_fraction, k):
    """Each Euler product's ``(log, tail, depth)`` over the λ grid, on the roof ``r`` and on ``c r`` at
    ``lambda / c``, ``c = 2^-k``.

    Scaling by a power of two is exact, so the lengths, the entropy and every ``lambda * length`` of the
    second suspension are those of the first in another unit of time, bit for bit.
    """
    c = 2.0 ** -k
    auto, rep, roof = ToralAutomorphism(matrix), _character(u_fraction), _roof(roof_terms)
    scaled = TrigPolynomial(c * roof.constant, tuple((k1, k2, c * a, c * b) for k1, k2, a, b in roof.terms))
    n_max, lams = _n_max(auto), _euler_lambdas(SuspensionModel(auto, roof))
    rows = ([], [])
    for model, unit, out in zip((SuspensionModel(auto, roof), SuspensionModel(auto, scaled)), (1.0, c), rows):
        policy = TruncationPolicy(max_period=n_max, entropy=model.default_entropy())
        for values in toral_log_zetas(model, rep, [lam / unit for lam in lams], policy):
            out += [(v.log_value, v.tail_bound, v.tail_kind, v.n_used) for v in values]
    return rows


def _cover(matrix, roof_terms, q):
    """The q-fold cyclic cover of the suspension of ``(matrix, _roof(roof_terms))``."""
    power, frequencies, cover_terms = ((1, 0), (0, 1)), [k for k, _, _ in roof_terms], []
    for _ in range(q):
        cover_terms += [(*k, a, b) for k, (_, a, b) in zip(frequencies, roof_terms)]
        frequencies = [_apply(_transpose(matrix), k) for k in frequencies]
        power = _mul(power, matrix)
    return SuspensionModel(ToralAutomorphism(power), TrigPolynomial(q * 1.0, tuple(cover_terms)))


def _ruelle_series(model, rep, lam, depth):
    """The Ruelle log as the partial sum of the trace series to ``depth``: ``-(log Z_0 - log Z_1 + log Z_2)``."""
    stream = continuation._TraceStream(model, rep, (lam,), 0.0, depth)
    graded = [continuation._log_series(stream, 0, k, depth)[0] for k in range(3)]
    return -(graded[0] - graded[1] + graded[2])


def cover_euler_difference(matrix, roof_terms, theta, q=2):
    """Relative Ruelle difference between the cover at ``u^q`` and the sum over ``w^q = 1`` of the base at ``u w``.

    The cover's series runs to depth ``M = n_max // q`` and the base's to ``q M``.  At q = 2 the difference is
    relative to the cover's log; at q = 3 to the sum of the base logs' moduli, since three base logs can cancel
    to a cover log far below each of them.
    """
    base, cover = SuspensionModel(ToralAutomorphism(matrix), _roof(roof_terms)), _cover(matrix, roof_terms, q)
    m = _n_max(base.automorphism) // q
    worst = 0.0
    for lam in (3.0, 3.0 + 1.0j):
        x = _ruelle_series(cover, Character.from_angle_fraction(q * theta), lam, m)
        logs = [_ruelle_series(base, Character.from_angle_fraction(theta + w / q), lam, q * m) for w in range(q)]
        worst = max(worst, abs(x - sum(logs)) / (abs(x) if q == 2 else sum(map(abs, logs))))
    return worst


def cover_cycle_differences(matrix, theta, q=2):
    """Relative differences of the cycle-expansion zetas, cover at ``u^q`` against the product of the base's at
    ``u w``, at each λ of the grid."""
    roof_terms = [((1, 0), 0.05, 0.0), ((0, 1), 0.0, 0.04)]
    base, cover = SuspensionModel(ToralAutomorphism(matrix), _roof(roof_terms)), _cover(matrix, roof_terms, q)
    depth = 1  # cover periods up to COVER_POINTS fixed points, the base to q times that period
    while abs(cover.automorphism.lam_u) ** (depth + 1) < COVER_POINTS:
        depth += 1
    lams = (0.5, 1.0, 0.5 + 2.0j)
    policy = TruncationPolicy(max_period=depth, tail_tol=1e-13)
    covered = cycle_zetas(cover, Character.from_angle_fraction(q * theta), lams, policy)
    factors = [cycle_zetas(base, Character.from_angle_fraction(theta + w / q), lams,
                           TruncationPolicy(max_period=q * depth, tail_tol=1e-13)) for w in range(q)]
    return [abs(z.value - math.prod(f[i].value for f in factors)) / abs(z.value) for i, z in enumerate(covered)]


@EXAMPLES
@given(hyperbolic, unimodular, terms, twists)
def test_conjugation(matrix, conjugator, roof_terms, u_fraction):
    lengths, ruelle, formal = conjugation_differences(matrix, conjugator, roof_terms, u_fraction)
    assert lengths <= CONJUGATION_TOL
    assert ruelle <= CONJUGATION_TOL
    assert formal <= FORMAL_TOL


@EXAMPLES
@given(hyperbolic, terms, terms.map(lambda ts: [(k, a / 2, b / 2) for k, a, b in ts]))
def test_coboundary(matrix, roof_terms, g_terms):
    lengths, cycle = coboundary_differences(matrix, roof_terms, g_terms)
    assert lengths <= COBOUNDARY_LENGTH_TOL
    assert cycle <= COBOUNDARY_CYCLE_TOL


@EXAMPLES
@given(hyperbolic, terms, twists)
def test_reversal(matrix, roof_terms, u_fraction):
    assert reversal_difference(matrix, roof_terms, u_fraction) <= REVERSAL_TOL


def test_reversal_needs_the_orientation_twist():
    # for det A = -1 the plain identity, without det(A)^winding, fails: the products carry the orientation index
    matrix = ((0, 1), (1, 3))
    models = [SuspensionModel(ToralAutomorphism(m), TrigPolynomial.const(1.0)) for m in (_inverse(matrix), matrix)]
    policy = TruncationPolicy(max_period=6, entropy=models[0].default_entropy())
    lam = policy.entropy + 0.5
    plain = [toral_log_zetas(model, None, [lam], policy)[0][0].log_value for model in models]
    assert abs(plain[0] - plain[1]) > 1e-3
    assert reversal_difference(matrix, [((1, 0), 0.05, 0.0)], None) <= REVERSAL_TOL


@EXAMPLES
@given(hyperbolic, terms, twists, st.integers(1, 8))
def test_unit_of_time(matrix, roof_terms, u_fraction, k):
    plain, scaled = time_unit_rows(matrix, roof_terms, u_fraction, k)
    assert repr(plain) == repr(scaled)


@pytest.mark.parametrize("q", [2, 3])
@EXAMPLES
@given(matrix=hyperbolic, roof_terms=terms, theta=st.floats(0.0, 1.0))
def test_cyclic_cover_euler_products(q, matrix, roof_terms, theta):
    assume(_n_max(ToralAutomorphism(matrix)) // q > 0)
    assert cover_euler_difference(matrix, roof_terms, theta, q) <= COVER_TOL


# (matrix, q): at q = 3 on 1 1 1 0 (det -1) both streams start with a union pass, the cover's over its periods 1-5
# and the base's over its periods 1-16
@pytest.mark.parametrize("matrix, q", [(((2, 1), (1, 1)), 2), (((1, 1), (1, 0)), 2), (((1, 1), (1, 0)), 3)],
                         ids=["2 1 1 1, q=2", "1 1 1 0, q=2", "1 1 1 0, q=3"])
@settings(max_examples=10, deadline=None)
@given(theta=st.floats(0.0, 1.0))
def test_cyclic_cover_cycle_expansions(matrix, q, theta):
    assert max(cover_cycle_differences(matrix, theta, q)) <= COVER_TOL
