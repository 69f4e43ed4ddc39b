import cmath
import math
import tracemalloc
from decimal import Decimal, localcontext

import pytest

from friedzeta import (
    Character,
    ResonanceAtZeroError,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    TruncationPolicy,
    cycle_zeta,
    cycle_zetas,
    dynamical_determinant,
    orbit_records,
    zeta_at_zero,
)
from friedzeta._kernels import birkhoff_sums
from friedzeta import toral
from friedzeta.continuation import _TraceStream, toral_log_zetas, trace_sums
from friedzeta.errors import CapacityError, ConvergenceError, FriedzetaError

from continuation_oracle import eager_cycle_zeta, eager_trace_sums
import euler_oracle
from scalar_oracle import character_value
from test_toral import TABLE_CASES, TABLE_CHANGE, TABLE_ROOF


@pytest.fixture
def rep_i(cat):
    return Character.from_angle_fraction(0.25, cat.coker_orders, (0, 0))


class TestTraceSums:
    def test_lambda_zero_counts(self, cat_model, rep_minus):
        s, counts = trace_sums(cat_model, rep_minus, 0.0, 6)
        for sm, nm, m in zip(s, counts, range(1, 7)):
            assert sm == complex(nm)
            assert nm == abs(cat_model.automorphism.det_one_minus_power(m))

    def test_constant_roof_fast_path_matches_kernel_path(self, cat, rep_minus):
        # a trig term with zero amplitude is mathematically the constant roof
        # but forces the enumeration + kernel route
        fast = SuspensionModel(cat, TrigPolynomial.const(1.0))
        slow = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.0, 0.0),)))
        lam = 1.3 + 0.4j
        s_fast, _ = trace_sums(fast, rep_minus, lam, 8)
        s_slow, _ = trace_sums(slow, rep_minus, lam, 8)
        for a, b in zip(s_fast, s_slow):
            assert a == pytest.approx(b, rel=1e-12)

    def test_fiber_character_sums(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        model = SuspensionModel(a, TrigPolynomial.const(1.0))
        orders = a.coker_orders
        chi = Character(1.0 + 0.0j, orders, tuple(1 if d == 2 else 0 for d in orders))
        s, counts = trace_sums(model, chi, 0.0, 5)
        # oracle: sum the character over fixed points directly
        from friedzeta import fixed_points
        from friedzeta.toral import homology_class

        for m in range(1, 6):
            pts = fixed_points(a, m)
            oracle = sum(
                character_value(chi, *homology_class(a, (int(p), int(q)), pts.den, m))
                for p, q in zip(pts.num1, pts.num2)
            )
            assert s[m - 1] == pytest.approx(oracle, abs=1e-9)

        # complex lambda and a non-constant roof: the per-fixed-point sum of
        # exp(-lambda * Birkhoff sum) * holonomy is the oracle.  The odd-m sums
        # cancel to rounding noise, so agreement is relative to sum |terms|.
        roofed = SuspensionModel(a, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (1, 1, 0.0, 0.03))))
        lam = 1.3 + 0.4j
        s, _ = trace_sums(roofed, chi, lam, 6)
        for m in range(1, 7):
            pts = fixed_points(a, m)
            lengths = birkhoff_sums(pts.num1, pts.num2, pts.den, a.matrix, m, roofed.roof)
            terms = [
                cmath.exp(-lam * ell) * character_value(chi, *homology_class(a, (int(p), int(q)), pts.den, m))
                for p, q, ell in zip(pts.num1, pts.num2, lengths)
            ]
            assert abs(s[m - 1] - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


# Constant-roof models: (matrix, roof constant, time-change constant, tau), so r_bar = r0 (1 + tau g0)
CONSTANT_ROOFS = [(((2, 1), (1, 1)), 1.0, None, 0.0), (((1, 1), (1, 0)), 1.0, None, 0.0),
                  (((3, 2), (1, 1)), 1.0, None, 0.0), (((2, 1), (1, 1)), 1.3, 0.2, 0.3),
                  (((3, 2), (1, 1)), 0.8, -0.5, 0.4)]


def _constant_roof(matrix, r0, g0, tau):
    """The model and its effective roof ``r_bar``."""
    model = SuspensionModel(ToralAutomorphism(matrix), TrigPolynomial.const(r0),
                            None if g0 is None else TrigPolynomial.const(g0))
    return model, r0 * (1.0 + tau * g0) if g0 is not None and tau else r0


def _log_det(auto, k, z):
    """``log det(I - z wedge^k A)`` as the sum of ``log(1 - z mu)`` over the eigenvalues ``mu`` of ``wedge^k A``, the
    branch the trace series takes, each term accurate to rounding where ``z mu`` is small."""
    logs = (complex(0.5 * math.log1p(abs(w) ** 2 - 2.0 * w.real), math.atan2(-w.imag, 1.0 - w.real))
            for w in (z * mu for mu in ((1.0,), (auto.lam_u, auto.lam_s), (float(auto.det),))[k]))
    return sum(logs)


class TestConstantRoofClosedForm:
    """With a constant effective roof ``r_bar`` and a trivial fiber, ``S_m = |det(A^m - I)| e^(-lam r_bar m)`` and
    ``log Z_k(lam) = log det(I - u e^(-lam r_bar) wedge^k A)``, each read without the orbit table."""

    @pytest.mark.parametrize("case", CONSTANT_ROOFS, ids=str)
    @pytest.mark.parametrize("u_fraction", [0.0, 0.3])
    def test_euler_rows_lie_within_their_tails(self, case, u_fraction):
        # near the entropy the cat map's depth passes m = 738, where |det(A^m - I)| leaves the float range
        model, r_bar = _constant_roof(*case)
        tau, auto, rep = case[3], model.automorphism, Character.from_angle_fraction(u_fraction)
        h = model.default_entropy(tau)
        policy = TruncationPolicy(max_period=5000, entropy=h)
        lams = [h + 0.03, h + 3.0, complex(h + 0.5, 2.0)]
        for lam, (ruelle, *graded) in zip(lams, toral_log_zetas(model, rep, lams, policy, tau)):
            z = rep.circle * cmath.exp(-lam * r_bar)
            want = [_log_det(auto, k, z) for k in range(3)]
            for k, (zv, log_z) in enumerate(zip(graded, want)):
                assert zv.tail_kind == "certified" and abs(zv.log_value - log_z) <= zv.tail_bound, (lam, k)
            assert abs(ruelle.log_value + want[0] - want[1] + want[2]) <= ruelle.tail_bound
            if lam == lams[0] and case[:2] == (((2, 1), (1, 1)), 1.0):
                assert ruelle.n_used > 738

    @pytest.mark.parametrize("case", CONSTANT_ROOFS, ids=str)
    @pytest.mark.parametrize("u_fraction", [0.0, 0.3])
    def test_determinants_are_the_characteristic_polynomials(self, case, u_fraction):
        model, r_bar = _constant_roof(*case)
        tau, (a, b), (c, d) = case[3], *model.automorphism.matrix
        rep = Character.from_angle_fraction(u_fraction)
        lams = [0.5, 2.0, 1.0 + 1.0j]
        for lam, zeta in zip(lams, cycle_zetas(model, rep, lams, TruncationPolicy(max_period=30), tau)):
            z = rep.circle * cmath.exp(-lam * r_bar)
            want = (1 - z, 1 - z * (a + d) + z * z * (a * d - b * c), 1 - z * (a * d - b * c))
            for got, det in zip(zeta.d_values, want):
                assert abs(got - det) <= 1e-12 * abs(det), (lam, got, det)

    @pytest.mark.parametrize("case", CONSTANT_ROOFS, ids=str)
    def test_trace_sums_are_the_weighted_counts(self, case):
        model, r_bar = _constant_roof(*case)
        tau, auto = case[3], model.automorphism
        for lam in (0.0, 1.7, 0.9 - 2.5j):
            sums, counts = trace_sums(model, None, lam, 40, tau)
            assert counts == [abs(auto.det_one_minus_power(m)) for m in range(1, 41)]
            for m, (s, count) in enumerate(zip(sums, counts), start=1):
                assert abs(s - count * cmath.exp(-lam * r_bar * m)) <= 1e-13 * abs(s), (lam, m)

    def test_trace_sums_past_the_float_range_of_the_counts(self):
        # from m = 738 on, the cat map's |det(A^m - I)| exceeds the largest float; S_m = count e^(-lam m) does not
        model, lam = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial.const(1.0)), 0.99
        sums, counts = trace_sums(model, None, lam, 900)
        assert float(counts[736]) < math.inf and counts[737] > 2**1024
        with localcontext() as context:
            context.prec = 40
            for m in range(700, 901):
                want = Decimal(counts[m - 1]) * (-Decimal(lam) * m).exp()
                assert abs(sums[m - 1] - float(want)) <= 1e-12 * float(want), m


class TestDeterminants:
    def test_d0_closed_form(self, cat_model, rep_minus):
        for lam in (0.0, 0.9, 2.0 + 1.0j):
            d = dynamical_determinant(cat_model, rep_minus, 0, lam, 12)
            expected = 1 - rep_minus.circle * cmath.exp(-lam)
            assert d.value == pytest.approx(expected, rel=1e-13)
            assert all(abs(c) < 1e-13 for c in d.coefficients[2:])

    def test_d1_closed_form(self, cat, cat_model, rep_minus):
        for lam in (0.0, 1.5):
            d = dynamical_determinant(cat_model, rep_minus, 1, lam, 14)
            z = rep_minus.circle * cmath.exp(-lam)
            expected = (1 - z * cat.lam_u) * (1 - z * cat.lam_s)
            assert d.value == pytest.approx(expected, rel=1e-12)
            assert all(abs(c) < 1e-12 for c in d.coefficients[3:])

    def test_d0_trivial_rep_vanishes_at_zero(self, cat_model):
        d = dynamical_determinant(cat_model, None, 0, 0.0, 10)
        assert d.value == 0

    def test_exact_telescoping_at_zero(self, cat_model, rep_minus):
        d = dynamical_determinant(cat_model, rep_minus, 1, 0.0, 14)
        assert all(c == 0 for c in d.coefficients[3:])
        assert d.reliable

    def test_fiber_twist_does_not_stop_on_one_small_coefficient(self):
        # under an order-2 fiber character the odd coefficients of d_1 vanish by symmetry: c_3 is
        # rounding noise while c_4 is 4.9e-7, so a stop at the first small coefficient drops c_4
        a = ToralAutomorphism(((3, 2), (1, 1)))
        model = SuspensionModel(a, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0),)))
        chi = Character.from_angle_fraction(0.5, a.coker_orders, (0, 1))
        lam = 0.7 + 0.4j
        z = cycle_zeta(model, chi, lam, TruncationPolicy(max_period=12))
        exact = cycle_zeta(model, chi, lam, TruncationPolicy(max_period=12, tail_tol=1e-30))
        assert abs(cmath.log(z.value) - cmath.log(exact.value)) < 1e-13
        assert z.reliable
        d1 = z.determinants[1]
        assert d1.n_used > 4 and abs(d1.coefficients[4]) > 1e-7
        # the bound is the largest of the last two coefficients, both below the tolerance
        assert d1.tail_bound == max(abs(c) for c in d1.coefficients[-2:]) < 1e-12
        assert z.tail_bound == max(d.tail_bound for d in z.determinants)

    def test_recursion_invariant(self, perturbed_model, rep_minus):
        d = dynamical_determinant(perturbed_model, rep_minus, 1, 1.2, 10, tail_tol=1e-30)
        t, c = d.traces, d.coefficients
        for n in range(1, len(c)):
            acc = sum(t[m - 1] * c[n - m] for m in range(1, n + 1))
            assert c[n] == pytest.approx(-acc / n, rel=1e-12, abs=1e-15)


class TestZetaAtZero:
    def test_exact_value_u_minus_one(self, cat_model, rep_minus, policy14):
        z = zeta_at_zero(cat_model, rep_minus, policy14)
        assert z.modulus == pytest.approx(1.25, abs=1e-12)
        assert z.reliable

    def test_u_i_closed_form(self, cat_model, rep_i, policy14):
        z = zeta_at_zero(cat_model, rep_i, policy14)
        assert z.modulus == pytest.approx(1.5, abs=1e-12)

    def test_trivial_rep_resonance(self, cat_model, policy14):
        with pytest.raises(ResonanceAtZeroError):
            zeta_at_zero(cat_model, None, policy14)

    def test_perturbed_roof_same_value(self, perturbed_model, rep_minus):
        pol = TruncationPolicy(max_period=14, entropy=perturbed_model.default_entropy())
        z = zeta_at_zero(perturbed_model, rep_minus, pol)
        assert z.modulus == pytest.approx(1.25, abs=1e-10)

    def test_continued_zeta_tends_to_value_at_zero(self, cat, rep_minus):
        # a non-constant roof and time change at tau != 0: away from 0 the
        # trace sums read the orbit-table lengths, and (zeta(lam) - zeta(0)) / lam
        # converges to a nonzero derivative (a constant roof has none here)
        model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.04))),
                                TrigPolynomial(0.1, ((1, 1, 0.04, 0.03),)))
        tau, n_max = 0.1, 14
        pol = TruncationPolicy(max_period=n_max, entropy=model.default_entropy(tau))
        z0 = zeta_at_zero(model, rep_minus, pol, tau).value

        def quotient(r):
            lam = r * cmath.exp(0.7j)
            return (cycle_zeta(model, rep_minus, lam, pol, tau).value - z0) / lam

        q = [quotient(r) for r in (1e-2, 1e-3, 1e-4, 1e-5)]
        steps = [abs(b - a) for a, b in zip(q, q[1:])]
        assert all(b < 0.2 * a for a, b in zip(steps, steps[1:]))
        assert steps[-1] < 1e-4 * abs(q[-1])
        assert abs(q[-1]) > 1e-2

    def test_is_cycle_zeta_at_zero(self):
        # a fiber twist and a time change at tau != 0, so the trace sums read the orbit table
        a = ToralAutomorphism(((3, 2), (1, 1)))
        model = SuspensionModel(a, TrigPolynomial.cosine((1, 0), 0.05, constant=1.0),
                                TrigPolynomial.cosine((0, 1), 0.04))
        chi = Character.from_angle_fraction(0.3, a.coker_orders, tuple(1 if d == 2 else 0 for d in a.coker_orders))
        pol = TruncationPolicy(max_period=10, entropy=model.default_entropy(0.1))
        assert zeta_at_zero(model, chi, pol, 0.1) == cycle_zeta(model, chi, 0.0, pol, 0.1)


class TestContinuationProductAgreement:
    def test_matches_euler_product(self, perturbed_model, rep_minus):
        h = perturbed_model.default_entropy()
        lam = h + 2.0
        pol = TruncationPolicy(max_period=14, j_max=60, entropy=h)
        records = orbit_records(perturbed_model, 14)
        euler, _ = euler_oracle.ruelle(euler_oracle.records_columns(records, rep_minus), lam, pol)
        product = cycle_zeta(perturbed_model, rep_minus, lam, pol).value
        assert abs(product - cmath.exp(euler.log_value)) <= euler.tail_bound

    def test_coefficient_decay_super_exponential(self, cat):
        # magnitudes decrease strictly past n=4 (above the noise floor) and
        # faster than the geometric rate extrapolated from the first drop;
        # the per-step ratios themselves wobble with parity, see the decay
        # diagnostics, which track magnitudes
        model = SuspensionModel(cat, TrigPolynomial.cosine((1, 0), 0.1, constant=1.0))
        d = dynamical_determinant(model, Character.from_angle_fraction(0.5), 1, 1.0, 12,
                                  tail_tol=1e-300)
        mags = [abs(c) for c in d.coefficients]
        usable = [m for m in mags[4:] if m > 1e-15]
        assert all(b < a for a, b in zip(usable, usable[1:]))
        geometric = usable[0] * (usable[1] / usable[0]) ** (len(usable) - 1)
        assert usable[-1] < geometric
        # with the default tolerance the recursion stops above the noise
        # floor and the magnitude decay diagnostic stays clean
        d_default = dynamical_determinant(model, Character.from_angle_fraction(0.5), 1, 1.0, 12)
        assert d_default.reliable


ORACLE_LAMBDAS = (0.0, 0.3, 2.0, 0.5 + 2.0j, -0.3)
TWISTS = {  # the character of a base map from its coker(A - I) orders
    "untwisted": lambda orders: None,
    "circle twist": lambda orders: Character.from_angle_fraction(0.3, orders, (0, 0)),
    "circle and fiber twist": lambda orders: Character.from_angle_fraction(
        0.3, orders, tuple(1 if d > 1 else 0 for d in orders)),
}


def _outcome(zeta):
    """The zeta, or ``(error type, message)`` where it raises."""
    try:
        return zeta()
    except FriedzetaError as exc:
        return type(exc), str(exc)


class TestLazyTracesMatchWholeTable:
    """Traces pulled as the recursion reads them give the whole-table expansion bit for bit."""

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-30])
    @pytest.mark.parametrize("twist", TWISTS.values(), ids=TWISTS.keys())
    @pytest.mark.parametrize("matrix, n_max", TABLE_CASES,
                             ids=[f"{' '.join(str(a) for row in m for a in row)} to {n}" for m, n in TABLE_CASES])
    def test_cycle_zeta_matches_oracle(self, matrix, n_max, twist, tail_tol):
        auto = ToralAutomorphism(matrix)
        model = SuspensionModel(auto, TABLE_ROOF, TABLE_CHANGE)
        rep, tau = twist(auto.coker_orders), 0.1
        policy = TruncationPolicy(max_period=n_max, tail_tol=tail_tol)
        for lam in ORACLE_LAMBDAS:
            got = _outcome(lambda: cycle_zeta(model, rep, lam, policy, tau))
            want = _outcome(lambda: eager_cycle_zeta(model, rep, lam, policy, tau))
            if isinstance(want, tuple):
                assert got == want
                continue
            assert repr((got.d_values, got.tail_bound, got.reliable)) == \
                repr((want.d_values, want.tail_bound, want.reliable))
            for d, e in zip(got.determinants, want.determinants):
                assert repr(d.coefficients) == repr(e.coefficients)
                assert repr((d.value, d.tail_bound, d.reliable, d.warnings, d.n_used)) == \
                    repr((e.value, e.tail_bound, e.reliable, e.warnings, e.n_used))
                assert repr(d.traces) == repr(e.traces[: d.n_used])

    @pytest.mark.parametrize("matrix, n_max", TABLE_CASES,
                             ids=[f"{' '.join(str(a) for row in m for a in row)} to {n}" for m, n in TABLE_CASES])
    def test_stream_grows_the_whole_table(self, matrix, n_max, period_passes):
        # the stream's first growth builds the small periods up to n_max in one union pass (1-16 for 1 1 1 0),
        # then each deeper period it reads in a pass of its own; the table it grows is the whole-table build
        auto = ToralAutomorphism(matrix)
        model = SuspensionModel(auto, TABLE_ROOF, TABLE_CHANGE)
        toral._deepest_table.cache_clear()  # other tests build tables of this model
        policy = TruncationPolicy(max_period=n_max, tail_tol=1e-30)
        (z,) = cycle_zetas(model, TWISTS["circle and fiber twist"](auto.coker_orders), [0.5], policy, 0.1)
        small = toral._small_depth(auto, n_max)
        depth = max(small, *(d.n_used for d in z.determinants))
        assert small > 1 and period_passes[0] == ("union", list(range(1, small + 1)))
        assert period_passes[1:] == [("period", n) for n in range(small + 1, depth + 1)]
        grown, fresh = toral.orbit_table(model, depth), toral._build_table(model, depth)
        for name in ("period", "num1", "num2", "den", "length0", "slope", "class_exps"):
            assert getattr(grown, name).tobytes() == getattr(fresh, name).tobytes()

    def test_trace_sums_match_oracle(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        model = SuspensionModel(a, TABLE_ROOF, TABLE_CHANGE)
        chi = TWISTS["circle and fiber twist"](a.coker_orders)
        for lam in ORACLE_LAMBDAS:
            assert repr(trace_sums(model, chi, lam, 8, 0.1)) == repr(eager_trace_sums(model, chi, lam, 8, 0.1))


def _assert_same_bits(got, want):
    """Two cycle zetas agree bit for bit, determinant by determinant."""
    assert repr((got.d_values, got.tail_bound, got.reliable)) == repr((want.d_values, want.tail_bound, want.reliable))
    for d, e in zip(got.determinants, want.determinants):
        assert repr((d.coefficients, d.value, d.tail_bound, d.reliable, d.warnings, d.n_used)) == \
            repr((e.coefficients, e.value, e.tail_bound, e.reliable, e.warnings, e.n_used))
        assert repr(d.traces) == repr(e.traces[: d.n_used])


def _loop_outcome(model, rep, lams, policy, tau=0.0):
    """The whole-table zeta at each lambda in turn, or the error of the first that raises."""
    zetas = []
    for lam in lams:
        zeta = _outcome(lambda: eager_cycle_zeta(model, rep, lam, policy, tau))
        if isinstance(zeta, tuple):
            return zeta
        zetas.append(zeta)
    return zetas


def _assert_grid_is_loop(model, rep, lams, policy, tau=0.0):
    got = _outcome(lambda: cycle_zetas(model, rep, lams, policy, tau))
    want = _loop_outcome(model, rep, lams, policy, tau)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for z, w in zip(got, want):
        _assert_same_bits(z, w)


class TestLambdaGrid:
    """One stream of trace sums over a lambda grid gives, bit for bit, the whole-table expansion at each lambda."""

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-30])
    @pytest.mark.parametrize("twist", TWISTS.values(), ids=TWISTS.keys())
    @pytest.mark.parametrize("matrix, n_max", TABLE_CASES,
                             ids=[f"{' '.join(str(a) for row in m for a in row)} to {n}" for m, n in TABLE_CASES])
    def test_grid_matches_oracle_per_lambda(self, matrix, n_max, twist, tail_tol):
        auto = ToralAutomorphism(matrix)
        model = SuspensionModel(auto, TABLE_ROOF, TABLE_CHANGE)
        rep, policy = twist(auto.coker_orders), TruncationPolicy(max_period=n_max, tail_tol=tail_tol)
        _assert_grid_is_loop(model, rep, ORACLE_LAMBDAS, policy, 0.1)
        # without the lambdas that raise (lambda = 0 untwisted is the resonance), every value is compared
        fine = [lam for lam in ORACLE_LAMBDAS if not isinstance(_loop_outcome(model, rep, [lam], policy, 0.1), tuple)]
        assert len(fine) >= len(ORACLE_LAMBDAS) - 1
        _assert_grid_is_loop(model, rep, fine, policy, 0.1)

    def test_grid_of_one_is_cycle_zeta(self, perturbed_model, rep_minus):
        policy = TruncationPolicy(max_period=10)
        (z,) = cycle_zetas(perturbed_model, rep_minus, [0.7 + 0.2j], policy)
        assert z == cycle_zeta(perturbed_model, rep_minus, 0.7 + 0.2j, policy)

    def test_error_of_the_first_lambda_that_raises(self, cat):
        # lambda = -200 and -300 overflow and 0 with the trivial character is the resonance; the grid raises
        # the error of the first of them, after the lambdas before it, as the per-lambda loop does
        model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.1, 0.0),)))
        rep = Character.from_angle_fraction(0.5, cat.coker_orders, (0, 0))
        policy = TruncationPolicy(max_period=8)
        grids = ([0.3, -300.0, 2.0, -200.0], [0.3, -200.0, -300.0], [2.0, 0.3, -200.0])
        for lams in grids:
            _assert_grid_is_loop(model, rep, lams, policy)
        messages = [_outcome(lambda: cycle_zetas(model, rep, lams, policy))[1] for lams in grids]
        assert [("-300" in m, "-200" in m) for m in messages] == [(True, False), (False, True), (False, True)]
        _assert_grid_is_loop(model, None, [1.0, 0.0, -200.0], policy)
        assert _outcome(lambda: cycle_zetas(model, None, [1.0, 0.0, -200.0], policy))[0] is ResonanceAtZeroError

    def test_out_of_range_sum_raises_only_where_its_lambda_reads_it(self, cat, rep_minus):
        model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.1, 0.0),)))
        stream = _TraceStream(model, rep_minus, (1.0, -300.0), 0.0, 8)
        # lambda = 1 reads S_1..S_8 and computes none at lambda = -300, where S_3 leaves the float range
        assert all(cmath.isfinite(stream.trace(0, 0, m)) for m in range(1, 9))
        assert all(map(cmath.isfinite, stream.sums[0])) and len(stream.sums[0]) == 8
        assert stream.sums[1] == [] and sorted(stream.columns) == list(range(1, 9))
        with pytest.raises(ConvergenceError, match=r"lambda=\(-300\+0j\)"):
            stream.trace(1, 0, 8)
        assert len(stream.sums[1]) == 2 and len(stream.sums[0]) == 8

    def test_each_lambda_computes_only_the_sums_it_reads(self, cat):
        # a large imaginary part slows the coefficient decay: the deep lambda does not make the others deeper
        model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.03))))
        rep = Character.from_angle_fraction(0.5, cat.coker_orders, (0, 0))
        lams, policy = (2.0, 0.5 + 6j, 0.4), TruncationPolicy(max_period=12)
        stream = _TraceStream(model, rep, lams, 0.0, 12)
        for i, lam in enumerate(lams):
            dets = [dynamical_determinant(model, rep, k, lam, 12, _stream=(stream, i)) for k in range(3)]
            assert len(stream.sums[i]) == max(d.n_used for d in dets)
            _assert_same_bits(cycle_zeta(model, rep, lam, policy), eager_cycle_zeta(model, rep, lam, policy))
        assert len(stream.sums[1]) > max(len(stream.sums[0]), len(stream.sums[2]))
        assert sorted(stream.columns) == list(range(1, len(stream.sums[1]) + 1))

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # each lambda takes one orbit-sized array at a time over the columns gathered once per period, so 64
        # lambdas read to the same depth peak where 2 do (a (lambda x orbit) array would take 32 times as much)
        auto = ToralAutomorphism(((3, 2), (1, 1)))
        model = SuspensionModel(auto, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.0391))))
        rep = Character.from_angle_fraction(0.3, auto.coker_orders, (0, 1))
        policy = TruncationPolicy(max_period=9, tail_tol=1e-30)
        toral.orbit_table(model, 9)
        peaks = []
        for count in (2, 64):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                zetas = cycle_zetas(model, rep, [0.5 + 0.01 * i for i in range(count)], policy)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert {d.n_used for z in zetas for d in z.determinants} == {9}
        assert peaks[1] <= 1.1 * peaks[0]

    def test_table_errors_only_from_lambdas_that_read_the_table(self, cat, period_passes, monkeypatch):
        # with a trivial fiber lambda = 0 reads fixed-point counts only; lambda = 1 at a tolerance the
        # coefficients never meet reads every period to n_max, and period 12 is past the lowered cap
        monkeypatch.setattr(toral, "MAX_ENUMERATED_POINTS", 1 << 16)
        model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.0391, 0.0),)))  # a roof no other test uses
        rep = Character.from_angle_fraction(0.5, cat.coker_orders, (0, 0))
        policy = TruncationPolicy(max_period=30, tail_tol=1e-30)
        (z,) = cycle_zetas(model, rep, [0.0], policy)
        assert z.reliable and period_passes == []
        alone = _outcome(lambda: cycle_zeta(model, rep, 1.0, policy))
        assert alone == (CapacityError, "|det(A^n - I)| = 103680 fixed points exceeds the enumeration cap")
        # the stream's first growth builds the small periods 1-8 in one pass, then each period read its own
        assert period_passes == [("union", list(range(1, 9))), ("period", 9), ("period", 10), ("period", 11)]
        assert _outcome(lambda: cycle_zetas(model, rep, [0.0, 1.0], policy)) == alone
