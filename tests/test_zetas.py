import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedzeta import (
    Character,
    ComplexLengthRecord,
    ValidationError,
    ConvergenceError,
    IrrepLabel,
    OrbitRecord,
    SuspensionModel,
    ToralAutomorphism,
    TorusElement,
    TrigPolynomial,
    TruncationPolicy,
    char_sigma,
    continuation,
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    orbit_records,
    poincare_data,
    ruelle_log_zeta,
    selberg_log_zeta,
    synthetic_spectrum,
    variation,
    zetas,
)
from friedzeta._record import fields, replace
from friedzeta.characters import char_label
from friedzeta.continuation import toral_log_zetas
from friedzeta.toral import OrbitDump, orbit_table, read_orbit_dump, write_orbit_dump
from friedzeta.variation import dump_log_zetas
from friedzeta.zetas import _det_one_minus_ps, _shell_tail, orbit_columns

import euler_oracle
from continuation_oracle import linear_series_depths
from dump_oracle import read_records_dump
from scalar_oracle import character_value, dump_from_records
from test_toral import TABLE_CASES, TABLE_CHANGE, TABLE_ROOF


def cat_closed_form(lam, u, lam_u, lam_s):
    z = u * cmath.exp(-lam)
    return cmath.log((1 - z * lam_u) * (1 - z * lam_s) / (1 - z) ** 2)


def dump_row(records, lam, policy, allow_formal=False):
    """The Ruelle row at ``lam`` of a dump of ``records``, which sums its cells ``p j <= policy.max_period``."""
    return dump_log_zetas(dump_from_records(records), [lam], policy, allow_formal)[0]


class TestRuelle:
    def test_empty_spectrum(self):
        zv = ruelle_log_zeta(orbit_columns([]), 3.0, TruncationPolicy(entropy=1.0))
        assert zv.log_value == 0
        assert "empty spectrum" in zv.warnings

    def test_single_euler_factor(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        zv = ruelle_log_zeta(orbit_columns(rec), 1.0, TruncationPolicy(j_max=80, entropy=0.5))
        assert zv.log_value.real == pytest.approx(math.log(1 - math.exp(-1)), rel=1e-14)

    def test_cat_map_closed_form(self, cat, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        # a dump drops the twist: its cells p j <= 14 meet the closed form at u = 1
        zv = dump_row(orbit_records(cat_model, 14), lam, policy14)
        closed = cat_closed_form(lam, 1.0, cat.lam_u, cat.lam_s)
        assert abs(zv.log_value - closed) < zv.tail_bound
        assert abs(zv.log_value - closed) < 1e-12
        closed = cat_closed_form(lam, rep_minus.circle, cat.lam_u, cat.lam_s)
        series = toral_log_zetas(cat_model, rep_minus, [lam], policy14)[0][0]
        # the Ruelle tail is the sum of three graded tails, each at most tail_tol
        assert series.tail_kind == "certified" and abs(series.log_value - closed) <= series.tail_bound <= 3e-12

    def test_euler_product_consistency(self, cat_model, policy14):
        lam = cat_model.default_entropy() + 2.0
        records = orbit_records(cat_model, 10)
        zv = dump_row(records, lam, replace(policy14, max_period=10))
        product = 1.0 + 0.0j
        for rec in records:
            product *= 1 - rec.epsilon * cmath.exp(-lam * rec.length)
        assert cmath.exp(zv.log_value) == pytest.approx(product, rel=1e-12)

    def test_convergence_region_enforced(self, cat_model, policy14):
        records, pol = orbit_records(cat_model, 3), replace(policy14, max_period=3)
        with pytest.raises(ConvergenceError):
            dump_row(records, 0.5, pol)
        dump_row(records, 0.5, pol, allow_formal=True)

    def test_tail_bound_decreases(self, cat_model):
        lam = cat_model.default_entropy() + 2.0
        tails = []
        for n_max in (6, 9, 12):
            pol = TruncationPolicy(max_period=n_max, entropy=cat_model.default_entropy())
            tails.append(dump_row(orbit_records(cat_model, n_max), lam, pol).tail_bound)
        assert tails[0] > tails[1] > tails[2] > 0

    def test_tail_bound_infinite_below_entropy(self):
        assert _shell_tail(np.array([1.0]), 0.5, 1.0, 2.0) == math.inf

    @pytest.mark.parametrize("shortest, finite", [(1e-17, True), (5e-324, False)])
    def test_tail_bound_of_a_tiny_shortest_length(self, shortest, finite):
        # exp(-(sigma - h) l_min) rounds to 1 at both lengths; the rate of 1e-17 keeps its digits through expm1,
        # and a rate that is exactly 1 bounds nothing
        records = [ComplexLengthRecord(length=shortest, theta=0.0), ComplexLengthRecord(length=1.0, theta=0.0)]
        cols = orbit_columns(records)
        policy = TruncationPolicy(entropy=2.0)
        zv = ruelle_log_zeta(cols, 3.0, policy)
        assert math.isfinite(zv.log_value.real)
        assert math.isfinite(zv.tail_bound) is finite and zv.tail_bound > 1e16
        assert zv.tail_bound == pytest.approx(euler_oracle.ruelle(cols, 3.0, policy)[0].tail_bound, rel=ORDER_TOL)


class TestGraded:
    def test_single_orbit_k0_weight(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        pol = TruncationPolicy(j_max=1, entropy=2.0)
        zv = graded_log_zeta(orbit_columns(rec), 0, 4.0, pol)
        expected = -math.exp(-4.0) / abs(poincare_data(1.0, 0.0, 1, 0).det_one_minus_p)
        assert zv.log_value.real == pytest.approx(expected, rel=1e-14)

    def test_weight_is_inverse_det_for_k0(self, cat_model, rep_minus):
        # the cells p j <= 4 of the orbits of periods 1..4, one term each
        records = orbit_records(cat_model, 4)
        pol = TruncationPolicy(max_period=4, entropy=cat_model.default_entropy())
        lam = 4.0
        zv = toral_log_zetas(cat_model, rep_minus, [lam], pol)[0][1]
        assert zv.n_used == 4
        manual = sum(
            -character_value(rep_minus, r.class_exps, r.winding) ** j
            * cmath.exp(-lam * j * r.length)
            / (j * abs((1 - r.lam_u**j) * (1 - r.lam_s**j)))
            for r in records for j in range(1, 4 // r.period + 1)
        )
        assert zv.log_value == pytest.approx(manual, rel=1e-13)


def assert_graded_assemble_to_ruelle(cols, lam, pol):
    """A geodesic's ``det(1 - P^j)`` is positive, so ``sum_k (-1)^k Tr(wedge^k P^j) / |det(1 - P^j)|`` is 1 on every
    (orbit, iterate), and the alternating sum of the graded logs is the Ruelle log."""
    alternating = sum((-1.0) ** k * ratio for k, ratio in enumerate(zetas._trace_ratios(cols, pol.j_max)))
    assert np.abs(alternating - 1.0).max(initial=0.0) <= 1e-12
    ruelle = ruelle_log_zeta(cols, lam, pol).log_value
    assembled = sum((-1) ** k * graded_log_zeta(cols, k, lam, pol).log_value for k in range(5))
    assert abs(ruelle - assembled) <= 1e-13 * abs(ruelle)


class TestAssembly:
    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((-2, -1), (-1, -1))], ids=["cat", "negative"])
    def test_suspension_sign_and_match(self, matrix, rep_minus):
        # the graded series assemble to the Ruelle one with the sign -1 = (-1)^(dim / 2): per cell,
        # -sum_k (-1)^k Tr(wedge^k P^j) / |det(1 - P^j)| is eps^j, the Ruelle product's weight
        model = SuspensionModel(ToralAutomorphism(matrix), TrigPolynomial.const(1.0))
        lam = model.default_entropy() + 2.0
        pol = TruncationPolicy(max_period=10, entropy=model.default_entropy())
        records = orbit_records(model, 10)
        ruelle, *graded = toral_log_zetas(model, rep_minus, [lam], pol)[0]
        assert ruelle.log_value == -(graded[0].log_value - graded[1].log_value + graded[2].log_value)
        assert euler_oracle.assembly_residual(euler_oracle.records_columns(records, rep_minus), 10) < 1e-12
        direct, _ = euler_oracle.ruelle(euler_oracle.records_columns(records, rep_minus), lam, replace(pol, j_max=40))
        assert abs(ruelle.log_value - direct.log_value) <= ruelle.tail_bound + direct.tail_bound

    def test_kleinian_sign_positive(self):
        spectrum = synthetic_spectrum(2.0, 30, 5)
        pol = TruncationPolicy(j_max=6, entropy=2.0)
        assert_graded_assemble_to_ruelle(orbit_columns(spectrum), 4.0, pol)


class TestSelberg:
    def test_sigma0_theta0_weight(self):
        rec = [ComplexLengthRecord(length=1.2, theta=0.0)]
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        lam = 3.5
        zv = selberg_log_zeta(orbit_columns(rec), IrrepLabel("sigma", 0, 2), lam, pol)
        manual = -sum(
            math.exp(-lam * j * 1.2) / (j * (1 - math.exp(-j * 1.2)) ** 2) for j in (1, 2, 3, 4)
        )
        assert zv.log_value.real == pytest.approx(manual, rel=1e-14)

    def test_hand_summed_example(self):
        rec = [ComplexLengthRecord(length=2.0, theta=1.0)]
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        zv = selberg_log_zeta(orbit_columns(rec), IrrepLabel("sigma", 1, 2), 3.0, pol)
        hand = -sum(
            2 * math.cos(j * 1.0) * math.exp(-3.0 * 2.0 * j)
            / (j * poincare_data(2.0, 1.0, j, 0).det_one_minus_ps)
            for j in (1, 2, 3)
        )
        assert zv.log_value.real == pytest.approx(hand, rel=1e-13)

    def test_tensor_character(self):
        rec = [ComplexLengthRecord(length=1.4, theta=0.6)]
        pol = TruncationPolicy(j_max=1, entropy=2.0)
        mu = [IrrepLabel("nu", 1, 2), IrrepLabel("nu", 1, 2)]
        zv = selberg_log_zeta(orbit_columns(rec), mu, 4.0, pol)
        manual = -((2 * math.cos(0.6)) ** 2) * math.exp(-4.0 * 1.4) / poincare_data(
            1.4, 0.6, 1, 0
        ).det_one_minus_ps
        assert zv.log_value.real == pytest.approx(manual, rel=1e-13)

    def test_convergence_needs_n0(self):
        cols = orbit_columns([ComplexLengthRecord(length=1.0, theta=0.0)])
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        with pytest.raises(ConvergenceError):
            selberg_log_zeta(cols, IrrepLabel("sigma", 0, 2), 1.5, pol)
        selberg_log_zeta(cols, IrrepLabel("sigma", 0, 2), 1.5, pol, allow_formal=True)

    def test_branch_choice_invisible(self):
        # characters used downstream are even in theta
        pol = TruncationPolicy(j_max=5, entropy=2.0)
        for mu in (IrrepLabel("sigma", 2, 2), [IrrepLabel("nu", 1, 2), IrrepLabel("nu", 1, 2)]):
            a = selberg_log_zeta(orbit_columns([ComplexLengthRecord(length=1.0, theta=0.9)]), mu, 3.0, pol)
            b = selberg_log_zeta(orbit_columns([ComplexLengthRecord(length=1.0, theta=-0.9)]), mu, 3.0, pol)
            assert a.log_value == pytest.approx(b.log_value, rel=1e-13)


def single_orbit_factorization_oracle(ell, theta, k, j, p_max):
    """Brute-force (p, q, l) truncated sum with explicit SO(2) characters."""

    def chi_sigma(p, ang):
        return 1.0 if p == 0 else 2 * math.cos(p * ang)

    def chi_nu(l, ang):
        return {0: 1.0, 1: 2 * math.cos(ang), 2: 1.0}[l]

    det_ps = poincare_data(ell, theta, j, 0).det_one_minus_ps
    total = 0.0
    for l in range(k + 1):
        for p in range(p_max + 1):
            for q in range((p_max - p) // 2 + 1):
                shift = 2 * (q - l) + p + 2 + k
                total += (
                    chi_nu(l, j * theta)
                    * chi_nu(k - l, j * theta)
                    * chi_sigma(p, j * theta)
                    * math.exp(-shift * j * ell)
                    / det_ps
                )
    return total


class TestFactorization:
    def test_single_orbit_against_oracle(self):
        ell, theta, k = 1.5, 0.8, 1
        pol = TruncationPolicy(j_max=3, p_max=60, entropy=2.0)
        rec = [ComplexLengthRecord(length=ell, theta=theta)]
        report = factorization_check(orbit_columns(rec), k, 5.0, pol)
        assert report.max_rel_residual < 1e-10
        for j in (1, 2, 3):
            lhs = poincare_data(ell, theta, j, k).wedge_trace / abs(
                poincare_data(ell, theta, j, 0).det_one_minus_p
            )
            rhs = single_orbit_factorization_oracle(ell, theta, k, j, 60)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_log_products_match(self):
        cols = orbit_columns(synthetic_spectrum(2.0, 60, 3))
        pol = TruncationPolicy(j_max=5, p_max=60, entropy=2.0)
        for k in (0, 1, 2):
            report = factorization_check(cols, k, 5.0, pol)
            assert abs(report.log_lhs - report.log_rhs) < 1e-12
            assert report.max_rel_residual < 1e-10

    def test_nu2_equivalent_to_nu0(self):
        # honoring the rank-2 equivalence: characters coincide pointwise
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        cols = orbit_columns([ComplexLengthRecord(length=1.1, theta=0.7)])
        a = selberg_log_zeta(cols, IrrepLabel("nu", 2, 2), 3.0, pol)
        b = selberg_log_zeta(cols, IrrepLabel("nu", 0, 2), 3.0, pol)
        assert a.log_value == b.log_value

    def test_residual_decays_with_p_max(self):
        spectrum = synthetic_spectrum(2.0, 40, 17)
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        curve = factorization_residual_curve(orbit_columns(spectrum), 1, 5.0, pol, [10, 20, 40])
        ell_min = min(r.length for r in spectrum)
        usable = [(p, r) for p, r in curve if r > 1e-13]
        assert len(usable) >= 2
        ps = np.array([p for p, _ in usable], dtype=float)
        rs = np.log(np.array([r for _, r in usable]))
        slope = np.polyfit(ps, rs, 1)[0]
        assert slope <= -ell_min / 1.5

    def test_theta_zero_coefficient_count(self):
        # at theta=0 the symmetric block sums to r+1 copies per exponent shell,
        # reproducing the expanding-side geometric square
        ell = 1.3
        rec = [ComplexLengthRecord(length=ell, theta=0.0)]
        pol = TruncationPolicy(j_max=1, p_max=200, entropy=2.0)
        report = factorization_check(orbit_columns(rec), 0, 5.0, pol)
        assert report.max_rel_residual < 1e-12


# ---------------------------------------------------------------------------
# The per-record loops the array path replaced, kept as its references.
# Poincare data come from the 4x4 characteristic polynomial (poincare_data),
# SO(2) characters from homogeneous sums (char_label / char_sigma).
# ---------------------------------------------------------------------------


def _loop_chi(rec, rep):
    """The twist's value on a toral record's class; a Kleinian record takes none (``rep`` None)."""
    return 1.0 + 0.0j if rep is None else character_value(rep, rec.class_exps, rec.winding)


def _loop_det_one_minus_p(rec, j):
    if isinstance(rec, OrbitRecord):
        return (1.0 - rec.lam_u**j) * (1.0 - rec.lam_s**j)
    return poincare_data(rec.length, rec.theta, j, 0).det_one_minus_p


def _loop_wedge_trace(rec, j, k):
    if isinstance(rec, OrbitRecord):  # wedge^k of diag(lam_u, lam_s), to the j-th power
        return (1.0, rec.lam_u**j + rec.lam_s**j, float(rec.det_power**j))[k]
    return poincare_data(rec.length, rec.theta, j, k).wedge_trace


def _fsum(terms):
    """(compensated sum, sum of magnitudes) of complex terms."""
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total, math.fsum(abs(t) for t in terms)


def _iterates(rec, j_max, depth):
    """``j = 1..j_max``, or the cells ``period * j <= depth`` of a toral record."""
    return range(1, (j_max if depth is None else depth // rec.period) + 1)


def loop_ruelle(records, rep, lam, j_max, depth=None):
    terms = []
    for rec in records:
        eps = rec.epsilon if isinstance(rec, OrbitRecord) else 1
        base = eps * _loop_chi(rec, rep) * cmath.exp(-lam * rec.length)
        terms += [-getattr(rec, "multiplicity", 1) * base**j / j for j in _iterates(rec, j_max, depth)]
    return _fsum(terms)


def loop_graded(records, rep, k, lam, j_max, depth=None):
    terms = []
    for rec in records:
        chi = _loop_chi(rec, rep)
        for j in _iterates(rec, j_max, depth):
            weight = _loop_wedge_trace(rec, j, k) / abs(_loop_det_one_minus_p(rec, j))
            phase = chi**j * cmath.exp(-lam * j * rec.length)
            terms.append(-getattr(rec, "multiplicity", 1) * phase * weight / j)
    return _fsum(terms)


def loop_selberg(records, labels, lam, j_max):
    terms = []
    for rec in records:
        for j in range(1, j_max + 1):
            chi = math.prod(char_label(label, TorusElement(2, j * rec.theta)) for label in labels)
            det_ps = poincare_data(rec.length, rec.theta, j, 0).det_one_minus_ps
            phase = cmath.exp(-lam * j * rec.length)
            terms.append(-rec.multiplicity * phase * chi / (j * det_ps))
    return _fsum(terms)


def loop_factorization(records, k, lam, j_max, p_max):
    """(log lhs, log rhs, scale, max abs residual, max rel residual), with explicit (p, q) sums."""
    lhs_terms, rhs_terms, max_abs, max_rel = [], [], 0.0, 0.0
    for rec in records:
        ell = rec.length
        for j in range(1, j_max + 1):
            element = TorusElement(2, j * rec.theta)
            pd0 = poincare_data(ell, rec.theta, j, 0)
            lhs = poincare_data(ell, rec.theta, j, k).wedge_trace / abs(pd0.det_one_minus_p)
            sym = sum(
                char_sigma(2, p, element) * math.exp(-(p + 2 * q) * j * ell)
                for p in range(p_max + 1)
                for q in range((p_max - p) // 2 + 1)
            )
            nu = [char_label(IrrepLabel("nu", l, 2), element) for l in range(3)]
            ang = sum(math.exp(2.0 * l * j * ell) * nu[l] * nu[k - l] for l in range(k + 1))
            rhs = math.exp(-(2 + k) * j * ell) / pd0.det_one_minus_ps * ang * sym
            max_abs = max(max_abs, abs(lhs - rhs))
            max_rel = max(max_rel, abs(lhs - rhs) / abs(lhs))
            phase = -rec.multiplicity * cmath.exp(-lam * j * ell) / j
            lhs_terms.append(phase * lhs)
            rhs_terms.append(phase * rhs)
    (log_lhs, scale), (log_rhs, _) = _fsum(lhs_terms), _fsum(rhs_terms)
    return log_lhs, log_rhs, scale, max_abs, max_rel


def loop_assembly_residual(records, j_max):
    dim = 2 if isinstance(records[0], OrbitRecord) else 4
    s = (-1) ** (dim // 2)
    worst = 0.0
    for rec in records:
        eps = rec.epsilon if isinstance(rec, OrbitRecord) else 1
        for j in range(1, j_max + 1):
            alt = sum((-1.0) ** k * _loop_wedge_trace(rec, j, k) for k in range(dim + 1))
            worst = max(worst, abs(alt / abs(_loop_det_one_minus_p(rec, j)) - s * eps**j))
    return worst


ORACLE_TOL = 1e-13  # relative to the sum of term magnitudes


def _close(array_value, loop_value, tol=ORACLE_TOL):
    value, scale = loop_value
    return abs(array_value - value) <= tol * max(scale, 1e-300)


def _twisted_3211():
    a = ToralAutomorphism(((3, 2), (1, 1)))
    model = SuspensionModel(a, TrigPolynomial.cosine((1, 0), 0.05, constant=1.0))
    rep = Character.from_angle_fraction(0.3, a.coker_orders, (1, 1))
    return model, rep


def _mixed_spectrum():
    """Multiplicities above 1, theta = 0 and theta = pi among synthetic records."""
    hand = [
        ComplexLengthRecord(length=1.1, theta=0.0, multiplicity=3, label="a"),
        ComplexLengthRecord(length=1.3, theta=math.pi, multiplicity=2, label="b"),
        ComplexLengthRecord(length=1.7, theta=0.4, multiplicity=1, label="c"),
    ]
    synthetic = [replace(r, multiplicity=1 + i % 3) for i, r in enumerate(synthetic_spectrum(2.0, 25, 11))]
    return hand + synthetic


def _synthetic_200():
    """200 synthetic records with multiplicities 1..3."""
    return [replace(r, multiplicity=1 + i % 3) for i, r in enumerate(synthetic_spectrum(2.0, 200, 3))]


SELBERG_LABELS = ([IrrepLabel("sigma", 0, 2)], [IrrepLabel("sigma", 3, 2)],
                  [IrrepLabel("sigma", 2, 2), IrrepLabel("nu", 1, 2)], [IrrepLabel("nu", 2, 2)])


class TestArrayPathAgainstLoops:
    """The array reductions agree with the per-record loops they replaced."""

    @pytest.mark.parametrize("source", ["cat_half", "twisted_3211", "negative", "det_minus_one"])
    def test_toral_series(self, source, cat_model, rep_minus):
        if source == "cat_half":
            roof = TrigPolynomial.cosine((1, 0), 0.05, constant=1.0)
            model, rep = SuspensionModel(cat_model.automorphism, roof), rep_minus
        elif source == "twisted_3211":
            model, rep = _twisted_3211()
        else:
            matrix = ((-2, -1), (-1, -1)) if source == "negative" else ((1, 1), (1, 0))
            model = SuspensionModel(ToralAutomorphism(matrix), TrigPolynomial.const(1.0))
            rep = Character.from_angle_fraction(0.2)
        records = orbit_records(model, 7)
        pol = TruncationPolicy(max_period=7, entropy=model.default_entropy())
        for lam in (model.default_entropy() + 1.5, 4.0 + 2.5j):
            ruelle, *graded = toral_log_zetas(model, rep, [lam], pol)[0]
            loops = [loop_graded(records, rep, k, lam, None, zv.n_used) for k, zv in enumerate(graded)]
            for zv, loop in zip(graded, loops):
                assert _close(zv.log_value, loop)
            assembled = -(loops[0][0] - loops[1][0] + loops[2][0])
            assert _close(ruelle.log_value, (assembled, sum(scale for _, scale in loops)))
            if len({zv.n_used for zv in graded}) == 1:  # one depth: the Ruelle series' own cells
                assert _close(ruelle.log_value, loop_ruelle(records, rep, lam, None, ruelle.n_used))
            zv = dump_row(records, lam, pol)  # untwisted
            assert _close(zv.log_value, loop_ruelle(records, None, lam, None, 7))
        assert euler_oracle.assembly_residual(euler_oracle.records_columns(records), 12) == pytest.approx(
            loop_assembly_residual(records, 12), abs=1e-14
        )

    def test_dump_records(self, cat_family, tmp_path):
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(cat_family, 8), 0.05)
        back, records = read_orbit_dump(path), read_records_dump(path)
        lams = (3.0, 4.0 - 1.5j)
        for depth in (8, 5, 1):
            values = dump_log_zetas(back, lams, TruncationPolicy(max_period=depth, entropy=1.0))
            for lam, zv in zip(lams, values, strict=True):
                assert _close(zv.log_value, loop_ruelle(records, None, lam, None, depth))
        for name in fields(OrbitDump):
            assert np.array_equal(getattr(back, name), getattr(dump_from_records(records), name))

    def test_kleinian_graded_and_selberg(self):
        spectrum = _mixed_spectrum()
        cols = orbit_columns(spectrum)
        pol = TruncationPolicy(j_max=8, entropy=2.0)
        for lam in (3.2, 4.0 - 1.5j):
            zv = ruelle_log_zeta(cols, lam, pol)
            assert _close(zv.log_value, loop_ruelle(spectrum, None, lam, 8))
            for k in range(5):
                zv = graded_log_zeta(cols, k, lam, pol)
                assert _close(zv.log_value, loop_graded(spectrum, None, k, lam, 8))
            for labels in SELBERG_LABELS:
                zv = selberg_log_zeta(cols, labels, lam, pol)
                assert _close(zv.log_value, loop_selberg(spectrum, labels, lam, 8))
            assert_graded_assemble_to_ruelle(cols, lam, pol)
        assert euler_oracle.assembly_residual(cols, 8) == pytest.approx(loop_assembly_residual(spectrum, 8), abs=1e-13)

    def test_graded_factors_kept_per_grid(self, rep_minus):
        """One columns object across a λ grid and a j_max change: kept ratios and phases are never stale."""
        spectrum = _mixed_spectrum()
        kleinian = orbit_columns(spectrum)
        labels = [IrrepLabel("sigma", 2, 2), IrrepLabel("nu", 1, 2)]
        loop_graded_kept, residual_kept = functools.cache(loop_graded), functools.cache(loop_assembly_residual)
        for j_max in (12, 5, 12):
            kpol = TruncationPolicy(j_max=j_max, entropy=2.0)
            for lam in (3.2, 4.0 - 1.5j, 3.2):
                for k in range(5):
                    zv = graded_log_zeta(kleinian, k, lam, kpol)
                    assert _close(zv.log_value, loop_graded_kept(tuple(spectrum), None, k, lam, j_max))
                zv = selberg_log_zeta(kleinian, labels, lam, kpol)
                assert _close(zv.log_value, loop_selberg(spectrum, labels, lam, j_max))
                assert_graded_assemble_to_ruelle(kleinian, lam, kpol)
                assert euler_oracle.assembly_residual(kleinian, j_max) == pytest.approx(
                    residual_kept(tuple(spectrum), j_max), abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_factorization(self, k):
        spectrum = _mixed_spectrum()
        cols = orbit_columns(spectrum)
        pol = TruncationPolicy(j_max=4, p_max=24, entropy=2.0)
        report = factorization_check(cols, k, 5.0 + 0.5j, pol)
        log_lhs, log_rhs, scale, max_abs, max_rel = loop_factorization(spectrum, k, 5.0 + 0.5j, 4, 24)
        assert abs(report.log_lhs - log_lhs) <= ORACLE_TOL * scale
        assert abs(report.log_rhs - log_rhs) <= ORACLE_TOL * scale
        assert report.max_rel_residual == pytest.approx(max_rel, rel=1e-6, abs=1e-13)
        assert report.max_abs_residual == pytest.approx(max_abs, rel=1e-6, abs=1e-13)
        curve = factorization_residual_curve(cols, k, 5.0, pol, [0, 1, 2, 5, 9, 16])
        assert [p for p, _ in curve] == [0, 1, 2, 5, 9, 16]
        for p, rel in curve:
            assert rel == pytest.approx(loop_factorization(spectrum, k, 5.0, 4, p)[4], rel=1e-6, abs=1e-13)

    def test_characters_take_the_class_angle(self):
        # characters see j*theta reduced as TorusElement reduces it, bit for bit
        cols = orbit_columns(_mixed_spectrum())
        expected = [[TorusElement(2, j * theta).angles[0] for j in range(1, 41)] for theta in cols.theta]
        assert np.array_equal(zetas._iterates(cols, 40)[3], np.array(expected))

    def test_empty_spectrum(self):
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        empty = orbit_columns([])
        for zv in (ruelle_log_zeta(empty, 3.0, pol), graded_log_zeta(empty, 1, 3.0, pol),
                   selberg_log_zeta(empty, IrrepLabel("sigma", 1, 2), 3.0, pol)):
            assert zv.log_value == 0 and zv.tail_bound == 0.0
            assert zv.warnings == ("empty spectrum",)
        assert factorization_residual_curve(empty, 0, 5.0, pol, []) == []
        for call in (lambda: factorization_check(empty, 0, 5.0, pol),
                     lambda: factorization_residual_curve(empty, 0, 5.0, pol, [10])):
            with pytest.raises(ValidationError):
                call()


ORDER_TOL = 1e-14  # relative to the sum of term magnitudes: the reductions change only the summation order


class TestProductsAgainstPerOrbitOracle:
    """The products agree with the per-orbit (orbit x iterate) arrays of the oracle."""

    @staticmethod
    def _agree(got, want):
        value, scale = want
        assert abs(got.log_value - value.log_value) <= ORDER_TOL * scale
        assert got.tail_bound == pytest.approx(value.tail_bound, rel=ORDER_TOL)
        assert got.warnings == value.warnings
        assert (got.lam, got.kind) == (value.lam, value.kind)

    @pytest.mark.parametrize("depth", [1, 3, 8])
    @pytest.mark.parametrize("matrix, n_max", [(matrix, min(n_max, 8)) for matrix, n_max in TABLE_CASES],
                             ids=lambda case: " ".join(str(a) for row in case for a in row)
                             if isinstance(case, tuple) else str(case))
    def test_dump_rows_match_the_oracle(self, matrix, n_max, depth, tmp_path):
        # a dump written at tau = 0.1 sums its cells p j <= M: the untwisted oracle's truncation at depth M, with
        # its tail; no iterate is cut short, so nothing is flagged
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(model, n_max), 0.1)
        depth, h = min(depth, n_max), model.default_entropy(0.1)
        pol = TruncationPolicy(max_period=depth, entropy=h)
        cols = euler_oracle.table_columns(orbit_table(model, depth), None, 0.1)
        lams = (h + 0.3, h + 1.5, 4.0 + 2.5j)
        for lam, got in zip(lams, dump_log_zetas(read_orbit_dump(path), lams, pol), strict=True):
            want, scale = euler_oracle.ruelle(cols, lam, pol, depth=depth)
            assert abs(got.log_value - want.log_value) <= ORDER_TOL * scale
            assert got.tail_bound == pytest.approx(want.tail_bound, rel=ORDER_TOL)
            assert (got.lam, got.kind, got.tail_kind, got.n_used, got.warnings) == (lam, "ruelle", "heuristic",
                                                                                    depth, ())

    @pytest.mark.parametrize("j_max", [1, 5, 16, 17])
    @pytest.mark.parametrize("spectrum", [_mixed_spectrum, _synthetic_200], ids=["mixed", "synthetic_200"])
    def test_kleinian_products_match_the_oracle(self, spectrum, j_max):
        cols = orbit_columns(spectrum())
        pol = TruncationPolicy(j_max=j_max, p_max=24, entropy=2.0)
        for lam in (2.3, 4.0, 4.0 - 1.5j):
            self._agree(ruelle_log_zeta(cols, lam, pol), euler_oracle.ruelle(cols, lam, pol))
            graded = [euler_oracle.graded(cols, k, lam, pol) for k in range(5)]
            for k in range(5):
                self._agree(graded_log_zeta(cols, k, lam, pol), graded[k])
            for labels in SELBERG_LABELS:
                self._agree(selberg_log_zeta(cols, labels, lam, pol), euler_oracle.selberg(cols, labels, lam, pol))
            assert euler_oracle.assembly_residual(cols, j_max) <= 1e-12
            assert_graded_assemble_to_ruelle(cols, lam, pol)
            for k in range(3):
                check = factorization_check(cols, k, lam, pol)
                (lhs, lhs_scale), (rhs, rhs_scale) = euler_oracle.factorization_logs(cols, k, lam, pol)
                assert abs(check.log_lhs - lhs) <= ORDER_TOL * lhs_scale
                assert abs(check.log_rhs - rhs) <= ORDER_TOL * rhs_scale

    def test_dump_cells_built_once_per_grid(self, calls):
        # the cells and their weights are lambda-free: one build serves every lambda of the grid
        built = calls(variation, "_build_cells")
        model = SuspensionModel(ToralAutomorphism(((-2, -1), (-1, -1))), TABLE_ROOF)
        pol = TruncationPolicy(max_period=8, entropy=model.default_entropy())
        dump_log_zetas(dump_from_records(orbit_records(model, 8)), [3.0, 4.0 + 1j, 5.0], pol)
        assert len(built) == 1


class TestDumpLineOrder:
    """A dump's rows sum its cells in file order, so its lines may come in any order."""

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((-2, -1), (-1, -1))], ids=["cat", "negative"])
    def test_shuffled_dump_gives_the_sorted_value(self, matrix, tmp_path):
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF)
        sorted_path, shuffled_path = tmp_path / "sorted.txt", tmp_path / "shuffled.txt"
        write_orbit_dump(sorted_path, orbit_table(model, 8))
        header, *lines = sorted_path.read_text().splitlines()
        np.random.default_rng(8).shuffle(lines)
        shuffled_path.write_text("\n".join([header, *lines]) + "\n")
        pol = TruncationPolicy(max_period=8, entropy=model.default_entropy())
        # epsilon is 1 on every cat-map line and (-1)^n on -2 -1 -1 -1
        cols = euler_oracle.table_columns(orbit_table(model, 8))
        lams = (model.default_entropy() + 0.5, 4.0 + 2.5j)
        for lam, got in zip(lams, dump_log_zetas(read_orbit_dump(shuffled_path), lams, pol), strict=True):
            want, scale = euler_oracle.ruelle(cols, lam, pol, depth=8)
            assert abs(got.log_value - want.log_value) <= ORDER_TOL * scale


def per_call_factorization_weights(cols, k, j_max, p_values):
    """The factorization weights built afresh on every call, from the iterates of a copy of ``cols`` that keeps
    nothing: the oracle of the kept tables."""
    if not 0 <= k <= 2:
        raise ValidationError("k must be in 0..n0")
    if min(p_values) < 0:
        raise ValidationError("truncation orders must be positive")
    fresh = zetas.OrbitColumns(cols.length, cols.multiplicity, cols.theta)
    a, b, c, x = zetas._iterates(fresh, j_max)
    traces = (1.0, 2.0 * (a + b) * c, a * a + b * b + 4.0 * c * c)
    lhs = traces[k] / np.abs(_det_one_minus_ps(a, c) * _det_one_minus_ps(b, c))
    c_class = np.cos(x)
    nu = (1.0, 2.0 * c_class, 1.0)
    ang = sum(a ** (2 + k - 2 * l) * nu[l] * nu[k - l] for l in range(k + 1))
    top = max(p_values)
    shells = np.empty(c.shape + (top + 1,))
    h_prev, h, a_n = np.zeros_like(c), np.ones_like(c), np.ones_like(a)
    for n in range(top + 1):
        shells[..., n] = h * a_n
        h_prev, h, a_n = h, 2.0 * c_class * h - h_prev, a_n * a
    sym = np.cumsum(shells, axis=-1)
    factor = ang / _det_one_minus_ps(a, c)
    return lhs, [factor * sym[..., p] for p in p_values]


class TestKeptFactorizationTables:
    """One columns object keeps the factorization's k-free arrays; every value stays bit for bit the per-call one."""

    # (j_max, policy p_max, curve orders, order the kept shell table then holds)
    STEPS = [
        (16, 60, [10, 20, 40], 60),  # the CLI's order: the check builds to 60, the curve reads below it
        (16, 60, [60], 60),  # equal to the kept order
        (16, 30, [5, 80], 80),  # above it: rebuilt to 80
        (16, 60, [0, 40], 80),  # below the new kept order
        (9, 20, [10], 20),  # another j_max: rebuilt
        (16, 12, [12], 12),  # back to the first j_max: rebuilt to what is asked
    ]

    def test_check_and_curve_match_the_per_call_oracle(self, monkeypatch):
        cols = orbit_columns(_mixed_spectrum())
        lam = 5.0 + 0.5j
        for j_max, p_max, p_grid, kept_order in self.STEPS:
            pol = TruncationPolicy(j_max=j_max, p_max=p_max, entropy=2.0)
            for k in (0, 1, 2):
                with monkeypatch.context() as m:
                    m.setattr(zetas, "_factorization_weights", per_call_factorization_weights)
                    want = factorization_check(cols, k, lam, pol)
                    want_curve = factorization_residual_curve(cols, k, lam, pol, p_grid)
                assert factorization_check(cols, k, lam, pol) == want
                assert factorization_residual_curve(cols, k, lam, pol, p_grid) == want_curve
                for orders in ([p_max], p_grid):
                    lhs, rhs = zetas._factorization_weights(cols, k, j_max, orders)
                    want_lhs, want_rhs = per_call_factorization_weights(cols, k, j_max, orders)
                    assert np.array_equal(lhs, want_lhs)
                    assert all(np.array_equal(got, w) for got, w in zip(rhs, want_rhs, strict=True))
            assert cols._derived["shells"][0] == (j_max, kept_order)

    def test_lower_orders_and_other_k_reuse_the_table(self):
        cols = orbit_columns(_mixed_spectrum())
        pol = TruncationPolicy(j_max=16, p_max=60, entropy=2.0)
        factorization_check(cols, 0, 5.0, pol)
        kept = {name: value for name, (_, value) in cols._derived.items()}
        assert {"iterates", "ratios", "factorization", "shells"} <= kept.keys()
        for k in (0, 1, 2):
            factorization_check(cols, k, 5.0, pol)
            factorization_residual_curve(cols, k, 5.0, pol, [10, 20, 40])
        assert all(cols._derived[name][1] is value for name, value in kept.items())

    def test_one_ratio_and_one_phase_array_feed_every_product(self):
        cols = orbit_columns(_mixed_spectrum())
        pol = TruncationPolicy(j_max=8, p_max=20, entropy=2.0)
        graded_log_zeta(cols, 1, 5.0, pol)
        ratios, phases = cols._derived["ratios"][1], cols._derived["phases"][1]
        assert ratios.shape == (5, len(cols), 8)
        selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 5.0, pol)
        ruelle_log_zeta(cols, 5.0, pol)
        lhs, _ = zetas._factorization_weights(cols, 2, 8, [20])
        assert lhs.base is ratios and np.array_equal(lhs, ratios[2])
        factorization_check(cols, 2, 5.0, pol)
        assert cols._derived["ratios"][1] is ratios and cols._derived["phases"][1] is phases

    def test_kept_arrays_are_read_only(self):
        cols = orbit_columns(_mixed_spectrum())
        pol = TruncationPolicy(j_max=8, p_max=20, entropy=2.0)
        factorization_check(cols, 1, 5.0, pol)
        selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 5.0, pol)
        assert {"iterates", "ratios", "factorization", "shells", "phases"} <= cols._derived.keys()
        for _, value in cols._derived.values():
            for array in value if isinstance(value, tuple) else (value,):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_terms_scale_by_reciprocal_bit_for_bit(self):
        # numpy divides a complex array by j + 0i as a product with 1/j, so the reciprocal row loses no bit
        rng = np.random.default_rng(35)
        lam = 0.3 + 0.2j
        for j_max in range(1, 41):
            n = int(rng.integers(1, 200))
            cols = zetas.OrbitColumns(rng.uniform(0.5, 5.0, n), rng.integers(1, 4, n).astype(float), np.zeros(n))
            z = np.exp(-lam * cols.length)
            divided, power = np.empty((n, j_max), dtype=complex), z.copy()
            divided[:, 0] = power
            for j in range(1, j_max):  # powers by in-place products, as the phases take them
                power *= z
                divided[:, j] = power
            divided *= -cols.multiplicity[:, None]
            divided /= np.arange(1, j_max + 1)
            assert zetas._phases(cols, lam, j_max)[0].tobytes() == divided.tobytes(), j_max


class TestArrayPathGuards:
    def test_convergence_region(self):
        cols = orbit_columns(synthetic_spectrum(2.0, 5, 1))
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: ruelle_log_zeta(cols, 1.5, pol),
                     lambda: graded_log_zeta(cols, 2, 1.5, pol),
                     lambda: selberg_log_zeta(cols, IrrepLabel("nu", 1, 2), 1.9, pol)):
            with pytest.raises(ConvergenceError):
                call()

    def test_expanding_block_limit(self):
        cols = orbit_columns([ComplexLengthRecord(length=30.0, theta=0.5)])
        fine = TruncationPolicy(j_max=10, p_max=10, entropy=2.0)
        too_long = TruncationPolicy(j_max=11, p_max=10, entropy=2.0)
        calls = (
            lambda pol: graded_log_zeta(cols, 2, 3.0, pol),
            lambda pol: selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 3.0, pol),
            lambda pol: factorization_check(cols, 2, 5.0, pol),
        )
        for call in calls:
            call(fine)
            with pytest.raises(ValidationError, match="j\\*ell too large"):
                call(too_long)

    def test_k_out_of_range(self, cat_model):
        kleinian = orbit_columns(synthetic_spectrum(2.0, 5, 1))
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: graded_log_zeta(kleinian, 5, 4.0, pol),
                     lambda: graded_log_zeta(kleinian, -1, 4.0, pol),
                     lambda: factorization_check(kleinian, 3, 5.0, pol),
                     lambda: factorization_residual_curve(kleinian, 3, 5.0, pol, [10])):
            with pytest.raises(ValidationError):
                call()

    def test_array_cells_are_capped(self):
        from friedzeta import CapacityError

        cols = orbit_columns(synthetic_spectrum(2.0, 2, 1))
        pol = TruncationPolicy(j_max=10_000_000, entropy=2.0)
        tracemalloc.start()
        with pytest.raises(CapacityError):
            ruelle_log_zeta(cols, 3.0, pol)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000  # refused before any array of j_max columns is built
        with pytest.raises(CapacityError):
            factorization_residual_curve(cols, 0, 5.0, replace(pol, j_max=1), [10_000_000])
        # a dump's cells p j <= M are counted before any is built: at M = 10^12 its period-1 row alone has 10^12
        ints = np.array([1, 10**12])
        dump = OrbitDump(ints, *np.zeros((2, 2), dtype=np.int64), np.ones(2, dtype=np.int64), np.ones(2),
                         np.ones(2, dtype=np.int64), ints, np.zeros((2, 2), dtype=np.int64))
        tracemalloc.start()
        with pytest.raises(CapacityError, match=f"^{10**12 + 1} array cells exceed the cap of {zetas.MAX_CELLS}"):
            dump_log_zetas(dump, [3.0], replace(pol, max_period=10**12))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000

    def test_overflow_is_convergence_error(self, cat_model):
        pol = TruncationPolicy(max_period=6, entropy=cat_model.default_entropy())
        with pytest.raises(ConvergenceError, match="leaves floating point"):
            dump_row(orbit_records(cat_model, 6), -200.0, pol, allow_formal=True)

    def test_columns_take_length_records_only(self, cat_model, tmp_path):
        # toral orbits make no columns: a dump's and a model's Euler products sum their cells p j <= M, and a
        # graded or Selberg product has no toral input
        table = orbit_table(cat_model, 3)
        write_orbit_dump(tmp_path / "orbits.txt", table)
        spectrum = synthetic_spectrum(2.0, 5, 1)
        cols = orbit_columns(spectrum)
        assert not any(getattr(cols, name).flags.writeable for name in fields(cols))
        for call in (lambda: orbit_columns(read_orbit_dump(tmp_path / "orbits.txt")), lambda: orbit_columns(table)):
            with pytest.raises(TypeError):
                call()
        with pytest.raises(ValidationError, match="ComplexLengthRecord rows"):
            orbit_columns(table.records() + spectrum)


SERIES_TOL = 1e-14  # relative, or relative to the sum of term magnitudes where the terms cancel


def _series_cases():
    """(id, model, twist) over the table cases, with a roof, a time change, and circle and fiber twists."""
    for matrix, n_max in TABLE_CASES:
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        orders = model.automorphism.coker_orders
        for name, rep in (("circle and fiber", Character.from_angle_fraction(0.3, orders, (1, 1))),
                          ("circle", Character.from_angle_fraction(-0.45)), ("trivial", None)):
            yield pytest.param(model, rep, n_max, id=f"{' '.join(str(a) for row in matrix for a in row)}, {name}")


class TestTraceSeries:
    """The model's Euler products as partial sums of the trace series, against the per-orbit oracle truncated at
    ``period * j <= M``, and their certified tails."""

    @pytest.mark.parametrize("model, rep, n_max", _series_cases())
    def test_rows_match_the_oracle(self, model, rep, n_max):
        h = model.default_entropy(0.1)
        pol = TruncationPolicy(max_period=n_max, entropy=h)
        cols = euler_oracle.table_columns(orbit_table(model, n_max), rep, 0.1)
        lams = (h + 0.3, h + 1.5, 4.0 + 2.5j)
        for lam, (ruelle, *graded) in zip(lams, toral_log_zetas(model, rep, lams, pol, 0.1)):
            oracles = [euler_oracle.graded(cols, k, lam, pol, depth=zv.n_used) for k, zv in enumerate(graded)]
            for k, (zv, (want, scale)) in enumerate(zip(graded, oracles)):
                error = abs(zv.log_value - want.log_value)
                assert error <= SERIES_TOL * abs(want.log_value) or error <= SERIES_TOL * scale, (lam, k)
                assert (zv.lam, zv.kind, zv.tail_kind) == (lam, want.kind, "certified")
            assembled = -(oracles[0][0].log_value - oracles[1][0].log_value + oracles[2][0].log_value)
            error = abs(ruelle.log_value - assembled)
            assert error <= SERIES_TOL * max(abs(assembled), sum(scale for _, scale in oracles)), lam
            assert ruelle.n_used == max(zv.n_used for zv in graded) <= n_max
            if len({zv.n_used for zv in graded}) == 1:  # one depth: the Ruelle oracle's cells
                want, scale = euler_oracle.ruelle(cols, lam, pol, depth=ruelle.n_used)
                assert abs(ruelle.log_value - want.log_value) <= SERIES_TOL * scale, lam

    @pytest.mark.parametrize("model, rep, n_max", _series_cases())
    def test_certified_tail_bounds_the_error(self, model, rep, n_max):
        # on a grid of lambda and M, the bound is at least the distance to the series 4 periods deeper, up to the
        # rounding of the two sums
        r_min, log_lam_u = model.min_effective_roof(0.1), math.log(abs(model.automorphism.lam_u))
        h = model.default_entropy(0.1)
        lams = (h + 0.2, h + 0.6, h + 1.5, h + 3.0, complex(h + 1.0, 2.0))
        stream = continuation._TraceStream(model, rep, lams, 0.1, n_max)
        for i, lam in enumerate(lams):
            rate = complex(lam).real * r_min
            assert rate > log_lam_u  # q < 1 above the default entropy
            for k in range(3):
                for depth in range(1, n_max - 3):
                    value, _ = continuation._log_series(stream, i, k, depth)
                    deeper, _ = continuation._log_series(stream, i, k, depth + 4)
                    bound = continuation._certified_tail(k, rate, log_lam_u, depth)
                    assert abs(value - deeper) <= bound + 2**-52 * abs(deeper), (lam, k, depth)

    def test_each_row_stops_at_its_smallest_certified_depth(self, rep_minus):
        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TABLE_ROOF)
        pol = TruncationPolicy(max_period=14, entropy=model.default_entropy())
        rate, log_lam_u = 4.0 * model.min_effective_roof(0.0), math.log(model.automorphism.lam_u)
        ruelle, *graded = toral_log_zetas(model, rep_minus, [4.0], pol)[0]
        for k, zv in enumerate(graded):
            tails = [continuation._certified_tail(k, rate, log_lam_u, depth) for depth in range(1, 15)]
            assert zv.n_used == 1 + next(i for i, tail in enumerate(tails) if tail <= pol.tail_tol) < 14
            assert zv.tail_bound == tails[zv.n_used - 1]
        assert graded[0].n_used == graded[2].n_used < graded[1].n_used == ruelle.n_used
        assert ruelle.tail_bound == sum(zv.tail_bound for zv in graded)

    @settings(max_examples=300, deadline=None)
    @given(log_lam_u=st.floats(0.01, 5.0), tail_tol_exp=st.floats(-30.0, -1.0), max_period=st.integers(1, 3000),
           gap=st.one_of(st.floats(-2.0, 3.0), st.floats(-6.0, 0.0).map(lambda e: 10.0**e)))
    def test_series_depths_match_the_linear_scan(self, log_lam_u, tail_tol_exp, max_period, gap):
        # rate - log lam_u = gap: q >= 1 at gap <= 0, and a slow fall of the tail for a tiny gap
        pol = TruncationPolicy(max_period=max_period, tail_tol=10.0**tail_tol_exp)
        rate = log_lam_u + gap
        assert continuation._series_depths(rate, log_lam_u, pol) == linear_series_depths(rate, log_lam_u, pol)

    def test_series_depths_read_log_max_period_tails(self, calls):
        # the parent scan read 244,400 tails here; the bisection reads O(log max_period) of them
        log_lam_u, pol = math.log((3 + math.sqrt(5)) / 2), TruncationPolicy(max_period=10**12)
        want = linear_series_depths(log_lam_u + 1e-4, log_lam_u, pol)
        tails = calls(continuation, "_certified_tail")
        assert continuation._series_depths(log_lam_u + 1e-4, log_lam_u, pol) == want
        assert len(tails) <= 3 * (math.ceil(math.log2(pol.max_period)) + 2)

    @pytest.mark.parametrize("entropy, lam", [(0.1, 0.8), (0.1, 0.9 + 1.0j), (None, -0.5)])
    def test_no_bound_where_q_is_one_or_more(self, entropy, lam, rep_minus):
        # a low policy entropy or allow_formal admits a lambda with q = lam_u exp(-Re(lambda) r_min) >= 1: every
        # row reads to n_max, with the modulus of its last term as a finite heuristic tail
        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TABLE_ROOF)
        assert complex(lam).real * model.min_effective_roof(0.0) <= math.log(model.automorphism.lam_u)
        pol = TruncationPolicy(max_period=7, entropy=entropy or model.default_entropy())
        rows = toral_log_zetas(model, rep_minus, [lam], pol, allow_formal=entropy is None)[0]
        cols = euler_oracle.table_columns(orbit_table(model, 7), rep_minus)
        for k, zv in enumerate(rows[1:]):
            want, scale = euler_oracle.graded(cols, k, lam, pol, depth=7)
            assert abs(zv.log_value - want.log_value) <= SERIES_TOL * scale
        for zv in rows:
            assert (zv.tail_kind, zv.n_used) == ("heuristic", 7) and 0 < zv.tail_bound < math.inf

    def test_graded_oracle_weights_finite_at_large_j(self):
        # lam_u^(6 * 200) overflows a double; the oracle's weights are taken divided through by it, so the products
        # over columns that the series replaced stay finite at any j_max
        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial.const(1.0))
        pol = TruncationPolicy(max_period=6, j_max=200, entropy=model.default_entropy())
        cols = euler_oracle.table_columns(orbit_table(model, 6))
        graded = [euler_oracle.graded(cols, k, 3.0, pol)[0] for k in range(3)]
        assert all(math.isfinite(abs(g.log_value)) for g in graded)
        # the assembly identity log zeta = -(log Z_0 - log Z_1 + log Z_2) still holds
        assembled = -(graded[0].log_value - graded[1].log_value + graded[2].log_value)
        assert euler_oracle.ruelle(cols, 3.0, pol)[0].log_value == pytest.approx(assembled, rel=1e-12)
