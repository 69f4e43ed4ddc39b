import cmath
import math

import numpy as np
import pytest

from friedzeta import (
    ComplexLengthRecord,
    ValidationError,
    ConvergenceError,
    IrrepLabel,
    SuspensionModel,
    TrigPolynomial,
    TruncationPolicy,
    assemble_ruelle_from_graded,
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    guillemin_series,
    orbit_records,
    poincare_data,
    ruelle_log_zeta,
    selberg_log_zeta,
    synthetic_spectrum,
)
from friedzeta.zetas import _tail_bound


def cat_closed_form(lam, u, lam_u, lam_s):
    z = u * cmath.exp(-lam)
    return cmath.log((1 - z * lam_u) * (1 - z * lam_s) / (1 - z) ** 2)


class TestRuelle:
    def test_empty_spectrum(self):
        zv = ruelle_log_zeta([], None, 3.0, TruncationPolicy(entropy=1.0))
        assert zv.log_value == 0
        assert "empty spectrum" in zv.warnings

    def test_single_euler_factor(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        zv = ruelle_log_zeta(rec, None, 1.0, TruncationPolicy(j_max=80, entropy=0.5))
        assert zv.log_value.real == pytest.approx(math.log(1 - math.exp(-1)), rel=1e-14)

    def test_cat_map_closed_form(self, cat, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        records = orbit_records(cat_model, 14)
        zv = ruelle_log_zeta(records, rep_minus, lam, policy14)
        closed = cat_closed_form(lam, rep_minus.circle, cat.lam_u, cat.lam_s)
        assert abs(zv.log_value - closed) < zv.tail_bound
        assert abs(zv.log_value - closed) < 1e-12

    def test_euler_product_consistency(self, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        records = orbit_records(cat_model, 10)
        zv = ruelle_log_zeta(records, rep_minus, lam, policy14)
        product = 1.0 + 0.0j
        for rec in records:
            rho = rep_minus.value(rec.class_exps, rec.winding)
            product *= 1 - rec.epsilon * rho * cmath.exp(-lam * rec.length)
        assert cmath.exp(zv.log_value) == pytest.approx(product, rel=1e-12)

    def test_convergence_region_enforced(self, cat_model, rep_minus, policy14):
        records = orbit_records(cat_model, 3)
        with pytest.raises(ConvergenceError):
            ruelle_log_zeta(records, rep_minus, 0.5, policy14)
        ruelle_log_zeta(records, rep_minus, 0.5, policy14, allow_formal=True)

    def test_tail_bound_decreases(self, cat_model, rep_minus):
        lam = cat_model.default_entropy() + 2.0
        tails = []
        for n_max in (6, 9, 12):
            pol = TruncationPolicy(max_period=n_max, entropy=cat_model.default_entropy())
            zv = ruelle_log_zeta(orbit_records(cat_model, n_max), rep_minus, lam, pol)
            tails.append(zv.tail_bound)
        assert tails[0] > tails[1] > tails[2] > 0

    def test_tail_bound_infinite_below_entropy(self):
        assert _tail_bound([1.0], [0.5], 1.0, 2.0) == math.inf


class TestGraded:
    def test_single_orbit_k0_weight(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        pol = TruncationPolicy(j_max=1, entropy=2.0)
        zv = graded_log_zeta(rec, None, 0, 4.0, pol)
        expected = -math.exp(-4.0) / abs(poincare_data(1.0, 0.0, 1, 0).det_one_minus_p)
        assert zv.log_value.real == pytest.approx(expected, rel=1e-14)

    def test_weight_is_inverse_det_for_k0(self, cat_model, rep_minus):
        records = orbit_records(cat_model, 4)
        pol = TruncationPolicy(j_max=1, entropy=cat_model.default_entropy())
        lam = 4.0
        zv = graded_log_zeta(records, rep_minus, 0, lam, pol)
        manual = sum(
            -rep_minus.value(r.class_exps, r.winding)
            * cmath.exp(-lam * r.length)
            / abs((1 - r.lam_u) * (1 - r.lam_s))
            for r in records
        )
        assert zv.log_value == pytest.approx(manual, rel=1e-13)


class TestAssembly:
    def test_suspension_sign_and_match(self, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        records = orbit_records(cat_model, 10)
        report = assemble_ruelle_from_graded(records, rep_minus, lam, policy14)
        assert report.global_sign == -1
        assert report.max_residual < 1e-12
        direct = ruelle_log_zeta(records, rep_minus, lam, policy14)
        assert abs(report.log_zeta - direct.log_value) < 1e-12

    def test_negative_eigenvalue_model(self):
        a = ((-2, -1), (-1, -1))
        model = SuspensionModel(
            __import__("friedzeta").ToralAutomorphism(a), TrigPolynomial.const(1.0)
        )
        pol = TruncationPolicy(j_max=10, entropy=model.default_entropy())
        records = orbit_records(model, 6)
        lam = model.default_entropy() + 2.0
        report = assemble_ruelle_from_graded(records, None, lam, pol)
        assert report.global_sign == -1
        direct = ruelle_log_zeta(records, None, lam, pol)
        assert abs(report.log_zeta - direct.log_value) < 1e-12

    def test_kleinian_sign_positive(self):
        spectrum = synthetic_spectrum(2.0, 30, 5)
        pol = TruncationPolicy(j_max=6, entropy=2.0)
        report = assemble_ruelle_from_graded(spectrum, None, 4.0, pol)
        assert report.global_sign == 1
        assert report.max_residual < 1e-12


class TestSelberg:
    def test_sigma0_theta0_weight(self):
        rec = [ComplexLengthRecord(length=1.2, theta=0.0)]
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        lam = 3.5
        zv = selberg_log_zeta(rec, None, IrrepLabel("sigma", 0, 2), lam, pol)
        manual = -sum(
            math.exp(-lam * j * 1.2) / (j * (1 - math.exp(-j * 1.2)) ** 2) for j in (1, 2, 3, 4)
        )
        assert zv.log_value.real == pytest.approx(manual, rel=1e-14)

    def test_hand_summed_example(self):
        rec = [ComplexLengthRecord(length=2.0, theta=1.0)]
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        zv = selberg_log_zeta(rec, None, IrrepLabel("sigma", 1, 2), 3.0, pol)
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
        zv = selberg_log_zeta(rec, None, mu, 4.0, pol)
        manual = -((2 * math.cos(0.6)) ** 2) * math.exp(-4.0 * 1.4) / poincare_data(
            1.4, 0.6, 1, 0
        ).det_one_minus_ps
        assert zv.log_value.real == pytest.approx(manual, rel=1e-13)

    def test_convergence_needs_n0(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        with pytest.raises(ConvergenceError):
            selberg_log_zeta(rec, None, IrrepLabel("sigma", 0, 2), 1.5, pol)
        selberg_log_zeta(rec, None, IrrepLabel("sigma", 0, 2), 1.5, pol, allow_formal=True)

    def test_branch_choice_invisible(self):
        # characters used downstream are even in theta
        pol = TruncationPolicy(j_max=5, entropy=2.0)
        for mu in (IrrepLabel("sigma", 2, 2), [IrrepLabel("nu", 1, 2), IrrepLabel("nu", 1, 2)]):
            a = selberg_log_zeta([ComplexLengthRecord(length=1.0, theta=0.9)], None, mu, 3.0, pol)
            b = selberg_log_zeta([ComplexLengthRecord(length=1.0, theta=-0.9)], None, mu, 3.0, pol)
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
        report = factorization_check(rec, None, k, 5.0, pol)
        assert report.max_rel_residual < 1e-10
        for j in (1, 2, 3):
            lhs = poincare_data(ell, theta, j, k).wedge_trace / abs(
                poincare_data(ell, theta, j, 0).det_one_minus_p
            )
            rhs = single_orbit_factorization_oracle(ell, theta, k, j, 60)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_log_products_match(self):
        spectrum = synthetic_spectrum(2.0, 60, 3)
        pol = TruncationPolicy(j_max=5, p_max=60, entropy=2.0)
        for k in (0, 1, 2):
            report = factorization_check(spectrum, None, k, 5.0, pol)
            assert abs(report.log_lhs - report.log_rhs) < 1e-12
            assert report.max_rel_residual < 1e-10

    def test_nu2_equivalent_to_nu0(self):
        # honoring the rank-2 equivalence: characters coincide pointwise
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        rec = [ComplexLengthRecord(length=1.1, theta=0.7)]
        a = selberg_log_zeta(rec, None, IrrepLabel("nu", 2, 2), 3.0, pol)
        b = selberg_log_zeta(rec, None, IrrepLabel("nu", 0, 2), 3.0, pol)
        assert a.log_value == b.log_value

    def test_residual_decays_with_p_max(self):
        spectrum = synthetic_spectrum(2.0, 40, 17)
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        curve = factorization_residual_curve(spectrum, None, 1, 5.0, pol, [10, 20, 40])
        ell_min = min(r.length for r in spectrum)
        usable = [(p, r) for p, r in curve if r > 1e-13]
        assert len(usable) >= 2
        ps = np.array([p for p, _ in usable], dtype=float)
        rs = np.log(np.array([r for _, r in usable]))
        slope = np.polyfit(ps, rs, 1)[0]
        assert slope <= -ell_min / 1.5

    def test_insufficient_p_max_raises(self):
        spectrum = synthetic_spectrum(2.0, 10, 3)
        pol = TruncationPolicy(j_max=2, p_max=5, entropy=2.0)
        with pytest.raises(ConvergenceError):
            factorization_check(spectrum, None, 0, 5.0, pol, required_tolerance=1e-10)

    def test_theta_zero_coefficient_count(self):
        # at theta=0 the symmetric block sums to r+1 copies per exponent shell,
        # reproducing the expanding-side geometric square
        ell = 1.3
        rec = [ComplexLengthRecord(length=ell, theta=0.0)]
        pol = TruncationPolicy(j_max=1, p_max=200, entropy=2.0)
        report = factorization_check(rec, None, 0, 5.0, pol)
        assert report.max_rel_residual < 1e-12


class TestGuilleminSeries:
    def test_empty(self):
        assert guillemin_series([], None, 0, 5.0) == []

    def test_identity_weights_k0(self, cat_model, rep_minus):
        records = orbit_records(cat_model, 3)
        entries = guillemin_series(records, rep_minus, 0, 3.5)
        times = [round(t, 9) for t, _ in entries]
        # periods 1,2,3 with multiplicities 1,2,5 plus iterates of the fixed point
        assert times.count(1.0) == 1
        assert times.count(2.0) == 3  # j=2 of the fixed point + two primitive orbits
        assert times.count(3.0) == 6  # j=3 of the fixed point + five primitive orbits
        assert times == sorted(times)

    def test_coefficient_value(self, cat_model, rep_minus):
        records = [r for r in orbit_records(cat_model, 1)]
        entries = guillemin_series(records, rep_minus, 0, 1.0)
        rec = records[0]
        expected = rep_minus.value(rec.class_exps, rec.winding) / abs(
            (1 - rec.lam_u) * (1 - rec.lam_s)
        )
        assert entries[0][1] == pytest.approx(expected, rel=1e-13)

    def test_matrix_weights(self, cat_model):
        records = orbit_records(cat_model, 2)
        ident = guillemin_series(records, None, 1, 2.5)
        via_matrix = guillemin_series(records, None, 1, 2.5, a_weights=lambda r, j, k: np.eye(3))
        for (t1, c1), (t2, c2) in zip(ident, via_matrix):
            assert t1 == t2
            assert c1 == pytest.approx(c2, rel=1e-12)


class TestRecordContracts:
    def test_dump_records_lack_eigendata_for_graded(self, cat_family, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_records(cat_family, 3))
        back = read_orbit_dump(path)
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        ruelle_log_zeta(back, None, 4.0, pol)  # fine: needs no eigenvalues
        with pytest.raises(ValidationError):
            graded_log_zeta(back, None, 0, 4.0, pol)

