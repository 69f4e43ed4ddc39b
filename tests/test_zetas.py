import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

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
    assemble_ruelle_from_graded,
    char_sigma,
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    guillemin_series,
    orbit_records,
    poincare_data,
    ruelle_log_zeta,
    selberg_log_zeta,
    synthetic_spectrum,
    transverse_wedge_traces,
)
from friedzeta.characters import char_label, char_tensor
from friedzeta.toral import orbit_table
from friedzeta.zetas import _class_angles, _tail_bound, orbit_columns


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



# ---------------------------------------------------------------------------
# The per-record loops the array path replaced, kept as its references.
# Poincare data come from the 4x4 characteristic polynomial (poincare_data),
# SO(2) characters from homogeneous sums (char_label / char_sigma).
# ---------------------------------------------------------------------------


def _loop_rho(rec, rep):
    if isinstance(rec, OrbitRecord):
        return 1.0 + 0.0j if rep is None else rep.value(rec.class_exps, rec.winding)
    return complex(rec.rho)


def _loop_det_one_minus_p(rec, j):
    if isinstance(rec, OrbitRecord):
        return (1.0 - rec.lam_u**j) * (1.0 - rec.lam_s**j)
    return poincare_data(rec.length, rec.theta, j, 0).det_one_minus_p


def _loop_wedge_trace(rec, j, k):
    if isinstance(rec, OrbitRecord):
        return transverse_wedge_traces(rec, j, k)
    return poincare_data(rec.length, rec.theta, j, k).wedge_trace


def _fsum(terms):
    """(compensated sum, sum of magnitudes) of complex terms."""
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total, math.fsum(abs(t) for t in terms)


def loop_ruelle(records, rep, lam, j_max):
    terms = []
    for rec in records:
        eps = rec.epsilon if isinstance(rec, OrbitRecord) else 1
        base = eps * _loop_rho(rec, rep) * cmath.exp(-lam * rec.length)
        terms += [-getattr(rec, "multiplicity", 1) * base**j / j for j in range(1, j_max + 1)]
    return _fsum(terms)


def loop_graded(records, rep, k, lam, j_max):
    terms = []
    for rec in records:
        rho = _loop_rho(rec, rep)
        for j in range(1, j_max + 1):
            weight = _loop_wedge_trace(rec, j, k) / abs(_loop_det_one_minus_p(rec, j))
            phase = rho**j * cmath.exp(-lam * j * rec.length)
            terms.append(-getattr(rec, "multiplicity", 1) * phase * weight / j)
    return _fsum(terms)


def loop_selberg(records, labels, lam, j_max):
    terms = []
    for rec in records:
        for j in range(1, j_max + 1):
            chi = char_tensor(labels, TorusElement(2, j * rec.theta))
            det_ps = poincare_data(rec.length, rec.theta, j, 0).det_one_minus_ps
            phase = rec.rho**j * cmath.exp(-lam * j * rec.length)
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
            phase = -rec.multiplicity * rec.rho**j * cmath.exp(-lam * j * ell) / j
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
    """Multiplicities above 1, rho != 1, theta = 0 and theta = pi among synthetic records."""
    hand = [
        ComplexLengthRecord(length=1.1, theta=0.0, multiplicity=3, rho=0.6 + 0.8j, label="a"),
        ComplexLengthRecord(length=1.3, theta=math.pi, multiplicity=2, rho=-1.0 + 0.0j, label="b"),
        ComplexLengthRecord(length=1.7, theta=0.4, multiplicity=1, rho=1j, label="c"),
    ]
    synthetic = [replace(r, multiplicity=1 + i % 3, rho=cmath.exp(0.7j * i))
                 for i, r in enumerate(synthetic_spectrum(2.0, 25, 11))]
    return hand + synthetic


class TestArrayPathAgainstLoops:
    """The array reductions agree with the per-record loops they replaced."""

    @pytest.mark.parametrize("source", ["cat_half", "twisted_3211", "negative", "det_minus_one"])
    def test_toral_ruelle_and_graded(self, source, cat_model, rep_minus):
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
        pol = TruncationPolicy(j_max=12, entropy=model.default_entropy())
        for lam in (model.default_entropy() + 1.5, 4.0 + 2.5j):
            zv = ruelle_log_zeta(records, rep, lam, pol)
            assert _close(zv.log_value, loop_ruelle(records, rep, lam, 12))
            for k in range(3):
                zv = graded_log_zeta(records, rep, k, lam, pol)
                assert _close(zv.log_value, loop_graded(records, rep, k, lam, 12))
        assert assemble_ruelle_from_graded(records, rep, 4.0, pol).max_residual == pytest.approx(
            loop_assembly_residual(records, 12), abs=1e-14
        )

    def test_model_columns_match_record_columns(self, cat_family, rep_minus):
        pol = TruncationPolicy(j_max=10, entropy=cat_family.default_entropy(0.1))
        table = orbit_table(cat_family, 8)
        for tau in (0.0, 0.1):
            from_table = ruelle_log_zeta(orbit_columns(table, rep_minus, tau), None, 3.5, pol)
            from_records = ruelle_log_zeta(orbit_records(cat_family, 8, tau), rep_minus, 3.5, pol)
            assert from_table.log_value == from_records.log_value
            assert from_table.tail_bound == from_records.tail_bound
        # a constant roof ties every length within a period; the fiber twist tells the rows apart
        model, rep = _twisted_3211()
        model = SuspensionModel(model.automorphism, TrigPolynomial.const(1.0))
        a, b = orbit_columns(orbit_table(model, 6), rep), orbit_columns(orbit_records(model, 6), rep)
        for name in ("length", "rho", "epsilon", "lam_u", "lam_s", "det_power"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        in_order = sorted(orbit_records(model, 6), key=lambda r: r.sort_key())
        assert np.allclose(a.rho, [rep.value(r.class_exps, r.winding) for r in in_order], rtol=0, atol=1e-14)

    def test_dump_records(self, cat_family, rep_minus, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_records(cat_family, 8, tau=0.05))
        back = read_orbit_dump(path)
        pol = TruncationPolicy(j_max=16, entropy=1.0)
        for rep in (None, rep_minus):
            assert _close(ruelle_log_zeta(back, rep, 3.0, pol).log_value, loop_ruelle(back, rep, 3.0, 16))

    def test_kleinian_graded_and_selberg(self):
        spectrum = _mixed_spectrum()
        pol = TruncationPolicy(j_max=8, entropy=2.0)
        for lam in (3.2, 4.0 - 1.5j):
            zv = ruelle_log_zeta(spectrum, None, lam, pol)
            assert _close(zv.log_value, loop_ruelle(spectrum, None, lam, 8))
            for k in range(5):
                zv = graded_log_zeta(spectrum, None, k, lam, pol)
                assert _close(zv.log_value, loop_graded(spectrum, None, k, lam, 8))
            for labels in ([IrrepLabel("sigma", 0, 2)], [IrrepLabel("sigma", 3, 2)],
                           [IrrepLabel("sigma", 2, 2), IrrepLabel("nu", 1, 2)], [IrrepLabel("nu", 2, 2)]):
                zv = selberg_log_zeta(spectrum, None, labels, lam, pol)
                assert _close(zv.log_value, loop_selberg(spectrum, labels, lam, 8))
        report = assemble_ruelle_from_graded(spectrum, None, 3.2, pol)
        assert report.max_residual == pytest.approx(loop_assembly_residual(spectrum, 8), abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_factorization(self, k):
        spectrum = _mixed_spectrum()
        pol = TruncationPolicy(j_max=4, p_max=24, entropy=2.0)
        report = factorization_check(spectrum, None, k, 5.0 + 0.5j, pol)
        log_lhs, log_rhs, scale, max_abs, max_rel = loop_factorization(spectrum, k, 5.0 + 0.5j, 4, 24)
        assert abs(report.log_lhs - log_lhs) <= ORACLE_TOL * scale
        assert abs(report.log_rhs - log_rhs) <= ORACLE_TOL * scale
        assert report.max_rel_residual == pytest.approx(max_rel, rel=1e-6, abs=1e-13)
        assert report.max_abs_residual == pytest.approx(max_abs, rel=1e-6, abs=1e-13)
        curve = factorization_residual_curve(spectrum, None, k, 5.0, pol, [0, 1, 2, 5, 9, 16])
        assert [p for p, _ in curve] == [0, 1, 2, 5, 9, 16]
        for p, rel in curve:
            assert rel == pytest.approx(loop_factorization(spectrum, k, 5.0, 4, p)[4], rel=1e-6, abs=1e-13)

    def test_characters_take_the_class_angle(self):
        # characters see j*theta reduced as TorusElement reduces it, bit for bit
        cols = orbit_columns(_mixed_spectrum())
        expected = [[TorusElement(2, j * theta).angles[0] for j in range(1, 41)] for theta in cols.theta]
        assert np.array_equal(_class_angles(cols, 40), np.array(expected))

    def test_empty_spectrum(self):
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        for zv in (ruelle_log_zeta([], None, 3.0, pol), graded_log_zeta([], None, 1, 3.0, pol),
                   selberg_log_zeta([], None, IrrepLabel("sigma", 1, 2), 3.0, pol)):
            assert zv.log_value == 0 and zv.tail_bound == 0.0
            assert zv.warnings == ("empty spectrum",)
        assert factorization_residual_curve([], None, 0, 5.0, pol, []) == []
        for call in (lambda: factorization_check([], None, 0, 5.0, pol),
                     lambda: factorization_residual_curve([], None, 0, 5.0, pol, [10]),
                     lambda: assemble_ruelle_from_graded([], None, 3.0, pol)):
            with pytest.raises(ValidationError):
                call()


class TestArrayPathGuards:
    def test_convergence_region(self):
        spectrum = synthetic_spectrum(2.0, 5, 1)
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: ruelle_log_zeta(spectrum, None, 1.5, pol),
                     lambda: graded_log_zeta(spectrum, None, 2, 1.5, pol),
                     lambda: selberg_log_zeta(spectrum, None, IrrepLabel("nu", 1, 2), 1.9, pol)):
            with pytest.raises(ConvergenceError):
                call()

    def test_dump_records_lack_eigendata(self, cat_family, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_records(cat_family, 3))
        back = read_orbit_dump(path)
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        for call in (lambda: graded_log_zeta(back, None, 1, 4.0, pol),
                     lambda: assemble_ruelle_from_graded(back, None, 4.0, pol),
                     lambda: guillemin_series(back, None, 0, 3.0)):
            with pytest.raises(ValidationError, match="eigenvalue data"):
                call()

    def test_expanding_block_limit(self):
        spectrum = [ComplexLengthRecord(length=30.0, theta=0.5)]
        fine = TruncationPolicy(j_max=10, p_max=10, entropy=2.0)
        too_long = TruncationPolicy(j_max=11, p_max=10, entropy=2.0)
        calls = (
            lambda pol: graded_log_zeta(spectrum, None, 2, 3.0, pol),
            lambda pol: selberg_log_zeta(spectrum, None, IrrepLabel("sigma", 1, 2), 3.0, pol),
            lambda pol: factorization_check(spectrum, None, 2, 5.0, pol),
            lambda pol: assemble_ruelle_from_graded(spectrum, None, 3.0, pol),
        )
        for call in calls:
            call(fine)
            with pytest.raises(ValidationError, match="j\\*ell too large"):
                call(too_long)

    def test_k_out_of_range(self, cat_model):
        records = orbit_records(cat_model, 3)
        spectrum = synthetic_spectrum(2.0, 5, 1)
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: graded_log_zeta(records, None, 3, 4.0, pol),
                     lambda: graded_log_zeta(spectrum, None, 5, 4.0, pol),
                     lambda: graded_log_zeta(spectrum, None, -1, 4.0, pol),
                     lambda: factorization_check(spectrum, None, 3, 5.0, pol),
                     lambda: factorization_residual_curve(spectrum, None, 3, 5.0, pol, [10])):
            with pytest.raises(ValidationError):
                call()

    def test_insufficient_p_max(self):
        spectrum = synthetic_spectrum(2.0, 10, 3)
        enough = TruncationPolicy(j_max=2, p_max=40, entropy=2.0)
        factorization_check(spectrum, None, 0, 5.0, enough, required_tolerance=1e-10)
        with pytest.raises(ConvergenceError, match="insufficient p_max"):
            factorization_check(spectrum, None, 0, 5.0, replace(enough, p_max=5), required_tolerance=1e-10)

    def test_array_cells_are_capped(self):
        from friedzeta import CapacityError

        spectrum = synthetic_spectrum(2.0, 2, 1)
        pol = TruncationPolicy(j_max=10_000_000, entropy=2.0)
        with pytest.raises(CapacityError):
            ruelle_log_zeta(spectrum, None, 3.0, pol)
        with pytest.raises(CapacityError):
            factorization_residual_curve(spectrum, None, 0, 5.0, replace(pol, j_max=1), [10_000_000])

    def test_overflow_is_convergence_error(self, cat_model):
        records = orbit_records(cat_model, 6)
        pol = TruncationPolicy(j_max=16, entropy=cat_model.default_entropy())
        with pytest.raises(ConvergenceError, match="leaves floating point"):
            ruelle_log_zeta(records, None, -200.0, pol, allow_formal=True)

    def test_twist_rules(self, cat_model, rep_minus):
        records = orbit_records(cat_model, 3)
        spectrum = synthetic_spectrum(2.0, 5, 1)
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        cols = orbit_columns(records, rep_minus)
        assert not cols.length.flags.writeable and not cols.rho.flags.writeable
        assert ruelle_log_zeta(cols, None, 4.0, pol) == ruelle_log_zeta(records, rep_minus, 4.0, pol)
        for call in (lambda: ruelle_log_zeta(cols, rep_minus, 4.0, pol),
                     lambda: ruelle_log_zeta(spectrum, rep_minus, 4.0, pol),
                     lambda: ruelle_log_zeta(records, 0.5, 4.0, pol),
                     lambda: ruelle_log_zeta(records + spectrum, None, 4.0, pol),
                     lambda: orbit_columns(records, rep_minus, tau=0.1),
                     lambda: selberg_log_zeta(records, None, IrrepLabel("nu", 0, 2), 4.0, pol)):
            with pytest.raises(ValidationError):
                call()
