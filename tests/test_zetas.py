import cmath
import functools
import math

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
    orbit_records,
    poincare_data,
    ruelle_log_zeta,
    selberg_log_zeta,
    synthetic_spectrum,
    zetas,
)
from friedzeta._record import replace
from friedzeta.characters import char_label
from friedzeta.toral import orbit_table
from friedzeta.zetas import _class_angles, _det_one_minus_ps, _kleinian_iterates, _shell_tail, orbit_columns

import euler_oracle
from dump_oracle import read_records_dump
from scalar_oracle import character_value, columns_from_records
from test_toral import TABLE_CASES, TABLE_CHANGE, TABLE_ROOF


def cat_closed_form(lam, u, lam_u, lam_s):
    z = u * cmath.exp(-lam)
    return cmath.log((1 - z * lam_u) * (1 - z * lam_s) / (1 - z) ** 2)


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
        records = orbit_records(cat_model, 14)
        zv = ruelle_log_zeta(columns_from_records(records, rep_minus), lam, policy14)
        closed = cat_closed_form(lam, rep_minus.circle, cat.lam_u, cat.lam_s)
        assert abs(zv.log_value - closed) < zv.tail_bound
        assert abs(zv.log_value - closed) < 1e-12

    def test_euler_product_consistency(self, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        records = orbit_records(cat_model, 10)
        zv = ruelle_log_zeta(columns_from_records(records, rep_minus), lam, policy14)
        product = 1.0 + 0.0j
        for rec in records:
            rho = character_value(rep_minus, rec.class_exps, rec.winding)
            product *= 1 - rec.epsilon * rho * cmath.exp(-lam * rec.length)
        assert cmath.exp(zv.log_value) == pytest.approx(product, rel=1e-12)

    def test_convergence_region_enforced(self, cat_model, rep_minus, policy14):
        cols = columns_from_records(orbit_records(cat_model, 3), rep_minus)
        with pytest.raises(ConvergenceError):
            ruelle_log_zeta(cols, 0.5, policy14)
        ruelle_log_zeta(cols, 0.5, policy14, allow_formal=True)

    def test_tail_bound_decreases(self, cat_model, rep_minus):
        lam = cat_model.default_entropy() + 2.0
        tails = []
        for n_max in (6, 9, 12):
            pol = TruncationPolicy(max_period=n_max, entropy=cat_model.default_entropy())
            zv = ruelle_log_zeta(columns_from_records(orbit_records(cat_model, n_max), rep_minus), lam, pol)
            tails.append(zv.tail_bound)
        assert tails[0] > tails[1] > tails[2] > 0

    def test_tail_bound_infinite_below_entropy(self):
        assert _shell_tail(1.0, 0.5, 1.0, 2.0) == math.inf


class TestGraded:
    def test_single_orbit_k0_weight(self):
        rec = [ComplexLengthRecord(length=1.0, theta=0.0)]
        pol = TruncationPolicy(j_max=1, entropy=2.0)
        zv = graded_log_zeta(orbit_columns(rec), 0, 4.0, pol)
        expected = -math.exp(-4.0) / abs(poincare_data(1.0, 0.0, 1, 0).det_one_minus_p)
        assert zv.log_value.real == pytest.approx(expected, rel=1e-14)

    def test_weight_is_inverse_det_for_k0(self, cat_model, rep_minus):
        records = orbit_records(cat_model, 4)
        pol = TruncationPolicy(j_max=1, entropy=cat_model.default_entropy())
        lam = 4.0
        zv = graded_log_zeta(columns_from_records(records, rep_minus), 0, lam, pol)
        manual = sum(
            -character_value(rep_minus, r.class_exps, r.winding)
            * cmath.exp(-lam * r.length)
            / abs((1 - r.lam_u) * (1 - r.lam_s))
            for r in records
        )
        assert zv.log_value == pytest.approx(manual, rel=1e-13)


class TestAssembly:
    def test_suspension_sign_and_match(self, cat_model, rep_minus, policy14):
        lam = cat_model.default_entropy() + 2.0
        cols = columns_from_records(orbit_records(cat_model, 10), rep_minus)
        report = assemble_ruelle_from_graded(cols, lam, policy14)
        assert report.global_sign == -1
        assert report.max_residual < 1e-12
        direct = ruelle_log_zeta(cols, lam, policy14)
        assert abs(report.log_zeta - direct.log_value) < 1e-12

    def test_negative_eigenvalue_model(self):
        a = ((-2, -1), (-1, -1))
        model = SuspensionModel(
            __import__("friedzeta").ToralAutomorphism(a), TrigPolynomial.const(1.0)
        )
        pol = TruncationPolicy(j_max=10, entropy=model.default_entropy())
        cols = columns_from_records(orbit_records(model, 6))
        lam = model.default_entropy() + 2.0
        report = assemble_ruelle_from_graded(cols, lam, pol)
        assert report.global_sign == -1
        direct = ruelle_log_zeta(cols, lam, pol)
        assert abs(report.log_zeta - direct.log_value) < 1e-12

    def test_kleinian_sign_positive(self):
        spectrum = synthetic_spectrum(2.0, 30, 5)
        pol = TruncationPolicy(j_max=6, entropy=2.0)
        report = assemble_ruelle_from_graded(orbit_columns(spectrum), 4.0, pol)
        assert report.global_sign == 1
        assert report.max_residual < 1e-12


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


class TestRecordContracts:
    def test_dump_records_lack_eigendata_for_graded(self, cat_family, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(cat_family, 3))
        cols = orbit_columns(read_orbit_dump(path))
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        ruelle_log_zeta(cols, 4.0, pol)  # fine: needs no eigenvalues
        with pytest.raises(ValidationError):
            graded_log_zeta(cols, 0, 4.0, pol)



# ---------------------------------------------------------------------------
# The per-record loops the array path replaced, kept as its references.
# Poincare data come from the 4x4 characteristic polynomial (poincare_data),
# SO(2) characters from homogeneous sums (char_label / char_sigma).
# ---------------------------------------------------------------------------


def _loop_rho(rec, rep):
    if isinstance(rec, OrbitRecord):
        return 1.0 + 0.0j if rep is None else character_value(rep, rec.class_exps, rec.winding)
    return complex(rec.rho)


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
            chi = math.prod(char_label(label, TorusElement(2, j * rec.theta)) for label in labels)
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


def _synthetic_200():
    """200 synthetic records with multiplicities 1..3 and rho on the unit circle."""
    return [replace(r, multiplicity=1 + i % 3, rho=cmath.exp(0.7j * i))
            for i, r in enumerate(synthetic_spectrum(2.0, 200, 3))]


SELBERG_LABELS = ([IrrepLabel("sigma", 0, 2)], [IrrepLabel("sigma", 3, 2)],
                  [IrrepLabel("sigma", 2, 2), IrrepLabel("nu", 1, 2)], [IrrepLabel("nu", 2, 2)])


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
        cols = columns_from_records(records, rep)
        pol = TruncationPolicy(j_max=12, entropy=model.default_entropy())
        for lam in (model.default_entropy() + 1.5, 4.0 + 2.5j):
            zv = ruelle_log_zeta(cols, lam, pol)
            assert _close(zv.log_value, loop_ruelle(records, rep, lam, 12))
            for k in range(3):
                zv = graded_log_zeta(cols, k, lam, pol)
                assert _close(zv.log_value, loop_graded(records, rep, k, lam, 12))
        assert assemble_ruelle_from_graded(cols, 4.0, pol).max_residual == pytest.approx(
            loop_assembly_residual(records, 12), abs=1e-14
        )

    def test_model_columns_match_record_columns(self, cat_family, rep_minus):
        pol = TruncationPolicy(j_max=10, entropy=cat_family.default_entropy(0.1))
        table = orbit_table(cat_family, 8)
        for tau in (0.0, 0.1):
            from_table = ruelle_log_zeta(orbit_columns(table, rep_minus, tau), 3.5, pol)
            from_records = ruelle_log_zeta(columns_from_records(orbit_records(cat_family, 8, tau), rep_minus), 3.5, pol)
            assert from_table.log_value == from_records.log_value
            assert from_table.tail_bound == from_records.tail_bound
        # a constant roof ties every length within a period; the fiber twist tells the rows apart
        model, rep = _twisted_3211()
        model = SuspensionModel(model.automorphism, TrigPolynomial.const(1.0))
        a, b = orbit_columns(orbit_table(model, 6), rep), columns_from_records(orbit_records(model, 6), rep)
        for name in ("length", "rho", "epsilon", "lam_u", "lam_s", "det_power"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.allclose(a.rho, [character_value(rep, r.class_exps, r.winding) for r in orbit_records(model, 6)],
                           rtol=0, atol=1e-14)

    def test_dump_records(self, cat_family, rep_minus, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(cat_family, 8), 0.05)
        back, records = read_orbit_dump(path), read_records_dump(path)
        pol = TruncationPolicy(j_max=16, entropy=1.0)
        for rep in (None, rep_minus):
            zv = ruelle_log_zeta(orbit_columns(back, rep), 3.0, pol)
            assert _close(zv.log_value, loop_ruelle(records, rep, 3.0, 16))
        for name in ("length", "rho", "epsilon", "multiplicity", "lam_u", "lam_s", "det_power"):
            want = getattr(columns_from_records(records, rep_minus), name)
            assert np.array_equal(getattr(orbit_columns(back, rep_minus), name), want, equal_nan=True)

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
        report = assemble_ruelle_from_graded(cols, 3.2, pol)
        assert report.max_residual == pytest.approx(loop_assembly_residual(spectrum, 8), abs=1e-13)

    def test_graded_factors_kept_per_grid(self, rep_minus):
        """One columns object across a λ grid and a j_max change: kept ratios and phases are never stale."""
        model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))),
                                TrigPolynomial.cosine((1, 0), 0.05, constant=1.0))
        records, spectrum = orbit_records(model, 6), _mixed_spectrum()
        toral, kleinian = columns_from_records(records, rep_minus), orbit_columns(spectrum)
        h = model.default_entropy()
        labels = [IrrepLabel("sigma", 2, 2), IrrepLabel("nu", 1, 2)]
        loop_graded_kept, residual_kept = functools.cache(loop_graded), functools.cache(loop_assembly_residual)
        for j_max in (12, 5, 12):
            pol, kpol = TruncationPolicy(j_max=j_max, entropy=h), TruncationPolicy(j_max=j_max, entropy=2.0)
            for lam in (h + 1.5, 4.0 + 2.5j, h + 1.5):
                graded = [loop_graded_kept(tuple(records), rep_minus, k, lam, j_max) for k in range(3)]
                for k in range(3):
                    assert _close(graded_log_zeta(toral, k, lam, pol).log_value, graded[k])
                assembled = -sum((-1) ** k * value for k, (value, _) in enumerate(graded))
                scale = sum(scale for _, scale in graded)
                report = assemble_ruelle_from_graded(toral, lam, pol)
                assert abs(report.log_zeta - assembled) <= ORACLE_TOL * scale
                assert report.max_residual == pytest.approx(residual_kept(tuple(records), j_max), abs=1e-14)
            for lam in (3.2, 4.0 - 1.5j, 3.2):
                for k in range(5):
                    zv = graded_log_zeta(kleinian, k, lam, kpol)
                    assert _close(zv.log_value, loop_graded_kept(tuple(spectrum), None, k, lam, j_max))
                zv = selberg_log_zeta(kleinian, labels, lam, kpol)
                assert _close(zv.log_value, loop_selberg(spectrum, labels, lam, j_max))
                report = assemble_ruelle_from_graded(kleinian, lam, kpol)
                assert report.max_residual == pytest.approx(residual_kept(tuple(spectrum), j_max), abs=1e-13)

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
        assert np.array_equal(_class_angles(cols, 40), np.array(expected))

    def test_empty_spectrum(self):
        pol = TruncationPolicy(j_max=4, entropy=2.0)
        empty = orbit_columns([])
        for zv in (ruelle_log_zeta(empty, 3.0, pol), graded_log_zeta(empty, 1, 3.0, pol),
                   selberg_log_zeta(empty, IrrepLabel("sigma", 1, 2), 3.0, pol)):
            assert zv.log_value == 0 and zv.tail_bound == 0.0
            assert zv.warnings == ("empty spectrum",)
        assert factorization_residual_curve(empty, 0, 5.0, pol, []) == []
        for call in (lambda: factorization_check(empty, 0, 5.0, pol),
                     lambda: factorization_residual_curve(empty, 0, 5.0, pol, [10]),
                     lambda: assemble_ruelle_from_graded(empty, 3.0, pol)):
            with pytest.raises(ValidationError):
                call()


GROUP_TOL = 1e-14  # relative to the sum of term magnitudes: the weight groups change only the summation order


class TestWeightGroupsAgainstPerOrbitOracle:
    """Products reduced per weight group agree with the per-orbit (orbit x iterate) arrays they replaced."""

    @staticmethod
    def _sources(matrix, n_max, tmp_path):
        """(name, columns) from an orbit table, a record list and a dump, with a roof, a time change at
        tau = 0.1 and a fiber twist."""
        from friedzeta import read_orbit_dump, write_orbit_dump

        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        rep = Character.from_angle_fraction(0.3, model.automorphism.coker_orders, (1, 1))
        table = orbit_table(model, n_max)
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, table, 0.1)
        return model, [("table", orbit_columns(table, rep, 0.1)),
                       ("records", columns_from_records(orbit_records(model, n_max, 0.1), rep)),
                       ("dump", orbit_columns(read_orbit_dump(path), rep))]

    @staticmethod
    def _agree(got, want):
        value, scale = want
        assert abs(got.log_value - value.log_value) <= GROUP_TOL * scale
        assert got.tail_bound == pytest.approx(value.tail_bound, rel=GROUP_TOL)
        assert got.warnings == value.warnings
        assert (got.lam, got.kind) == (value.lam, value.kind)

    @pytest.mark.parametrize("j_max", [1, 5, 16, 17])
    @pytest.mark.parametrize("matrix, n_max", [(matrix, min(n_max, 8)) for matrix, n_max in TABLE_CASES],
                             ids=lambda case: " ".join(str(a) for row in case for a in row)
                             if isinstance(case, tuple) else str(case))
    def test_products_match_the_oracle(self, matrix, n_max, j_max, tmp_path):
        model, sources = self._sources(matrix, n_max, tmp_path)
        h = model.default_entropy(0.1)
        pol = TruncationPolicy(max_period=n_max, j_max=j_max, entropy=h)
        for name, cols in sources:
            for lam in (h + 0.3, h + 1.5, 4.0 + 2.5j):
                self._agree(ruelle_log_zeta(cols, lam, pol), euler_oracle.ruelle(cols, lam, pol))
                if name == "dump":
                    continue
                graded = [euler_oracle.graded(cols, k, lam, pol) for k in range(3)]
                for k in range(3):
                    self._agree(graded_log_zeta(cols, k, lam, pol), graded[k])
                report = assemble_ruelle_from_graded(cols, lam, pol)
                assert report.max_residual == euler_oracle.assembly_residual(cols, j_max)
                assembled = -sum((-1) ** k * value.log_value for k, (value, _) in enumerate(graded))
                assert abs(report.log_zeta - assembled) <= GROUP_TOL * sum(scale for _, scale in graded)
            if name == "dump":
                with pytest.raises(ValidationError, match="eigenvalue data"):
                    graded_log_zeta(cols, 0, h + 1.5, pol)

    @pytest.mark.parametrize("j_max", [1, 5, 16, 17])
    @pytest.mark.parametrize("spectrum", [_mixed_spectrum, _synthetic_200], ids=["mixed", "synthetic_200"])
    def test_kleinian_products_match_the_oracle(self, spectrum, j_max):
        cols = orbit_columns(spectrum())
        order, starts, rows, _ = zetas._groups(cols)  # one group per row, in row order
        assert all(np.array_equal(index, np.arange(len(cols))) for index in (order, starts, rows))
        pol = TruncationPolicy(j_max=j_max, p_max=24, entropy=2.0)
        for lam in (2.3, 4.0, 4.0 - 1.5j):
            self._agree(ruelle_log_zeta(cols, lam, pol), euler_oracle.ruelle(cols, lam, pol))
            graded = [euler_oracle.graded(cols, k, lam, pol) for k in range(5)]
            for k in range(5):
                self._agree(graded_log_zeta(cols, k, lam, pol), graded[k])
            for labels in SELBERG_LABELS:
                self._agree(selberg_log_zeta(cols, labels, lam, pol), euler_oracle.selberg(cols, labels, lam, pol))
            report = assemble_ruelle_from_graded(cols, lam, pol)
            assert report.max_residual == euler_oracle.assembly_residual(cols, j_max)
            assembled = sum((-1) ** k * value.log_value for k, (value, _) in enumerate(graded))
            assert abs(report.log_zeta - assembled) <= GROUP_TOL * sum(scale for _, scale in graded)
            for k in range(3):
                check = factorization_check(cols, k, lam, pol)
                (lhs, lhs_scale), (rhs, rhs_scale) = euler_oracle.factorization_logs(cols, k, lam, pol)
                assert abs(check.log_lhs - lhs) <= GROUP_TOL * lhs_scale
                assert abs(check.log_rhs - rhs) <= GROUP_TOL * rhs_scale

    def test_truncation_warnings_fire_on_both(self, tmp_path):
        model, sources = self._sources(((2, 1), (1, 1)), 6, tmp_path)
        pol = TruncationPolicy(max_period=6, j_max=1, entropy=model.default_entropy(0.1))
        for _, cols in sources:
            got, want = ruelle_log_zeta(cols, 2.0, pol), euler_oracle.ruelle(cols, 2.0, pol)
            assert got.warnings and got.warnings == want[0].warnings

    def test_no_orbit_by_iterate_array_per_lambda(self, tmp_path):
        # every array kept on toral columns has one row per weight group (one per period), never one per orbit
        _, sources = self._sources(((2, 1), (1, 1)), 8, tmp_path)
        cols = sources[0][1]
        pol = TruncationPolicy(max_period=8, j_max=16, entropy=1.0)
        for lam in (3.0, 4.0 + 1j):
            assemble_ruelle_from_graded(cols, lam, pol)
            ruelle_log_zeta(cols, lam, pol)
        groups = len(cols._derived["groups"][1][1])
        assert groups == 8 < len(cols)
        assert cols._derived["ratios"][1].shape == (3, groups, 16)
        assert cols._derived["group_phases"][1][0].shape == (groups, 16)
        assert "phases" not in cols._derived


def per_call_factorization_weights(cols, k, j_max, p_values):
    """The factorization weights built afresh on every call from the per-iterate helpers: the oracle of the
    kept tables."""
    if not 0 <= k <= 2:
        raise ValidationError("k must be in 0..n0")
    if min(p_values) < 0:
        raise ValidationError("truncation orders must be positive")
    a, b, c = _kleinian_iterates(cols, j_max)
    traces = (1.0, 2.0 * (a + b) * c, a * a + b * b + 4.0 * c * c)
    lhs = traces[k] / np.abs(_det_one_minus_ps(a, c) * _det_one_minus_ps(b, c))
    c_class = np.cos(_class_angles(cols, j_max))
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
        ratios, phases = cols._derived["ratios"][1], cols._derived["group_phases"][1]
        assert ratios.shape == (5, len(cols), 8)
        selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 5.0, pol)
        assemble_ruelle_from_graded(cols, 5.0, pol)
        lhs, _ = zetas._factorization_weights(cols, 2, 8, [20])
        assert lhs.base is ratios and np.array_equal(lhs, ratios[2])
        factorization_check(cols, 2, 5.0, pol)
        assert cols._derived["ratios"][1] is ratios and cols._derived["group_phases"][1] is phases

    def test_kept_arrays_are_read_only(self):
        cols = orbit_columns(_mixed_spectrum())
        pol = TruncationPolicy(j_max=8, p_max=20, entropy=2.0)
        factorization_check(cols, 1, 5.0, pol)
        selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 5.0, pol)
        assert {"iterates", "ratios", "factorization", "shells", "group_phases"} <= cols._derived.keys()
        for _, value in cols._derived.values():
            for array in value if isinstance(value, tuple) else (value,):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_terms_scale_by_reciprocal_bit_for_bit(self):
        # numpy divides a complex array by j + 0i as a product with 1/j, so the reciprocal row loses no bit;
        # Kleinian rows are one-row weight groups, so their phases are the per-orbit terms themselves
        rng = np.random.default_rng(35)
        lam = 0.3 + 0.2j
        for j_max in range(1, 41):
            n = int(rng.integers(1, 200))
            cols = zetas.OrbitColumns(rng.uniform(0.5, 5.0, n), rng.normal(size=n) + 1j * rng.normal(size=n),
                                      np.ones(n), rng.integers(1, 4, n).astype(float), theta=np.zeros(n))
            z = cols.rho * np.exp(-lam * cols.length)
            divided, power = np.empty((n, j_max), dtype=complex), z.copy()
            divided[:, 0] = power
            for j in range(1, j_max):  # powers by in-place products, as the phases take them
                power *= z
                divided[:, j] = power
            divided *= -cols.multiplicity[:, None]
            divided /= np.arange(1, j_max + 1)
            assert zetas._group_phases(cols, lam, j_max)[0].tobytes() == divided.tobytes(), j_max


class TestArrayPathGuards:
    def test_convergence_region(self):
        cols = orbit_columns(synthetic_spectrum(2.0, 5, 1))
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: ruelle_log_zeta(cols, 1.5, pol),
                     lambda: graded_log_zeta(cols, 2, 1.5, pol),
                     lambda: selberg_log_zeta(cols, IrrepLabel("nu", 1, 2), 1.9, pol)):
            with pytest.raises(ConvergenceError):
                call()

    def test_dump_records_lack_eigendata(self, cat_family, tmp_path):
        from friedzeta import read_orbit_dump, write_orbit_dump

        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(cat_family, 3))
        cols = orbit_columns(read_orbit_dump(path))
        pol = TruncationPolicy(j_max=2, entropy=1.0)
        for call in (lambda: graded_log_zeta(cols, 1, 4.0, pol),
                     lambda: assemble_ruelle_from_graded(cols, 4.0, pol)):
            with pytest.raises(ValidationError, match="eigenvalue data"):
                call()

    def test_expanding_block_limit(self):
        cols = orbit_columns([ComplexLengthRecord(length=30.0, theta=0.5)])
        fine = TruncationPolicy(j_max=10, p_max=10, entropy=2.0)
        too_long = TruncationPolicy(j_max=11, p_max=10, entropy=2.0)
        calls = (
            lambda pol: graded_log_zeta(cols, 2, 3.0, pol),
            lambda pol: selberg_log_zeta(cols, IrrepLabel("sigma", 1, 2), 3.0, pol),
            lambda pol: factorization_check(cols, 2, 5.0, pol),
            lambda pol: assemble_ruelle_from_graded(cols, 3.0, pol),
        )
        for call in calls:
            call(fine)
            with pytest.raises(ValidationError, match="j\\*ell too large"):
                call(too_long)

    def test_k_out_of_range(self, cat_model):
        toral = columns_from_records(orbit_records(cat_model, 3))
        kleinian = orbit_columns(synthetic_spectrum(2.0, 5, 1))
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        for call in (lambda: graded_log_zeta(toral, 3, 4.0, pol),
                     lambda: graded_log_zeta(kleinian, 5, 4.0, pol),
                     lambda: graded_log_zeta(kleinian, -1, 4.0, pol),
                     lambda: factorization_check(kleinian, 3, 5.0, pol),
                     lambda: factorization_residual_curve(kleinian, 3, 5.0, pol, [10])):
            with pytest.raises(ValidationError):
                call()

    def test_array_cells_are_capped(self):
        from friedzeta import CapacityError

        cols = orbit_columns(synthetic_spectrum(2.0, 2, 1))
        pol = TruncationPolicy(j_max=10_000_000, entropy=2.0)
        with pytest.raises(CapacityError):
            ruelle_log_zeta(cols, 3.0, pol)
        with pytest.raises(CapacityError):
            factorization_residual_curve(cols, 0, 5.0, replace(pol, j_max=1), [10_000_000])
        # toral columns reduce per weight group, yet orbits x j_max is refused before any group or power is built
        toral = orbit_columns(orbit_table(SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))),
                                                          TrigPolynomial.const(1.0)), 6))
        j_max = zetas.MAX_CELLS // len(toral) + 1
        message = f"^{len(toral) * j_max} array cells exceed the cap of {zetas.MAX_CELLS}"
        for call in (lambda: ruelle_log_zeta(toral, 3.0, replace(pol, j_max=j_max)),
                     lambda: graded_log_zeta(toral, 1, 3.0, replace(pol, j_max=j_max))):
            with pytest.raises(CapacityError, match=message):
                call()
            assert toral._derived == {}

    def test_overflow_is_convergence_error(self, cat_model):
        records = orbit_records(cat_model, 6)
        pol = TruncationPolicy(j_max=16, entropy=cat_model.default_entropy())
        with pytest.raises(ConvergenceError, match="leaves floating point"):
            ruelle_log_zeta(columns_from_records(records), -200.0, pol, allow_formal=True)

    def test_twist_rules(self, cat_model, rep_minus):
        table = orbit_table(cat_model, 3)
        spectrum = synthetic_spectrum(2.0, 5, 1)
        pol = TruncationPolicy(j_max=3, entropy=2.0)
        cols = orbit_columns(table, rep_minus)
        assert not cols.length.flags.writeable and not cols.rho.flags.writeable
        for call in (lambda: orbit_columns(spectrum, rep_minus),
                     lambda: orbit_columns(table, 0.5),
                     lambda: orbit_columns(table.records() + spectrum),
                     lambda: orbit_columns(spectrum, tau=0.1),
                     lambda: selberg_log_zeta(cols, IrrepLabel("nu", 0, 2), 4.0, pol),
                     lambda: factorization_check(orbit_columns(orbit_table(cat_model, 2)), 0, 5.0, pol)):
            with pytest.raises(ValidationError):
                call()
