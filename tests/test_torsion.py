import numpy as np
import pytest

from friedzeta import (
    BasedChainComplex,
    CapacityError,
    Character,
    NotAcyclicError,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    TruncationPolicy,
    ValidationError,
    chain_torsion,
    fried_check,
    fried_checks,
    mapping_cone_complex,
    mapping_torus_torsion,
)
from friedzeta import torsion
from friedzeta.errors import FriedzetaError
from friedzeta.torsion import FRIED_EXPONENT


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_acyclic_complex(rng, max_pieces=3):
    """Direct sum of shifted two-term complexes with invertible maps.

    In each degree the basis splits into target slots (hit by a piece in
    that degree) followed by source slots (mapped down by a piece one
    degree up), so compositions vanish identically.
    """
    top = int(rng.integers(2, 5))
    pieces = [
        (int(rng.integers(0, top)), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(1, max_pieces + 1)))
    ]
    target_count = [0] * (top + 1)
    source_count = [0] * (top + 1)
    for k, size in pieces:
        target_count[k] += size
        source_count[k + 1] += size
    dims = [target_count[d] + source_count[d] for d in range(top + 1)]
    boundaries = [np.zeros((dims[k], dims[k + 1]), dtype=complex) for k in range(top)]
    target_cursor = [0] * (top + 1)
    source_cursor = list(target_count)
    for k, size in pieces:
        m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        m += 3 * np.eye(size)  # keep well conditioned
        r0, c0 = target_cursor[k], source_cursor[k + 1]
        boundaries[k][r0 : r0 + size, c0 : c0 + size] = m
        target_cursor[k] += size
        source_cursor[k + 1] += size
    return BasedChainComplex(dims, boundaries)


class TestAcyclicity:
    def test_zero_complex(self):
        c = BasedChainComplex((0, 0), (np.zeros((0, 0)),))
        assert chain_torsion(c).value == 1.0

    def test_invertible_map(self):
        c = BasedChainComplex((1, 1), (np.array([[1.0]]),))
        assert chain_torsion(c).value == 1.0

    def test_zero_map_not_acyclic(self):
        c = BasedChainComplex((1, 1), (np.array([[0.0]]),))
        with pytest.raises(NotAcyclicError, match=r"homology ranks \[1, 1\]"):
            chain_torsion(c)

    def test_dd_zero_enforced(self):
        with pytest.raises(ValidationError):
            BasedChainComplex(
                (1, 1, 1), (np.array([[1.0]]), np.array([[1.0]]))
            )


class TestChainTorsion:
    def test_single_map_modulus(self):
        c = BasedChainComplex((1, 1), (np.array([[3.0 + 4.0j]]),))
        assert chain_torsion(c).modulus == pytest.approx(1 / 5.0)

    def test_shifted_dual_sum_cancels(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = complex(rng.normal(), rng.normal())
            d1 = np.array([[c, 0.0]])
            d2 = np.array([[0.0], [np.conj(c)]])
            cpx = BasedChainComplex((1, 2, 1), (d1, d2))
            assert chain_torsion(cpx).modulus == pytest.approx(1.0, rel=1e-12)

    def test_non_acyclic_rejected(self):
        with pytest.raises(NotAcyclicError):
            chain_torsion(BasedChainComplex((1, 1), (np.array([[0.0]]),)))

    def test_one_elimination_per_boundary(self, monkeypatch):
        eliminate, calls = torsion._column_pivot_elimination, []
        monkeypatch.setattr(torsion, "_column_pivot_elimination",
                            lambda m, rel_tol: calls.append(m.shape) or eliminate(m, rel_tol))
        rng = np.random.default_rng(13)
        for _ in range(5):
            cpx = random_acyclic_complex(rng)
            calls.clear()
            chain_torsion(cpx)
            assert calls == [b.shape for b in cpx.boundaries]

    def test_mapping_cone_example(self):
        a = ToralAutomorphism(((2, 1), (1, 1)))
        chi = Character.from_angle_fraction(0.5)
        cone = mapping_cone_complex(a, chi)
        # cone determinant oracle det(I + A) / |1 - u|^2
        assert chain_torsion(cone).modulus == pytest.approx(5.0 / 4.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cpx = random_acyclic_complex(rng)
            base = chain_torsion(cpx).modulus
            dims = cpx.dims
            perms = [rng.permutation(n) for n in dims]
            new_boundaries = []
            for k, b in enumerate(cpx.boundaries):
                new_boundaries.append(b[np.ix_(perms[k], perms[k + 1])])
            shuffled = BasedChainComplex(dims, new_boundaries)
            assert chain_torsion(shuffled).modulus == pytest.approx(base, rel=1e-9)

    def test_unitary_invariance_one_degree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            cpx = random_acyclic_complex(rng)
            base = chain_torsion(cpx).modulus
            k = int(rng.integers(0, len(cpx.dims)))
            n = cpx.dims[k]
            if n == 0:
                continue
            u = random_unitary(rng, n)
            mats = list(cpx.boundaries)
            if k >= 1:
                mats[k - 1] = mats[k - 1] @ u
            if k < len(mats):
                mats[k] = np.linalg.inv(u) @ mats[k]
            changed = BasedChainComplex(cpx.dims, mats, check_tol=1e-9)
            assert chain_torsion(changed).modulus == pytest.approx(base, rel=1e-9)

    def test_simple_expansion_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cpx = random_acyclic_complex(rng)
            base = chain_torsion(cpx).modulus
            k = int(rng.integers(0, len(cpx.dims) - 1))
            dims = list(cpx.dims)
            mats = [m.copy() for m in cpx.boundaries]
            # append a cancelling basis pair e (degree k), f (degree k+1), d f = e
            dims[k] += 1
            dims[k + 1] += 1
            mats[k] = np.pad(mats[k], ((0, 1), (0, 1)))
            mats[k][-1, -1] = 1.0
            if k >= 1:
                mats[k - 1] = np.pad(mats[k - 1], ((0, 0), (0, 1)))
            if k + 1 < len(mats):
                mats[k + 1] = np.pad(mats[k + 1], ((0, 1), (0, 0)))
            expanded = BasedChainComplex(dims, mats)
            assert chain_torsion(expanded).modulus == pytest.approx(base, rel=1e-9)


class TestMappingTorus:
    def test_u_minus_one_factors(self):
        a = ToralAutomorphism(((2, 1), (1, 1)))
        t = mapping_torus_torsion(a, Character.from_angle_fraction(0.5))
        assert t.modulus == pytest.approx(5.0 / 4.0, rel=1e-13)

    def test_u_i_value(self):
        a = ToralAutomorphism(((2, 1), (1, 1)))
        t = mapping_torus_torsion(a, Character.from_angle_fraction(0.25))
        assert t.modulus == pytest.approx(1.5, rel=1e-13)

    def test_trivial_character_rejected(self):
        a = ToralAutomorphism(((2, 1), (1, 1)))
        with pytest.raises(NotAcyclicError):
            mapping_torus_torsion(a, Character.from_angle_fraction(0.0))

    def test_fiber_part_has_torsion_one(self):
        # the fiber's twisted complex is acyclic, so the mapping torus's torsion is 1 at every circle part
        a = ToralAutomorphism(((3, 2), (1, 1)))
        fiber = tuple(1 if d > 1 else 0 for d in a.coker_orders)
        for circle in (1.0 + 0j, -1.0 + 0j, 1j):
            t = mapping_torus_torsion(a, Character(circle, a.coker_orders, fiber))
            assert (t.modulus, t.phase, t.value) == (1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            mapping_cone_complex(a, Character(-1.0 + 0j, a.coker_orders, fiber))

    def test_cone_agreement_random(self):
        rng = np.random.default_rng(21)
        seeds = [((2, 1), (1, 1)), ((3, 2), (1, 1)), ((1, 1), (1, 0)), ((-2, -1), (-1, -1)), ((2, 1), (3, 2))]
        count = 0
        while count < 50:
            a = ToralAutomorphism(seeds[int(rng.integers(0, len(seeds)))])
            if abs(a.det_one_minus_power(1)) > 20:
                continue
            frac = float(rng.uniform(0.05, 0.95))
            chi = Character.from_angle_fraction(frac)
            closed = mapping_torus_torsion(a, chi)
            cone = chain_torsion(mapping_cone_complex(a, chi))
            assert closed.modulus == pytest.approx(cone.modulus, rel=1e-9)
            count += 1


class TestFried:
    def test_exact_case(self, cat_model, rep_minus, policy14):
        report = fried_check(cat_model, rep_minus, policy14)
        assert report.exponent == FRIED_EXPONENT == -1
        assert report.deviation < 1e-12
        assert report.zeta_modulus == pytest.approx(report.torsion_modulus, rel=1e-12)

    def test_perturbed_roof(self, perturbed_model, rep_minus):
        pol = TruncationPolicy(max_period=14, entropy=perturbed_model.default_entropy())
        report = fried_check(perturbed_model, rep_minus, pol)
        assert report.deviation < 1e-6

    def test_torsion_independent_of_tau(self, cat_family, rep_minus):
        pol = TruncationPolicy(max_period=10, entropy=cat_family.default_entropy(0.1))
        r0 = fried_check(cat_family, rep_minus, pol, tau=0.0)
        r1 = fried_check(cat_family, rep_minus, pol, tau=0.1)
        assert r0.torsion_modulus == r1.torsion_modulus


def _outcome(check):
    """The reports, or ``(error type, message)`` where the check raises."""
    try:
        return check()
    except FriedzetaError as exc:
        return type(exc), str(exc)


def _per_tau(model, rep, taus, max_period):
    """``fried_check`` at each tau in turn, each with its own entropy, or the error of the first that raises."""
    reports = []
    for tau in taus:
        policy = TruncationPolicy(max_period=max_period, entropy=model.default_entropy(tau))
        report = _outcome(lambda: fried_check(model, rep, policy, tau))
        if isinstance(report, tuple):
            return report
        reports.append(report)
    return reports


class TestFriedChecks:
    """One zeta(0) and one torsion for a tau grid give what a fried_check per tau gives."""

    A = ToralAutomorphism(((3, 2), (1, 1)))  # coker(A - I) = Z/2, so a fiber twist exists

    @pytest.mark.parametrize("fiber", [(0, 0), (0, 1)], ids=["circle twist", "fiber twist"])
    def test_grid_is_per_tau_calls(self, fiber):
        model = SuspensionModel(self.A, TrigPolynomial.cosine((1, 0), 0.05, constant=1.0),
                                TrigPolynomial.cosine((0, 1), 0.04))
        rep = Character.from_angle_fraction(0.3, self.A.coker_orders, fiber)
        taus = (0.0, 0.05, 0.1, -0.2)
        policy = TruncationPolicy(max_period=10, entropy=model.default_entropy(0.0))
        assert fried_checks(model, rep, policy, taus) == _per_tau(model, rep, taus, 10)
        assert fried_checks(model, rep, policy, taus[1:2]) == [fried_check(model, rep, policy, taus[1])]

    def test_length_out_of_range_at_a_later_tau(self):
        # lengths near the float maximum: at tau = 1 the effective roof doubles and the period-3 orbit lengths
        # leave the float range; under a fiber twist zeta(0) reads them, so that tau raises as it does alone
        model = SuspensionModel(self.A, TrigPolynomial(4e307, ((1, 0, 1e305, 0.0),)),
                                TrigPolynomial(1.0, ((0, 1, 0.01, 0.0),)))
        rep = Character.from_angle_fraction(0.5, self.A.coker_orders, (0, 1))
        policy = TruncationPolicy(max_period=3, entropy=1.0)
        alone = _per_tau(model, rep, (1.0,), 3)
        assert alone == (CapacityError, "orbit lengths at tau=1.0 exceed the floating-point range")
        assert _per_tau(model, rep, (0.0, 1.0), 3) == alone
        assert _outcome(lambda: fried_checks(model, rep, policy, (0.0, 0.25, 1.0))) == alone
        assert fried_checks(model, rep, policy, (0.0, 0.25)) == _per_tau(model, rep, (0.0, 0.25), 3)
        # a circle twist reads fixed-point counts only, at every tau
        circle = Character.from_angle_fraction(0.5, self.A.coker_orders, (0, 0))
        assert fried_checks(model, circle, policy, (0.0, 1.0)) == _per_tau(model, circle, (0.0, 1.0), 3)

    def test_empty_grid_gives_no_reports(self, cat_model, rep_minus, policy14):
        assert fried_checks(cat_model, rep_minus, policy14, ()) == []
