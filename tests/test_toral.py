import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from friedzeta import (
    Character,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    ValidationError,
    fixed_points,
    holonomy,
    homology_class,
    orbit_length,
    orbit_records,
    orientation_index,
    primitive_orbits,
    read_orbit_dump,
    transverse_wedge_traces,
    validate_anosov,
    variation_coefficient,
    write_orbit_dump,
)
from friedzeta.toral import smith_normal_form


def brute_force_fixed_count(matrix, n):
    """Independent oracle: enumerate all residues over the determinant lattice."""
    a = ToralAutomorphism(matrix)
    an = a.power(n)
    det = abs(a.det_one_minus_power(n))
    count = 0
    for i in range(det):
        for j in range(det):
            x1 = ((an[0][0] - 1) * i + an[0][1] * j) % det
            x2 = (an[1][0] * i + (an[1][1] - 1) * j) % det
            if x1 == 0 and x2 == 0:
                count += 1
    return count


class TestValidation:
    def test_cat_map_accepted(self):
        diag = validate_anosov(((2, 1), (1, 1)))
        assert diag.hyperbolic
        assert diag.det == 1
        assert diag.lam_u == pytest.approx((3 + math.sqrt(5)) / 2)

    def test_parabolic_rejected(self):
        diag = validate_anosov(((1, 1), (0, 1)))
        assert not diag.hyperbolic
        assert "not Anosov" in diag.reason

    def test_unit_circle_rejected(self):
        diag = validate_anosov(((0, 1), (1, 0)))
        assert not diag.hyperbolic

    def test_non_unimodular_rejected(self):
        diag = validate_anosov(((2, 0), (0, 2)))
        assert not diag.hyperbolic
        assert "unimodular" in diag.reason

    def test_det_minus_one_accepted(self):
        assert validate_anosov(((1, 1), (1, 0))).hyperbolic


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "m", [((1, 1), (1, 0)), ((2, 2), (1, 0)), ((4, 3), (3, 1)), ((0, 0), (0, 0)), ((6, 4), (2, 8))]
    )
    def test_decomposition(self, m):
        u, d, v = smith_normal_form(m)

        def mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
            )

        assert mul(mul(u, m), v) == d
        assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
        assert abs(v[0][0] * v[1][1] - v[0][1] * v[1][0]) == 1
        assert d[0][1] == d[1][0] == 0
        d1, d2 = d[0][0], d[1][1]
        assert d1 >= 0 and d2 >= 0
        if d1 > 0:
            assert d2 % d1 == 0

    def test_cat_coker_trivial(self, cat):
        assert cat.coker_orders == (1, 1)

    def test_z2_coker(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        assert sorted(a.coker_orders) == [1, 2]


class TestFixedPoints:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 5), (4, 45)])
    def test_cat_counts(self, cat, n, expected):
        pts = fixed_points(cat, n)
        assert pts.count == expected
        # trace identity |tr(A^n) - 2| for det 1
        an = cat.power(n)
        assert pts.count == abs(an[0][0] + an[1][1] - 2)

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((3, 2), (1, 1))])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_brute_force(self, matrix, n):
        assert fixed_points(matrix, n).count == brute_force_fixed_count(matrix, n)

    def test_points_are_fixed(self, cat):
        pts = fixed_points(cat, 3)
        an = cat.power(3)
        for p, q in zip(pts.num1, pts.num2):
            x1 = ((an[0][0] - 1) * int(p) + an[0][1] * int(q)) % pts.den
            x2 = (an[1][0] * int(p) + (an[1][1] - 1) * int(q)) % pts.den
            assert x1 == 0 and x2 == 0

    def test_sorted_and_distinct(self, cat):
        pts = fixed_points(cat, 4)
        keys = [(int(p), int(q)) for p, q in zip(pts.num1, pts.num2)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestPrimitiveOrbits:
    def test_cat_counts(self, cat):
        orbits = primitive_orbits(cat, 4)
        counts = Counter(o.period for o in orbits)
        assert counts == {1: 1, 2: 2, 3: 5, 4: 10}

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((-2, -1), (-1, -1))])
    def test_orbit_count_identity(self, matrix):
        a = ToralAutomorphism(matrix)
        orbits = primitive_orbits(a, 8)
        prim = Counter(o.period for o in orbits)
        for n in range(1, 9):
            total = sum(d * prim.get(d, 0) for d in range(1, n + 1) if n % d == 0)
            assert total == abs(a.det_one_minus_power(n))

    def test_determinism(self, cat):
        a = primitive_orbits(cat, 6)
        b = primitive_orbits(cat, 6)
        assert a == b


class TestLengthsAndVariation:
    def test_constant_roof_lengths(self, cat_model):
        for rec in orbit_records(cat_model, 4):
            assert rec.length == pytest.approx(rec.period, abs=0)

    def test_tau_zero_is_unperturbed(self, cat_family):
        rec = orbit_records(cat_family, 3, tau=0.0)
        rec0 = orbit_records(SuspensionModel(cat_family.automorphism, cat_family.roof), 3)
        assert [r.length for r in rec] == [r.length for r in rec0]

    def test_fixed_point_length_example(self, cat_family):
        rec = next(r for r in orbit_records(cat_family, 1, tau=0.1) if r.period == 1)
        assert rec.length == pytest.approx(1.005, abs=1e-15)

    def test_variation_coefficient_examples(self, cat_family, cat_model):
        rec = orbit_records(cat_family, 1, tau=0.0)[0]
        assert variation_coefficient(cat_family, rec, 0.0) == pytest.approx(-0.05, abs=1e-15)
        assert variation_coefficient(cat_model, rec, 0.0) == 0.0

    def test_constant_time_change_linearity(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(0.25))
        recs = orbit_records(model, 3)
        for rec in recs:
            assert variation_coefficient(model, rec, 0.0) == pytest.approx(-0.25 * rec.period)

    def test_matches_finite_differences(self, cat):
        rng = np.random.default_rng(5)
        model = SuspensionModel(
            cat,
            TrigPolynomial(1.0, ((1, 0, 0.07, 0.0), (0, 1, 0.0, 0.05))),
            TrigPolynomial(0.2, ((1, 1, 0.04, 0.03),)),
        )
        recs = orbit_records(model, 6)
        step = 1e-5
        for rec in rng.choice(len(recs), size=min(100, len(recs)), replace=False):
            rec = recs[int(rec)]
            tau = float(rng.uniform(-0.5, 0.5))
            fd = (orbit_length(model, rec, tau + step) - orbit_length(model, rec, tau - step)) / (
                2 * step
            )
            coeff = variation_coefficient(model, rec, tau)
            assert coeff == pytest.approx(-fd, rel=1e-8)

    def test_tau_outside_range_rejected(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(1.0))
        with pytest.raises(ValidationError):
            orbit_length(model, orbit_records(model, 1)[0], -1.5)

    def test_roof_positivity_enforced(self, cat):
        with pytest.raises(ValidationError):
            SuspensionModel(cat, TrigPolynomial.cosine((1, 0), 2.0, constant=1.0))


class TestHomologyAndHolonomy:
    def test_fixed_point_trivial_class(self, cat):
        cls, winding = homology_class(cat, (0, 0), 1, 1)
        assert winding == 1
        assert cls == (0, 0)

    def test_class_independent_of_point(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        for orbit in primitive_orbits(a, 5):
            pts = [(orbit.num1, orbit.num2)]
            x1, x2 = orbit.num1, orbit.num2
            for _ in range(orbit.period - 1):
                x1, x2 = (
                    (a.matrix[0][0] * x1 + a.matrix[0][1] * x2) % orbit.den,
                    (a.matrix[1][0] * x1 + a.matrix[1][1] * x2) % orbit.den,
                )
                pts.append((x1, x2))
            classes = {homology_class(a, p, orbit.den, orbit.period) for p in pts}
            assert len(classes) == 1

    def test_nontrivial_fiber_character(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        orders = a.coker_orders
        exps = tuple(1 if d == 2 else 0 for d in orders)
        chi = Character(1.0 + 0.0j, orders, exps)
        values = set()
        for orbit in primitive_orbits(a, 4):
            cls = homology_class(a, (orbit.num1, orbit.num2), orbit.den, orbit.period)
            values.add(round(holonomy(chi, cls).real, 9))
        assert values == {-1.0, 1.0}

    def test_holonomy_multiplicative(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        chi = Character.from_angle_fraction(0.3, a.coker_orders, (0, 1))
        c1 = ((0, 1), 2)
        c2 = ((0, 1), 3)
        csum = ((0, 0), 5)  # exponents add mod 2
        assert holonomy(chi, c1) * holonomy(chi, c2) == pytest.approx(holonomy(chi, csum))

    def test_winding_character(self, cat):
        chi = Character.from_angle_fraction(0.5)
        assert holonomy(chi, ((0, 0), 3)).real == pytest.approx(-1.0)
        assert holonomy(Character.from_angle_fraction(0.0), ((0, 0), 7)) == pytest.approx(1.0)


class TestOrientationAndWedge:
    def test_cat_positive(self, cat):
        for n in range(1, 6):
            assert orientation_index(cat, n) == 1

    def test_negative_unstable(self):
        a = ((-2, -1), (-1, -1))
        assert orientation_index(a, 1) == -1
        assert orientation_index(a, 2) == 1

    def test_wedge_traces(self, cat_model):
        rec = orbit_records(cat_model, 1)[0]
        assert transverse_wedge_traces(rec, 1, 0) == 1.0
        assert transverse_wedge_traces(rec, 1, 1) == pytest.approx(3.0)
        assert transverse_wedge_traces(rec, 1, 2) == pytest.approx(1.0)

    def test_alternating_identity(self, cat_model):
        for rec in orbit_records(cat_model, 10):
            for j in (1, 2, 3):
                alt = sum((-1) ** k * transverse_wedge_traces(rec, j, k) for k in range(3))
                det = (1 - rec.lam_u**j) * (1 - rec.lam_s**j)
                assert alt == pytest.approx(det, rel=1e-12)

    def test_epsilon_matches_eigenvalue_sign(self):
        a = ToralAutomorphism(((-2, -1), (-1, -1)))
        model = SuspensionModel(a, TrigPolynomial.const(1.0))
        for rec in orbit_records(model, 4):
            assert rec.epsilon == (1 if rec.lam_u > 0 else -1)


class TestOrbitDump:
    def test_round_trip(self, cat_family, tmp_path):
        records = orbit_records(cat_family, 5, tau=0.08)
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, records)
        text = path.read_text()
        assert text.startswith("#fried-orbits v1\n")
        back = read_orbit_dump(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert (a.period, a.num1, a.num2, a.den) == (b.period, b.num1, b.num2, b.den)
            assert a.length == b.length
            assert a.epsilon == b.epsilon
            assert a.class_exps == b.class_exps

    def test_byte_determinism(self, cat_family, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_orbit_dump(p1, orbit_records(cat_family, 6, tau=0.05))
        write_orbit_dump(p2, orbit_records(cat_family, 6, tau=0.05))
        assert p1.read_bytes() == p2.read_bytes()


class TestFractions:
    def test_fraction_view(self, cat):
        pts = fixed_points(cat, 2)
        fracs = pts.as_fractions()
        assert fracs[0] == (Fraction(0), Fraction(0))
        assert all(0 <= f1 < 1 and 0 <= f2 < 1 for f1, f2 in fracs)


class TestCapacity:
    def test_enumeration_cap(self, cat):
        from friedzeta import CapacityError

        with pytest.raises(CapacityError):
            fixed_points(cat, 50)
