import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedzeta import (
    CapacityError,
    ComplexLengthRecord,
    CyclicWord,
    MobiusGenerator,
    NotLoxodromicError,
    ValidationError,
    complex_length,
    enumerate_conjugacy_classes,
    poincare_data,
    read_spectrum,
    schottky_spectrum,
    synthetic_spectrum,
    write_spectrum,
)
from friedzeta import kleinian
from friedzeta.kleinian import disc_separation_report, word_matrix


def cyclic_reduce(letters):
    """Free and cyclic reduction: cancel adjacent inverse letters, then inverse first and last letters."""
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("letter 0 is not allowed")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def canonical_word(letters) -> CyclicWord:
    """The class of ``letters``: reduced, in its least rotation, flagged primitive or not."""
    canon = CyclicWord._min_rotation(cyclic_reduce(int(x) for x in letters))
    return CyclicWord(canon, kleinian._is_primitive(canon))


def brute_force_classes(length):
    """Independent oracle: canonicalize every reduced word of one length."""
    letters = [1, -1, 2, -2]
    words = [[x] for x in letters]
    for _ in range(length - 1):
        words = [w + [x] for w in words for x in letters if x != -w[-1]]
    classes = set()
    for w in words:
        cw = canonical_word(w)
        if len(cw.letters) == length:
            classes.add(cw.letters)
    return classes


class TestWordEnumeration:
    def test_length_one(self):
        ws = [w.letters for w in enumerate_conjugacy_classes(2, 1)]
        assert sorted(ws) == [(-2,), (-1,), (1,), (2,)]
        assert all(w.primitive for w in enumerate_conjugacy_classes(2, 1))

    def test_length_two(self):
        ws = {w.letters: w.primitive for w in enumerate_conjugacy_classes(2, 2) if len(w.letters) == 2}
        squares = {(1, 1), (2, 2), (-1, -1), (-2, -2)}
        assert set(ws) == squares | {(-2, -1), (-2, 1), (-1, 2), (1, 2)}
        assert all(not ws[s] for s in squares)
        assert all(ws[w] for w in set(ws) - squares)

    def test_length_three_against_brute_force(self):
        got = {w.letters for w in enumerate_conjugacy_classes(2, 3) if len(w.letters) == 3}
        assert got == brute_force_classes(3)
        assert len(got) == 12

    def test_inverse_kept_distinct(self):
        ws = {w.letters for w in enumerate_conjugacy_classes(2, 2)}
        assert (1, 2) in ws and (-2, -1) in ws

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_canonical_idempotent_and_rotation_invariant(self, letters):
        cw = canonical_word(letters)
        assert canonical_word(cw.letters).letters == cw.letters
        if cw.letters:
            n = len(cw.letters)
            for i in range(n):
                rotated = cw.letters[i:] + cw.letters[:i]
                assert canonical_word(rotated).letters == cw.letters

    def test_primitivity(self):
        assert not canonical_word([1, 2, 1, 2]).primitive
        assert canonical_word([1, 2, 1, -2]).primitive
        assert not canonical_word([1, 1, 1]).primitive


class TestComplexLength:
    def test_diagonal_defining_case(self):
        ell0, theta0 = 1.3, 0.9
        lam = np.exp((ell0 + 1j * theta0) / 2)
        assert complex_length(((lam, 0), (0, 1 / lam))) == pytest.approx((ell0, theta0))

    def test_real_trace_three(self):
        ell, theta = complex_length(((2, 1), (1, 1)))
        assert ell == pytest.approx(2 * math.acosh(1.5), rel=1e-14)
        assert theta == 0.0

    def test_trace_two_i(self):
        ell, theta = complex_length(((2j, 1), (-1, 0)))
        assert ell == pytest.approx(2 * math.log(1 + math.sqrt(2)), rel=1e-14)
        assert theta == pytest.approx(math.pi)

    @pytest.mark.parametrize("trace", [0.0, 1.0, 2.0, -2.0])
    def test_non_loxodromic_rejected(self, trace):
        m = ((trace, -1), (1, 0))
        with pytest.raises(NotLoxodromicError):
            complex_length(m)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(9)
        base = np.array([[1.5 + 0.4j, 0.3], [0.2 - 0.1j, 0j]])
        base[1, 1] = (1 + base[0, 1] * base[1, 0]) / base[0, 0]
        ref = complex_length(base)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g /= np.sqrt(np.linalg.det(g))
            m = g @ base @ np.linalg.inv(g)
            got = complex_length(m)
            assert got[0] == pytest.approx(ref[0], rel=1e-10)
            assert got[1] == pytest.approx(ref[1], rel=1e-10, abs=1e-10)

    def test_power_scaling(self):
        base = np.array([[1.4 + 0.3j, 0.2], [0.1, 0j]])
        base[1, 1] = (1 + base[0, 1] * base[1, 0]) / base[0, 0]
        ell, theta = complex_length(base)
        m = np.eye(2, dtype=complex)
        for j in range(1, 5):
            m = m @ base
            elj, thj = complex_length(m)
            assert elj == pytest.approx(j * ell, rel=1e-10)
            expected = math.remainder(j * theta, 2 * math.pi)
            if expected <= -math.pi:
                expected += 2 * math.pi
            assert thj == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestPoincareData:
    def test_theta_zero(self):
        ell = 0.9
        pd = poincare_data(ell, 0.0, 1, 0)
        assert pd.det_one_minus_ps == pytest.approx((1 - math.exp(-ell)) ** 2, rel=1e-13)

    def test_wedge_zero_is_one(self):
        assert poincare_data(1.3, 0.7, 2, 0).wedge_trace == pytest.approx(1.0)

    def test_example_value(self):
        pd = poincare_data(1.0, math.pi / 3, 2, 0)
        oracle = 1 - 2 * math.exp(-2) * math.cos(2 * math.pi / 3) + math.exp(-4)
        assert pd.det_one_minus_ps == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("ell,theta,j", [(1.0, 0.3, 1), (0.7, 2.1, 3), (2.2, -1.3, 2)])
    def test_expanding_block_identity(self, ell, theta, j):
        pd = poincare_data(ell, theta, j, 0)
        c, s = math.cos(j * theta), math.sin(j * theta)
        r = np.array([[c, -s], [s, c]])
        lhs = abs(pd.det_one_minus_p)
        rhs = (
            math.exp(2 * j * ell)
            * np.linalg.det(np.eye(2) - math.exp(-j * ell) * r)
            * pd.det_one_minus_ps
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wedge_symmetry(self):
        pd0 = poincare_data(0.8, 0.5, 2, 0)
        pd4 = poincare_data(0.8, 0.5, 2, 4)
        assert pd4.wedge_trace == pytest.approx(1.0, rel=1e-12)  # det P = 1
        assert pd0.wedge_trace == 1.0


class TestSyntheticSpectrum:
    def test_empty(self):
        assert synthetic_spectrum(2.0, 0, 1) == []

    def test_seed_determinism(self):
        assert synthetic_spectrum(1.5, 64, 13) == synthetic_spectrum(1.5, 64, 13)
        assert synthetic_spectrum(1.5, 64, 13) != synthetic_spectrum(1.5, 64, 14)

    def test_max_length_matches_counting_inversion(self):
        records = synthetic_spectrum(2.0, 1000, 7)
        assert abs(records[-1].length - math.log(1000) / 2.0) < 1.5

    def test_counting_within_factor_two(self):
        h = 2.0
        records = synthetic_spectrum(h, 500, 21)
        ells = np.array([r.length for r in records])
        for q in (0.4, 0.6, 0.8, 1.0):
            ell = np.quantile(ells, q)
            counted = int((ells <= ell).sum())
            ideal = math.exp(h * ell) / ell
            assert ideal / 2 <= counted <= 2 * ideal

    def test_min_length_respected(self):
        records = synthetic_spectrum(2.0, 100, 3, min_length=1.0)
        assert min(r.length for r in records) >= 1.0

    def test_angles_in_branch(self):
        for r in synthetic_spectrum(2.0, 200, 5):
            assert -math.pi < r.theta <= math.pi

    def test_count_cap(self, monkeypatch):
        with pytest.raises(CapacityError, match="exceed the cap"):
            synthetic_spectrum(2.0, kleinian.MAX_SYNTHETIC_RECORDS + 1, 1)
        monkeypatch.setattr(kleinian, "MAX_SYNTHETIC_RECORDS", 5)
        assert len(synthetic_spectrum(2.0, 5, 1)) == 5
        with pytest.raises(CapacityError):
            synthetic_spectrum(2.0, 6, 1)


class TestWordCap:
    def test_rank_2_length_11_is_admitted(self):
        assert sum(4 * 3 ** (length - 1) for length in range(1, 12)) <= kleinian.MAX_WALKED_WORDS
        with pytest.raises(CapacityError, match="exceed the cap"):
            enumerate_conjugacy_classes(2, 12)

    def test_cap_is_the_words_walked(self, monkeypatch):
        monkeypatch.setattr(kleinian, "MAX_WALKED_WORDS", 4 + 12 + 36)  # rank 2 to length 3
        assert max(len(w.letters) for w in enumerate_conjugacy_classes(2, 3)) == 3
        for rank, l_max in ((2, 4), (3, 3)):  # 52 + 108 and 6 + 30 + 150 words
            with pytest.raises(CapacityError):
                enumerate_conjugacy_classes(rank, l_max)
        with pytest.raises(CapacityError):
            enumerate_conjugacy_classes(2, 10**18)  # refused before the walk, whatever the length


def standard_schottky():
    t = 3.0
    a = MobiusGenerator(((t, 0), (0, 1 / t)))
    half = (t + 1 / t) / 2
    shear = (t - 1 / t) / 2
    b = MobiusGenerator(((half, shear), (shear, half)))
    return [a, b]


class TestSchottky:
    def test_spectrum_round_trips_complex_length(self):
        gens = standard_schottky()
        records = schottky_spectrum(gens, 3)
        by_label = {r.label: r for r in records}
        for w in enumerate_conjugacy_classes(2, 3):
            if not w.primitive:
                continue
            label = ".".join(str(x) for x in w.letters)
            ell, theta = complex_length(word_matrix(w, gens))
            assert by_label[label].length == pytest.approx(ell)
            assert by_label[label].theta == pytest.approx(theta)

    def test_long_words_pass_the_determinant_check(self):
        # entries of a word product grow like e^{ell/2}; det = 1 holds only to rounding of their squares
        t = 2.2 * (1 + 0.15j)
        c, s = cmath.cosh(t), cmath.sinh(t)
        gens = [MobiusGenerator(((c, s), (s, c))), MobiusGenerator(((c, 1j * s), (-1j * s, c)))]
        assert disc_separation_report(gens).separated
        records = schottky_spectrum(gens, 4)
        by_label = {r.label: r for r in records}
        for w in enumerate_conjugacy_classes(2, 4):
            if w.primitive:
                m = word_matrix(w, gens)
                lam = max(abs(np.linalg.eigvals(m / np.sqrt(np.linalg.det(m)))))
                label = ".".join(str(x) for x in w.letters)
                assert by_label[label].length == pytest.approx(2 * math.log(lam), rel=1e-9)
        with pytest.raises(ValidationError, match="determinant 1"):
            complex_length(((2.0, 0.0), (0.0, 1.0)))

    def test_counts(self):
        records = schottky_spectrum(standard_schottky(), 4)
        prim_counts = Counter(len(r.label.split(".")) for r in records)
        assert prim_counts[1] == 4
        assert prim_counts[2] == 4  # squares dropped

    def test_disc_report(self):
        rep = disc_separation_report(standard_schottky())
        # the diagonal generator fixes infinity: heuristic must say so, with no gap to report
        assert not rep.applicable and not rep.separated and rep.min_gap is None
        shifted = [
            MobiusGenerator(((2.0, 1.0), (1.0, 1.0))),
            MobiusGenerator(((2.0, -3.0), (-1.0, 2.0))),
        ]
        rep2 = disc_separation_report(shifted)
        assert rep2.applicable and math.isfinite(rep2.min_gap)


class TestSpectrumFile:
    def test_round_trip(self, tmp_path):
        records = synthetic_spectrum(2.0, 40, 11)
        path = tmp_path / "spec.txt"
        write_spectrum(path, records)
        text = path.read_text()
        assert text.startswith("#fried-spectrum v1 n0=2\n")
        back = read_spectrum(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.length == b.length
            assert a.theta == b.theta
            assert a.multiplicity == b.multiplicity
            assert a.label == b.label

    def test_record_validation(self):
        with pytest.raises(Exception):
            ComplexLengthRecord(length=-1.0, theta=0.0)
