import math
import tracemalloc
from collections import Counter
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from friedzeta import (
    CapacityError,
    Character,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    ValidationError,
    fixed_points,
    homology_class,
    orbit_records,
    orientation_index,
    primitive_orbits,
    read_orbit_dump,
    validate_anosov,
    write_orbit_dump,
)
from friedzeta import toral
from friedzeta._record import fields
from friedzeta.toral import orbit_table, smith_normal_form
from dump_oracle import read_lines_dump, read_records_dump, write_records_dump
from pass_oracle import flat_period_pass
from scalar_oracle import trig_value
from test_kernels import reference_birkhoff


def _character_on(chi, cls) -> complex:
    """``Character.values`` on the one class ``cls = (exps, winding)``."""
    exps, winding = cls
    return complex(chi.values(np.array([exps], dtype=np.int64), np.array([winding]))[0])


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


def check_smith_form(m):
    """``U m V = diag(d1, d2)`` with U, V unimodular, ``d1 = gcd`` of the entries and ``d1 | d2``."""
    u, d, v = smith_normal_form(m)

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))

    assert mul(mul(u, m), v) == d
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
    assert abs(v[0][0] * v[1][1] - v[0][1] * v[1][0]) == 1
    assert d[0][1] == d[1][0] == 0
    d1, d2 = d[0][0], d[1][1]
    assert d1 >= 0 and d2 >= 0
    assert d1 == math.gcd(*m[0], *m[1])
    assert d1 * d2 == abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    assert d2 == 0 if d1 == 0 else d2 % d1 == 0


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "m", [((1, 1), (1, 0)), ((2, 2), (1, 0)), ((4, 3), (3, 1)), ((0, 0), (0, 0)), ((6, 4), (2, 8))]
    )
    def test_decomposition(self, m):
        check_smith_form(m)

    @example(m=((0, 2), (0, 3)))  # a zero first column: the column swap before the reduction
    @given(m=st.tuples(*[st.tuples(st.integers(-50, 50), st.integers(-50, 50))] * 2))
    def test_random_matrices(self, m):
        check_smith_form(m)

    def test_cat_coker_trivial(self, cat):
        assert cat.coker_orders == (1, 1)

    def test_z2_coker(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        assert sorted(a.coker_orders) == [1, 2]


class TestTraceRecurrence:
    def test_recurrence_matches_the_powers(self):
        # Tr(A^m) and det(A^m - I) from the recurrence, read in a mixed order, against A^m itself
        entries = range(-3, 4)
        for matrix in (((a, b), (c, d)) for a in entries for b in entries for c in entries for d in entries):
            if not validate_anosov(matrix).hyperbolic:
                continue
            auto = ToralAutomorphism(matrix)
            for m in (7, *range(61), 60):
                am = auto.power(m)
                assert auto.trace_power(m) == am[0][0] + am[1][1]
                assert auto.det_one_minus_power(m) == (am[0][0] - 1) * (am[1][1] - 1) - am[0][1] * am[1][0]
            assert len(auto._traces) == 61  # one step per new m

    def test_traces_past_the_width_cap_are_refused(self):
        # the kept traces grow like m^2 bits; the golden mean's, the slowest growth, pass the cap at period 11,800
        auto = ToralAutomorphism(((1, 1), (1, 0)))
        for m in (10**9, 11800):
            with pytest.raises(CapacityError, match=r"^Tr\(A\^11800\) exceeds the 8192-bit cap"):
                auto.trace_power(m)
        assert len(auto._traces) == 11800 and auto._traces[-1].bit_length() <= toral.MAX_TRACE_BITS


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

    def test_numerators_below_denominator(self, cat):
        pts = fixed_points(cat, 2)
        assert (pts.num1[0], pts.num2[0]) == (0, 0)
        assert ((0 <= pts.num1) & (pts.num1 < pts.den) & (0 <= pts.num2) & (pts.num2 < pts.den)).all()


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

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((-2, -1), (-1, -1))])
    def test_representative_is_orbit_minimum(self, matrix):
        # pure-Python walk: each representative is the smallest point of its
        # orbit, which closes after exactly `period` steps
        a = ToralAutomorphism(matrix)
        for o in primitive_orbits(a, 8):
            x, orbit = (o.num1, o.num2), []
            for _ in range(o.period):
                orbit.append(x)
                x = (
                    (a.matrix[0][0] * x[0] + a.matrix[0][1] * x[1]) % o.den,
                    (a.matrix[1][0] * x[0] + a.matrix[1][1] * x[1]) % o.den,
                )
            assert x == (o.num1, o.num2)
            assert len(set(orbit)) == o.period
            assert min(orbit) == (o.num1, o.num2)

    def test_determinism(self, cat):
        a = primitive_orbits(cat, 6)
        b = primitive_orbits(cat, 6)
        assert a == b


def walk_table(auto, n_max, roof, change):
    """Pure-Python oracle of the orbit table: walk the orbit of every fixed point.

    Fixed points come sorted, so the first point met on an orbit is its
    smallest.  Returns the rows ``(period, num1, num2, den, class_exps)``
    and the orbit sums of ``roof * change`` in orbit order.
    """
    (a11, a12), (a21, a22) = auto.matrix
    rows, slopes = [], []
    for n in range(1, n_max + 1):
        pts = fixed_points(auto, n)
        den, seen = pts.den, set()
        for start in zip(pts.num1.tolist(), pts.num2.tolist()):
            if start in seen:
                continue
            orbit, x = [], start
            while not orbit or x != start:
                orbit.append(x)
                x = ((a11 * x[0] + a12 * x[1]) % den, (a21 * x[0] + a22 * x[1]) % den)
            seen.update(orbit)
            if len(orbit) == n:
                rows.append((n, *start, den, homology_class(auto, start, den, n)[0]))
                slopes.append(sum(trig_value(roof, *p, den) * trig_value(change, *p, den) for p in orbit))
    return rows, slopes


TABLE_CASES = [  # (matrix, n_max): the cat map has d1 = 144 at n = 12; 3 2 1 1 has coker Z/2
    (((2, 1), (1, 1)), 12),
    (((3, 2), (1, 1)), 8),
    (((-2, -1), (-1, -1)), 10),
    (((1, 1), (1, 0)), 18),
    (((5, 2), (2, 1)), 6),
]
TABLE_ROOF = TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.04), (1, -2, 0.02, 0.01)))
TABLE_CHANGE = TrigPolynomial(0.1, ((1, 1, 0.04, 0.03),))
PASS_CASES = TABLE_CASES + [(((0, 1), (1, 3)), 11)]  # Fix(A^11) of 0 1 1 3 is cyclic: d1 = 1, d2 = 510,117
PASS_ROOFS = {  # (roof, time change); the last one has negative frequencies and a term with both cos and sin
    "no roof": (None, None),
    "roof": (TABLE_ROOF, None),
    "roof and time change": (TABLE_ROOF, TABLE_CHANGE),
    "negative frequencies": (TrigPolynomial(1.0, ((-3, 2, 0.05, 0.02), (2, -5, 0.0, 0.04), (-1, 0, 0.03, 0.0))),
                             TrigPolynomial(0.1, ((-2, 1, 0.01, -0.03),))),
}


def assert_columns_match_oracle(auto, columns, n_max, roofs):
    """Each period's rows of the seven table columns are bit for bit the flat-index pass's and their classes'."""
    period = columns[0]
    for n in range(1, n_max + 1):
        num1, num2, den, length, slope = flat_period_pass(auto, n, *roofs)
        want = (np.full(len(num1), n), num1, num2, np.full(len(num1), den), length, slope,
                toral._class_columns(auto, n, num1, num2, den))
        for got, expected in zip(columns, want):
            got = got[period == n]
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert len(period) == np.count_nonzero(period <= n_max)


class TestOrbitTable:
    @pytest.fixture(scope="class", params=TABLE_CASES,
                    ids=lambda case: f"{' '.join(str(a) for row in case[0] for a in row)} to {case[1]}")
    def built(self, request):
        matrix, n_max = request.param
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        return model, orbit_table(model, n_max), walk_table(model.automorphism, n_max, TABLE_ROOF, TABLE_CHANGE)

    def test_rows_match_walk(self, built):
        _, table, (rows, _) = built
        got = zip(table.period.tolist(), table.num1.tolist(), table.num2.tolist(), table.den.tolist(),
                  map(tuple, table.class_exps.tolist()))
        assert list(got) == rows

    def test_lengths_match_reference(self, built):
        model, table, (_, slopes) = built
        for n in range(1, table.n_max + 1):
            rows = table.period_slice(n)
            if rows.start == rows.stop:  # e.g. Fix(A^2) = Fix(A) for 1 1 1 0
                continue
            want = reference_birkhoff(table.num1[rows], table.num2[rows], int(table.den[rows][0]),
                                      model.automorphism.matrix, n, TABLE_ROOF, None, 0.0)
            assert np.max(np.abs(table.length0[rows] - want) / want) <= 1e-13
        assert np.max(np.abs(table.slope - slopes) / np.abs(table.length0)) <= 1e-13

    def test_transverse_holds_one_value_per_period(self, built):
        model, table, _ = built
        auto = model.automorphism
        epsilon, lam_u, lam_s, det_power = table.transverse()
        assert epsilon.dtype == det_power.dtype == np.int64
        assert len(epsilon) == len(lam_u) == len(lam_s) == len(det_power) == table.n_max + 1
        for n in range(table.n_max + 1):
            assert epsilon[n] == orientation_index(auto, n)
            assert (lam_u[n], lam_s[n], det_power[n]) == (auto.lam_u**n, auto.lam_s**n, auto.det**n)
        for rec in table.records():  # records() reads each row's values at its period
            n = rec.period
            assert (rec.epsilon, rec.lam_u, rec.lam_s, rec.det_power) == (epsilon[n], lam_u[n], lam_s[n], det_power[n])

    def test_orbit_count_identity(self, built):
        model, table, _ = built
        prim = Counter(table.period.tolist())
        for n in range(1, table.n_max + 1):
            total = sum(p * prim[p] for p in range(1, n + 1) if n % p == 0)
            assert total == abs(model.automorphism.det_one_minus_power(n))

    def test_deterministic_and_prefix_of_longer_table(self, built):
        model, table, _ = built
        again = toral._build_table(model, table.n_max)
        longer = toral._build_table(model, table.n_max + 1)
        for name in ("period", "num1", "num2", "den", "length0", "slope", "class_exps"):
            col = getattr(table, name)
            assert getattr(again, name).tobytes() == col.tobytes()
            assert getattr(longer, name)[: len(col)].tobytes() == col.tobytes()

    def test_table_grows_by_whole_periods(self, period_passes):
        # a roof no other test uses, so no table of this model is built yet
        model = SuspensionModel(ToralAutomorphism(((3, 2), (1, 1))), TrigPolynomial.cosine((1, 1), 0.0371, 1.0))
        built = period_passes
        orbit_table(model, 4)
        deep = orbit_table(model, 7)
        # periods 1-5 hold at most 2,500 fixed points each, so the first request's share one pass; period 5 is
        # the second request's only small period, and takes a pass of its own
        passes = [("union", [1, 2, 3, 4]), ("period", 5), ("period", 6), ("period", 7)]
        assert built == passes
        assert orbit_table(model, 7) is deep
        for n in range(1, 7):
            table = orbit_table(model, n)
            assert table.n_max == n and set(table.period.tolist()) <= set(range(1, n + 1))
            for name in ("period", "num1", "num2", "den", "length0", "slope", "class_exps"):
                col, full = getattr(table, name), getattr(deep, name)
                assert np.shares_memory(col, full) and not col.flags.writeable
                assert col.tobytes() == full[: len(col)].tobytes()
        assert built == passes

    def test_shallower_request_returns_one_view_per_depth(self):
        # what is cached on a table (orbit columns, kept products) is found again by the next request
        model = SuspensionModel(ToralAutomorphism(((3, 2), (1, 1))), TrigPolynomial.cosine((1, 1), 0.0373, 1.0))
        orbit_table(model, 6)
        view = orbit_table(model, 4)
        assert orbit_table(model, 4) is view and orbit_table(model, 3) is not view
        deeper = orbit_table(model, 7)
        assert orbit_table(model, 4) is not view and orbit_table(model, 4).n_max == 4
        assert orbit_table(model, 7) is deeper

    @pytest.mark.parametrize("block", [None, 64], ids=["default blocks", "blocks of 64"])
    @pytest.mark.parametrize("roofs", PASS_ROOFS.values(), ids=PASS_ROOFS.keys())
    @pytest.mark.parametrize("matrix, n_max", PASS_CASES,
                             ids=[f"{' '.join(str(a) for row in m for a in row)} to {n}" for m, n in PASS_CASES])
    def test_pass_matches_flat_index_oracle(self, matrix, n_max, roofs, block, calls, monkeypatch):
        # no period is small enough to share a pass, so each takes its own per-axis pass; blocks of 64 points cut
        # every row with d2 >= 64 and join whole rows below that
        auto = ToralAutomorphism(matrix)
        monkeypatch.setattr(toral, "_UNION_POINTS", 0)
        if block is not None:
            monkeypatch.setattr(toral, "_PASS_BLOCK", block)
            # a thousand blocks and up only slow the test down
            n_max = max(n for n in range(1, n_max + 1) if abs(auto.det_one_minus_power(n)) <= 1 << 16)
        unions, passes = calls(toral, "_union_pass"), calls(toral, "_period_pass")
        columns = toral._orbit_columns(auto, n_max, *roofs)
        assert unions == [] and [n for _, n, *_ in passes] == list(range(1, n_max + 1))
        assert_columns_match_oracle(auto, columns, n_max, roofs)

    @pytest.mark.parametrize("block", [None, 64], ids=["default blocks", "blocks of 64"])
    @pytest.mark.parametrize("roofs", PASS_ROOFS.values(), ids=PASS_ROOFS.keys())
    @pytest.mark.parametrize("matrix, n_max", PASS_CASES,
                             ids=[f"{' '.join(str(a) for row in m for a in row)} to {n}" for m, n in PASS_CASES])
    def test_union_pass_matches_flat_index_oracle(self, matrix, n_max, roofs, block, calls, monkeypatch):
        # every period of at most a block is small enough to share a pass, and those are the first periods: with
        # the default blocks the cat map's periods 1-11 share one union pass, with blocks of 64 its periods 1-4
        auto = ToralAutomorphism(matrix)
        if block is not None:
            monkeypatch.setattr(toral, "_PASS_BLOCK", block)
        monkeypatch.setattr(toral, "_UNION_POINTS", toral._PASS_BLOCK)
        small = [n for n in range(1, n_max + 1) if abs(auto.det_one_minus_power(n)) <= toral._PASS_BLOCK]
        unions, passes = calls(toral, "_union_pass"), calls(toral, "_period_pass")
        columns = toral._orbit_columns(auto, len(small), *roofs)
        assert [list(lattices) for _, lattices, *_ in unions] == [small] and passes == []
        assert_columns_match_oracle(auto, columns, len(small), roofs)

    def test_small_periods_share_one_pass(self, calls):
        # the cat map's periods 1-8 hold 3,554 fixed points and 9 and 10 hold 5,776 and 15,125
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        unions, passes = calls(toral, "_union_pass"), calls(toral, "_period_pass")
        orbit_table(SuspensionModel(cat, TrigPolynomial.cosine((1, 0), 0.0379, 1.0)), 10)
        assert [list(lattices) for _, lattices, *_ in unions] == [list(range(1, 9))]
        assert [n for _, n, *_ in passes] == [9, 10]
        # a table grown from depth 3: the small periods it adds, 4-8, share one pass
        grown = SuspensionModel(cat, TrigPolynomial.cosine((1, 0), 0.0381, 1.0))
        orbit_table(grown, 3)
        del unions[:], passes[:]
        orbit_table(grown, 10)
        assert [list(lattices) for _, lattices, *_ in unions] == [list(range(4, 9))]
        assert [n for _, n, *_ in passes] == [9, 10]

    def test_small_periods_come_first_and_fit_one_block(self):
        # the first new periods of at most _UNION_POINTS fixed points share one union pass, whose points nothing
        # caps: |det(A^n - I)| >= |lam_u|^n - 2 >= phi^n - 2, so no period from `last` on is that small, and over
        # every hyperbolic matrix with entries in [-6, 6] the small periods are 1..s, with at most a block of points
        assert 16 * toral._UNION_POINTS <= toral._PASS_BLOCK
        phi = (1 + math.sqrt(5)) / 2
        last = next(n for n in range(1, 100) if phi**n - 2 > toral._UNION_POINTS)
        entries = range(-6, 7)
        matrices = [m for m in (((a, b), (c, d)) for a in entries for b in entries for c in entries for d in entries)
                    if validate_anosov(m).hyperbolic]
        assert len(matrices) == 504
        for matrix in matrices:
            auto = ToralAutomorphism(matrix)
            assert abs(auto.lam_u) >= phi * (1 - 1e-15)
            counts = [abs(auto.det_one_minus_power(n)) for n in range(1, last)]
            small = [n for n, count in enumerate(counts, start=1) if count <= toral._UNION_POINTS]
            assert small == list(range(1, len(small) + 1))
            assert sum(counts[: len(small)]) <= toral._PASS_BLOCK

    def test_small_depth_reads_the_counts(self):
        # _small_depth takes |det(A^n - I)| from the trace recurrence: the first small periods by the counts of
        # A^n, cut at n_max
        entries = range(-4, 5)
        for matrix in (((a, b), (c, d)) for a in entries for b in entries for c in entries for d in entries):
            if not validate_anosov(matrix).hyperbolic:
                continue
            auto = ToralAutomorphism(matrix)
            counts = [abs(auto.det_one_minus_power(n)) for n in range(1, 20)]
            small = len(list(takewhile(lambda count: count <= toral._UNION_POINTS, counts)))
            assert [toral._small_depth(auto, n) for n in (1, small, 19)] == [min(1, small), small, small]

    @pytest.mark.parametrize("matrix, n, bound", [
        (((2, 1), (1, 1)), 13, 26.0),  # 271,441 points, Z_521 x Z_521
        (((0, 1), (1, 3)), 11, 21.6),  # 510,117 points, cyclic: no trig table can pay for itself
    ], ids=["cat map at 13", "0 1 1 3 at 11"])
    def test_pass_peak_memory_per_fixed_point(self, matrix, n, bound):
        # the bound is the flat-index pass's peak in bytes per fixed point; the per-axis pass must not exceed it
        auto = ToralAutomorphism(matrix)
        roof = TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.04)))
        count = abs(auto.det_one_minus_power(n))
        toral._period_pass(auto, n, roof)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            toral._period_pass(auto, n, roof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * count


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
        # the orbit integral of the time-change symbol is -slope
        assert -orbit_table(cat_family, 1).slope[0] == pytest.approx(-0.05, abs=1e-15)
        assert -orbit_table(cat_model, 1).slope[0] == 0.0

    def test_constant_time_change_linearity(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(0.25))
        table = orbit_table(model, 3)
        assert -table.slope == pytest.approx(-0.25 * table.period)

    def test_matches_finite_differences(self, cat):
        rng = np.random.default_rng(5)
        model = SuspensionModel(
            cat,
            TrigPolynomial(1.0, ((1, 0, 0.07, 0.0), (0, 1, 0.0, 0.05))),
            TrigPolynomial(0.2, ((1, 1, 0.04, 0.03),)),
        )
        table = orbit_table(model, 6)
        step = 1e-5
        for row in rng.choice(len(table.period), size=min(100, len(table.period)), replace=False):
            tau = float(rng.uniform(-0.5, 0.5))
            fd = (table.lengths(tau + step)[row] - table.lengths(tau - step)[row]) / (2 * step)
            assert table.slope[row] == pytest.approx(fd, rel=1e-8)

    def test_length_beyond_float_range_refused(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1e308), TrigPolynomial.const(1.0))
        table = orbit_table(model, 1)
        assert table.lengths(0.5)[0] == 1.5e308
        with pytest.raises(CapacityError, match="at tau=0.9 exceed the floating-point range"):
            table.lengths(0.9)
        with pytest.raises(CapacityError, match="of period 2 exceed the floating-point range"):
            orbit_table(model, 2)

    def test_lengths_checked_as_each_pass_returns(self, cat, calls):
        # periods 1-8 share a union pass whose lengths, at most 8 * 2.1e307, are finite; period 9's per-axis pass
        # overflows, and the check of its result names it before period 10 is built
        model = SuspensionModel(cat, TrigPolynomial.const(2.1e307))
        assert orbit_table(model, 8).length0.max() == pytest.approx(1.68e308, rel=1e-15)
        unions, passes = calls(toral, "_union_pass"), calls(toral, "_period_pass")
        with pytest.raises(CapacityError, match="^orbit lengths of period 9 exceed the floating-point range$"):
            toral._build_table(model, 10)
        assert [list(lattices) for _, lattices, *_ in unions] == [list(range(1, 9))]
        assert [n for _, n, *_ in passes] == [9]

    def test_tau_outside_range_rejected(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(1.0))
        with pytest.raises(ValidationError):
            orbit_table(model, 1).lengths(-1.5)

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
            values.add(round(_character_on(chi, cls).real, 9))
        assert values == {-1.0, 1.0}

    def test_record_classes_match_homology_class(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        assert a.coker_orders != (1, 1)
        records = orbit_records(SuspensionModel(a, TrigPolynomial.const(1.0)), 7)
        for rec in records:
            assert (rec.class_exps, rec.winding) == homology_class(a, (rec.num1, rec.num2), rec.den, rec.period)
        assert {rec.class_exps for rec in records} == {(0, 0), (0, 1)}

    def test_holonomy_multiplicative(self):
        a = ToralAutomorphism(((3, 2), (1, 1)))
        chi = Character.from_angle_fraction(0.3, a.coker_orders, (0, 1))
        c1 = ((0, 1), 2)
        c2 = ((0, 1), 3)
        csum = ((0, 0), 5)  # exponents add mod 2
        assert _character_on(chi, c1) * _character_on(chi, c2) == pytest.approx(_character_on(chi, csum))

    def test_winding_character(self, cat):
        chi = Character.from_angle_fraction(0.5)
        assert _character_on(chi, ((0, 0), 3)).real == pytest.approx(-1.0)
        assert _character_on(Character.from_angle_fraction(0.0), ((0, 0), 7)) == pytest.approx(1.0)


class TestOrientationAndWedge:
    def test_cat_positive(self, cat):
        for n in range(1, 6):
            assert orientation_index(cat, n) == 1

    def test_negative_unstable(self):
        a = ((-2, -1), (-1, -1))
        assert orientation_index(a, 1) == -1
        assert orientation_index(a, 2) == 1

    def test_wedge_traces(self, cat_model):
        _, lam_u, lam_s, det_power = orbit_table(cat_model, 1).transverse()
        assert lam_u[1] + lam_s[1] == pytest.approx(3.0)  # Tr A
        assert det_power[1] == 1

    def test_alternating_identity(self, cat_model):
        _, lam_u, lam_s, det_power = (column[1:] for column in orbit_table(cat_model, 10).transverse())
        for j in (1, 2, 3):
            alt = 1 - (lam_u**j + lam_s**j) + det_power.astype(float) ** j
            assert alt == pytest.approx((1 - lam_u**j) * (1 - lam_s**j), rel=1e-12)

    def test_epsilon_matches_eigenvalue_sign(self):
        a = ToralAutomorphism(((-2, -1), (-1, -1)))
        model = SuspensionModel(a, TrigPolynomial.const(1.0))
        for rec in orbit_records(model, 4):
            assert rec.epsilon == (1 if rec.lam_u > 0 else -1)


class TestOrbitDump:
    def test_round_trip(self, cat_family, tmp_path):
        records = orbit_records(cat_family, 5, tau=0.08)
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(cat_family, 5), 0.08)
        text = path.read_text()
        assert text.startswith("#fried-orbits v1\n")
        back = read_orbit_dump(path)
        assert len(back) == len(records)
        for i, a in enumerate(records):
            assert (a.period, a.num1, a.num2, a.den) == tuple(getattr(back, f)[i] for f in ("period", "num1", "num2", "den"))
            assert a.length == back.length[i]
            assert a.epsilon == back.epsilon[i]
            assert a.class_exps == tuple(back.class_exps[i].tolist())

    def test_byte_determinism(self, cat_family, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_orbit_dump(p1, orbit_table(cat_family, 6), 0.05)
        write_orbit_dump(p2, orbit_table(cat_family, 6), 0.05)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    @pytest.mark.parametrize("matrix, n_max", TABLE_CASES)
    def test_table_writer_and_column_reader_match_records(self, matrix, n_max, tau, tmp_path):
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        table = orbit_table(model, n_max)
        columns, records = tmp_path / "columns.txt", tmp_path / "records.txt"
        write_orbit_dump(columns, table, tau)
        write_records_dump(records, table.records(tau))
        assert columns.read_bytes() == records.read_bytes()
        back, oracle = read_orbit_dump(columns), read_records_dump(columns)
        assert len(back) == len(oracle) == len(table.period)
        for name in ("period", "num1", "num2", "den", "length", "epsilon", "winding", "class_exps"):
            want = np.array([getattr(r, name) for r in oracle]).reshape(getattr(back, name).shape)
            assert np.array_equal(getattr(back, name), want), name


def dump_outcome(reader, path):
    """The columns ``reader`` returns for ``path`` as (name, dtype, shape, bytes), or its error message."""
    try:
        dump = reader(path)
    except ValidationError as exc:
        return str(exc)
    return [(name, getattr(dump, name).dtype.str, getattr(dump, name).shape, getattr(dump, name).tobytes())
            for name in fields(dump)]


def assert_matches_oracles(path):
    """The columns read from ``path`` equal the line reader's bit for bit and the record reader's rows."""
    assert dump_outcome(read_orbit_dump, path) == dump_outcome(read_lines_dump, path)
    back, records = read_orbit_dump(path), read_records_dump(path)
    assert len(back) == len(records)
    for name in fields(back):
        column = getattr(back, name)
        assert column.flags.c_contiguous and not column.flags.writeable, name
        want = np.array([getattr(r, name) for r in records]).reshape(column.shape)
        assert np.array_equal(column, want), name


GOOD_LINE = "2 1 2 5 2.024721359549996 1 2 0 1"
# spellings a dump field may take, well formed or not; '_' and control bytes are refused separately
SPELLINGS = ["0", "-0", "+1", "-1", "1", "2", "007", "9223372036854775807", "-9223372036854775807",
             "-9223372036854775808", "9223372036854775808", "1.0", "1.", ".5", "+.5", "1e3", "1E-3", "inf",
             "-inf", "nan", "Infinity", "1e-400", "1e400", "x", "#", "0#", "1.5.", "0x10", "--1", "+", "e5"]


@st.composite
def dump_texts(draw):
    """A dump of orbit lines, comments and blank lines, some fields replaced by other spellings."""
    lines = ["#fried-orbits v1"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["orbit", "orbit", "orbit", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #", "#1 0 0"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            p, den = draw(st.integers(1, 3)), draw(st.integers(1, 5))
            length = draw(st.floats(1e-3, 1e3))
            parts = [str(p), str(draw(st.integers(0, 4))), str(draw(st.integers(0, 4))), str(den), repr(length),
                     draw(st.sampled_from(["1", "-1"])), str(p), "0", str(draw(st.integers(-2, 2)))]
            for _ in range(draw(st.integers(0, 2))):
                at = draw(st.integers(0, len(parts)))
                edit = draw(st.sampled_from(["replace", "insert", "delete"]))
                if edit == "insert" or at == len(parts):
                    parts.insert(at, draw(st.sampled_from(SPELLINGS)))
                elif edit == "replace":
                    parts[at] = draw(st.sampled_from(SPELLINGS))
                else:
                    del parts[at]
            lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(parts))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, "", "\r"]))


class TestOneParseReader:
    """``read_orbit_dump`` parses a good dump in one ``np.loadtxt`` call; the line readers are its oracles."""

    @pytest.mark.parametrize("matrix, n_max", TABLE_CASES)
    def test_table_dumps_match_line_and_record_readers(self, matrix, n_max, tmp_path):
        model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
        path = tmp_path / "orbits.txt"
        write_orbit_dump(path, orbit_table(model, n_max), 0.05)
        assert_matches_oracles(path)

    @pytest.mark.parametrize("body", [
        "",  # header only: zero rows
        "\n# a comment\n\n",
        f"# comment\n{GOOD_LINE}\n\n   # indented comment\n\t\n1 0 0 1 1.04 1 1 0 0\n",
        f"{GOOD_LINE}\r\n1 0 0 1 1.04 1 1 0 0\r\n",
        f"   {GOOD_LINE}   \n1\t0\t0\t1\t1.04\t1\t1\t0\t0",  # no final newline
        "1 0 0 1 1.04 1 1 0 0\r",
        "1 9223372036854775807 -9223372036854775807 1 1.0 -1 1 9223372036854775807 -9223372036854775807\n",
        "1 +0 -0 0001 +1.5e0 +1 1\n3 1 2 7 .5 -1 3\n",  # no class exponents
    ], ids=["header-only", "comments-only", "comments-between", "crlf", "tabs-no-eol", "cr-at-eof", "int64-extremes",
            "spellings"])
    def test_layouts_match_line_and_record_readers(self, body, tmp_path):
        path = tmp_path / "orbits.txt"
        path.write_bytes(f"#fried-orbits v1\n{body}".encode())
        assert_matches_oracles(path)

    def test_int64_minimum_is_refused(self, tmp_path):
        path = tmp_path / "orbits.txt"
        path.write_text("#fried-orbits v1\n1 0 0 1 1.0 1 1 -9223372036854775808 0\n")
        with pytest.raises(ValidationError, match=f"^{path}:2: integer field exceeds 64 bits$"):
            read_orbit_dump(path)

    def test_first_of_two_bad_lines_is_named(self, tmp_path):
        path = tmp_path / "orbits.txt"
        path.write_text(f"#fried-orbits v1\n{GOOD_LINE}\n1 0 0 1 1.0 5 1 0 0\n{GOOD_LINE}\n1 0 0 1 nan 1 1 0 0\n")
        with pytest.raises(ValidationError, match=f"^{path}:3: epsilon must be -1 or 1, got 5$"):
            read_orbit_dump(path)

    @pytest.mark.parametrize("line, message", [
        ("1 0 0 1 1_0.5 1 1 0 0", "digit separator '_' in '1_0.5'"),
        ("1 0 0 1_0 1.0 1 1 0 0", "digit separator '_' in '1_0'"),
    ])
    def test_digit_separator_is_refused(self, line, message, tmp_path):
        # int() and float() read '_' as a digit separator; the one-parse format has none
        path = tmp_path / "orbits.txt"
        path.write_text(f"#fried-orbits v1\n{GOOD_LINE}\n{line}\n")
        assert isinstance(dump_outcome(read_lines_dump, path), list)
        with pytest.raises(ValidationError) as exc:
            read_orbit_dump(path)
        assert str(exc.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("text, lineno, byte, col", [
        (f"{GOOD_LINE}\n1\x0c0 0 1 1.0 1 1 0 0\n", 3, 0x0C, 2),
        (f"{GOOD_LINE}\x00\n", 2, 0x00, len(GOOD_LINE) + 1),
        (f"{GOOD_LINE}\r{GOOD_LINE}\n", 2, 0x0D, len(GOOD_LINE) + 1),
        (f"# a note\x7f\n{GOOD_LINE}\n", 2, 0x7F, 9),
        (f"# a note\r# another\n{GOOD_LINE}\n", 2, 0x0D, 9),  # np.loadtxt would skip it as two comments
        (f"{GOOD_LINE}\r\r\n", 2, 0x0D, len(GOOD_LINE) + 1),
    ], ids=["form-feed", "nul", "lone-cr", "del-in-comment", "lone-cr-in-comment", "cr-before-crlf"])
    def test_control_byte_is_refused(self, text, lineno, byte, col, tmp_path):
        path = tmp_path / "orbits.txt"
        path.write_bytes(f"#fried-orbits v1\n{text}".encode())
        with pytest.raises(ValidationError) as exc:
            read_orbit_dump(path)
        assert str(exc.value) == f"{path}:{lineno}: control byte 0x{byte:02x} at column {col}"

    def test_parser_refusal_without_a_bad_line_is_an_error(self, tmp_path, monkeypatch):
        path = tmp_path / "orbits.txt"
        path.write_text(f"#fried-orbits v1\n{GOOD_LINE}\n")
        monkeypatch.setattr(toral, "_dump_rows", lambda data: None)
        with pytest.raises(ValidationError, match="every line checks out"):
            read_orbit_dump(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=dump_texts())
    def test_outcome_matches_line_reader(self, text, tmp_path):
        path = tmp_path / "orbits.txt"
        path.write_bytes(text.encode())
        assert dump_outcome(read_orbit_dump, path) == dump_outcome(read_lines_dump, path)


class TestCapacity:
    def test_enumeration_cap(self, cat):
        with pytest.raises(CapacityError):
            fixed_points(cat, 50)
