import cmath
import json
import tracemalloc

import numpy as np
import pytest

from friedzeta import (
    CapacityError,
    Character,
    ConvergenceError,
    SuspensionModel,
    ToralAutomorphism,
    TrigPolynomial,
    TruncationPolicy,
    ValidationError,
    direct_quotient,
    variation_rhs,
    wedge_derivative_check,
)
from friedzeta import cli, toral, variation
from friedzeta.config import RunConfig
from friedzeta.toral import orbit_table

from test_toral import TABLE_CASES, TABLE_CHANGE, TABLE_ROOF
from variation_oracle import (
    binary_orbit_sum,
    loop_orbit_sum,
    loop_ruelle_log,
    loop_twist,
    node_sum,
    orbit_sum_scale,
    two_grid_ratio,
)


def policy_for(model, **kw):
    defaults = dict(max_period=10, entropy=model.default_entropy(), quad_subdiv=16)
    defaults.update(kw)
    return TruncationPolicy(**defaults)


class TestVariationRHS:
    def test_tau_zero_is_one(self, cat_family, rep_minus):
        vr = variation_rhs(cat_family, rep_minus, 3.0, 0.0, policy_for(cat_family))
        assert vr.ratio == 1.0

    def test_no_time_change_is_one(self, cat_model, rep_minus):
        vr = variation_rhs(cat_model, rep_minus, 3.0, 0.08, policy_for(cat_model))
        assert vr.ratio == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_quotient(self, cat_family, rep_minus):
        pol = policy_for(cat_family, max_period=12)
        vr = variation_rhs(cat_family, rep_minus, 3.0, 0.1, pol)
        dq = direct_quotient(cat_family, rep_minus, 3.0, 0.1, pol)
        assert abs(vr.ratio - dq) / abs(dq) < 1e-6
        assert vr.richardson_diff < 1e-8

    def test_nonconstant_roof_family(self, cat):
        model = SuspensionModel(
            cat,
            TrigPolynomial(1.0, ((1, 0, 0.05, 0.0),)),
            TrigPolynomial(0.0, ((0, 1, 0.04, 0.02),)),
        )
        pol = policy_for(model, max_period=12)
        vr = variation_rhs(model, None, 3.2, 0.15, pol)
        dq = direct_quotient(model, None, 3.2, 0.15, pol)
        assert abs(vr.ratio - dq) / abs(dq) < 1e-6

    def test_convergence_region(self, cat_family, rep_minus):
        with pytest.raises(ConvergenceError):
            variation_rhs(cat_family, rep_minus, 0.3, 0.1, policy_for(cat_family))

    def test_tau_range_enforced(self, cat):
        model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(1.0))
        with pytest.raises(ValidationError):
            variation_rhs(model, None, 3.0, -2.0, policy_for(model))


def _cat_half():
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    model = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.cosine((1, 0), 0.05))
    return model, Character.from_angle_fraction(0.5, cat.coker_orders, (0, 0)), 3.0, 0.1


def _twisted_3211():
    a = ToralAutomorphism(((3, 2), (1, 1)))
    model = SuspensionModel(a, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0),)), TrigPolynomial(0.0, ((1, 1, 0.04, 0.0),)))
    return model, Character.from_angle_fraction(0.3, a.coker_orders, (1, 1)), 3.0 + 0.7j, 0.12


def _sin_change():
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    model = SuspensionModel(cat, TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.03))),
                            TrigPolynomial(0.0, ((0, 1, 0.0, 0.04),)))
    return model, None, 3.2, 0.15


def _negative_index():
    a = ToralAutomorphism(((-2, -1), (-1, -1)))  # lam_u < 0: odd periods have index -1
    model = SuspensionModel(a, TrigPolynomial(1.0, ((0, 1, 0.04, 0.0),)), TrigPolynomial.cosine((1, 0), 0.05))
    return model, Character.from_angle_fraction(0.25, a.coker_orders, (0, 0)), 3.5, 0.1


def _tau_zero():
    model, rep, lam, _ = _cat_half()
    return model, rep, lam, 0.0


ONE_GRID_CASES = {"cat u=1/2": _cat_half, "3 2 1 1 fiber twist, complex lambda": _twisted_3211,
                  "non-constant roof, sin change": _sin_change, "-2 -1 -1 -1, u=1/4": _negative_index,
                  "tau = 0": _tau_zero}
ORACLE_TOL = 1e-14  # relative to the oracle's value, or to the size of the terms where a sum cancels


def spy_cell_sums(monkeypatch):
    """The ``(weight, t)`` of every later ``variation._cell_sum`` call."""
    calls = []
    cell_sum = variation._cell_sum
    monkeypatch.setattr(variation, "_cell_sum",
                        lambda cells, weight, lam, t: calls.append((weight, t)) or cell_sum(cells, weight, lam, t))
    return calls


class TestOneQuadratureGrid:
    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_equals_two_grid_oracle_bit_for_bit(self, case):
        model, rep, lam, tau = case()
        pol = policy_for(model, max_period=10)
        vr = variation_rhs(model, rep, lam, tau, pol)
        assert (vr.ratio, vr.integral, vr.richardson_diff) == two_grid_ratio(model, rep, lam, tau, pol)
        assert vr.subdivisions == 2 * pol.quad_subdiv

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_ratio_matches_the_per_orbit_oracle(self, case):
        # the integrand summed orbit by orbit over j <= n_max // p, one power at a time
        model, rep, lam, tau = case()
        pol = policy_for(model, max_period=10)
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        vr = variation_rhs(model, rep, lam, tau, pol)
        ratio, integral, _ = two_grid_ratio(model, rep, lam, tau, pol,
                                            lambda t: loop_orbit_sum(table, twist, complex(lam), t, 10))
        scale = max(orbit_sum_scale(table, twist, complex(lam), t) for t in (0.0, tau))
        assert abs(vr.integral - integral) <= ORACLE_TOL * scale * abs(tau)
        assert abs(vr.ratio - ratio) <= ORACLE_TOL * abs(ratio)

    @pytest.mark.parametrize("n_max", [1, 2, 5, 10])
    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_cells_are_the_iterates_within_n_max(self, case, n_max):
        model, rep, _, _ = case()
        table = orbit_table(model, n_max)
        cells = variation._cells(table, rep)
        rows = [(row, j) for row, p in enumerate(table.period.tolist()) for j in range(1, n_max // p + 1)]
        row, j = (np.array(column) for column in zip(*rows))
        assert len(cells.j_length0) == len(rows) == sum(n_max // p for p in table.period.tolist())
        assert cells.j_length0.tobytes() == (j * table.length0[row]).tobytes()
        assert cells.j_slope.tobytes() == (j * table.slope[row]).tobytes()
        power = np.array([z**k for z, k in zip(loop_twist(table, rep)[row].tolist(), j.tolist())])
        assert np.allclose(cells.slope_weight, -table.slope[row] * power, rtol=1e-15, atol=0)
        assert np.allclose(cells.ruelle_weight, -power / j, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("quad_subdiv", [2, 4, 16])
    def test_cell_sum_calls_per_tau(self, quad_subdiv, monkeypatch):
        model, rep, lam, _ = _cat_half()
        pol = policy_for(model, max_period=8, quad_subdiv=quad_subdiv)
        calls = spy_cell_sums(monkeypatch)
        for tau in (0.0, 0.05, 0.1):
            calls.clear()
            variation_rhs(model, rep, lam, tau, pol)
            assert len(calls) == (2 * quad_subdiv + 1 if tau else 0)  # the integral over [0, 0] is 0
            calls.clear()
            two_grid_ratio(model, rep, lam, tau, pol)
            assert len(calls) == 3 * quad_subdiv + 2

    def test_lengths_checked_once_before_any_node(self, cat, monkeypatch):
        # period-1 lengths are 1e308 (1 + tau): past the float range at tau = 0.9, 1e307 at tau = -0.9
        model = SuspensionModel(cat, TrigPolynomial.const(1e308), TrigPolynomial.const(1.0))
        pol = policy_for(model, max_period=1)
        calls = spy_cell_sums(monkeypatch)
        with pytest.raises(CapacityError, match="at tau=0.9 exceed the floating-point range"):
            variation_rhs(model, None, 3.0, 0.9, pol)
        assert calls == []
        # at lambda = 1.5 every lam * len is finite and every exp(-lam * len) is 0
        vr = variation_rhs(model, None, 1.5, -0.9, pol)
        assert len(calls) == 2 * pol.quad_subdiv + 1 and calls[-1][1] == -0.9
        assert vr.ratio == 1.0


class TestCellSum:
    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_matches_the_iterate_loop(self, case):
        # the node sum cancels to near rounding level, so its error is read against the size of its terms
        model, rep, lam, tau = case()
        for n_max in (1, 3, 10):
            table = orbit_table(model, n_max)
            twist = loop_twist(table, rep)
            for node in (0.0, tau / 2, tau):
                got = node_sum(model, rep, lam, node, n_max)
                want = loop_orbit_sum(table, twist, complex(lam), node, n_max)
                assert abs(got - want) <= ORACLE_TOL * orbit_sum_scale(table, twist, complex(lam), node), (n_max, node)

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_real_lambda_is_one_value_near_the_iterate_loop(self, case):
        # 3.0, 3+0j and 3-0j (a negative zero) exponentiate the same real array, within rounding of the complex exp
        model, rep, _, tau = case()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        for node in (0.0, tau / 2, tau):
            got = {node_sum(model, rep, lam, node, 10) for lam in (3.0, 3 + 0j, complex(3, -0.0))}
            assert len(got) == 1, node
            want = loop_orbit_sum(table, twist, 3.0, node, 10)
            assert abs(got.pop() - want) <= ORACLE_TOL * orbit_sum_scale(table, twist, 3.0, node), node

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_differs_from_the_j_max_product_by_the_cells_past_n_max(self, case):
        # the orbit sum to j_max = n_max on every orbit, by binary splitting, holds the cells p j <= n_max and
        # the iterates j > n_max // p of every orbit of period p > 1 beside them
        model, rep, lam, tau = case()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        for node in (0.0, tau):
            z = np.abs(twist * np.exp(-complex(lam) * table.lengths(node)))
            past = sum(float(np.sum(np.abs(table.slope) * z**j * (table.period * j > 10))) for j in range(1, 11))
            got = node_sum(model, rep, lam, node, 10)
            want = binary_orbit_sum(table, twist, complex(lam), node, 10)
            assert abs(got - want) <= past + ORACLE_TOL * orbit_sum_scale(table, twist, complex(lam), node), node


@pytest.mark.parametrize("matrix, n_max", [(matrix, min(n_max, 8)) for matrix, n_max in TABLE_CASES],
                         ids=lambda case: " ".join(str(a) for row in case for a in row)
                         if isinstance(case, tuple) else str(case))
def test_table_cases_match_the_per_orbit_oracle(matrix, n_max):
    # the table cases with a roof, a time change, a circle and fiber twist, and tau != 0: the ratio and the direct
    # quotient against the orbit-by-orbit sums over j <= n_max // p
    model = SuspensionModel(ToralAutomorphism(matrix), TABLE_ROOF, TABLE_CHANGE)
    rep = Character.from_angle_fraction(0.3, model.automorphism.coker_orders, (1, 1))
    pol = policy_for(model, max_period=n_max, entropy=model.default_entropy(0.1))
    table = orbit_table(model, n_max)
    twist = loop_twist(table, rep)
    for lam in (pol.entropy + 1.5, 4.0 + 2.5j):
        vr = variation_rhs(model, rep, lam, 0.1, pol)
        ratio, _, _ = two_grid_ratio(model, rep, lam, 0.1, pol,
                                     lambda t: loop_orbit_sum(table, twist, complex(lam), t, n_max))
        assert abs(vr.ratio - ratio) <= ORACLE_TOL * abs(ratio), lam
        want = cmath.exp(loop_ruelle_log(table, twist, complex(lam), 0.1, n_max)
                         - loop_ruelle_log(table, twist, complex(lam), 0.0, n_max))
        scale = max(orbit_sum_scale(table, twist, complex(lam), t, slope=False) for t in (0.0, 0.1))
        assert abs(direct_quotient(model, rep, lam, 0.1, pol) - want) <= ORACLE_TOL * scale * abs(want), lam


class TestDirectQuotient:
    SETTINGS = ["model.matrix=2 1 1 1", "model.roof=const:1", "model.time_change=cos:1,0:0.05",
                "rep.u_fraction=0.5", "policy.n_max=8", "lambda.value=3"]

    def _rows(self, settings, capsys):
        assert cli.main(["variation", *(arg for s in settings for arg in ("--set", s))]) == 0
        return json.loads(capsys.readouterr().out)["results"]["rows"]

    def test_tau_zero_log_taken_once_per_command(self, monkeypatch, capsys):
        variation._cells.cache_clear()
        calls = spy_cell_sums(monkeypatch)
        settings = [*self.SETTINGS, "tau.grid=0.05,0.1,0.15"]
        rows = self._rows(settings, capsys)
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        cells = variation._cells(orbit_table(model, 8), cfg.character(model.automorphism))
        assert [t for weight, t in calls if weight is cells.ruelle_weight] == [0.05, 0.0, 0.1, 0.15]
        assert len(rows) == 3

    def test_cells_built_once_per_command(self, capsys):
        # every tau's node sums and Ruelle logs read one set of cells, built for the table and twist
        variation._cells.cache_clear()
        settings = [*self.SETTINGS, "tau.grid=0.05,0.1,0.15"]
        rows = self._rows(settings, capsys)
        assert variation._cells.cache_info().misses == 1 and len(rows) == 3
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        rep = cfg.character(model.automorphism)
        for row in rows:
            ratio, integral, diff = two_grid_ratio(model, rep, 3.0, row["tau"], cfg.policy(model, row["tau"]))
            assert complex(row["ratio"]["re"], row["ratio"]["im"]) == ratio
            assert row["richardson_diff"] == diff

    def test_kept_log_follows_lambda(self, cat_family, rep_minus):
        table = orbit_table(cat_family, 8)
        policy = policy_for(cat_family, max_period=8)
        for lam in (3.0, 3.5, 3.5, 3.0 + 0.5j, 3.0):
            cells = variation._cells(table, rep_minus)
            fresh = cmath.exp(variation._cell_sum(cells, cells.ruelle_weight, complex(lam), 0.1)
                              - variation._cell_sum(cells, cells.ruelle_weight, complex(lam), 0.0))
            assert direct_quotient(cat_family, rep_minus, lam, 0.1, policy) == fresh
            assert list(cells.log_0) == [lam]

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_matches_the_per_orbit_oracle(self, case):
        model, rep, lam, tau = case()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        pol = policy_for(model, max_period=10)
        for t in (tau or 0.1, (tau or 0.1) / 2, 0.0):
            want = cmath.exp(loop_ruelle_log(table, twist, complex(lam), t, 10)
                             - loop_ruelle_log(table, twist, complex(lam), 0.0, 10))
            scale = max(orbit_sum_scale(table, twist, complex(lam), s, slope=False) for s in (0.0, t))
            assert abs(direct_quotient(model, rep, lam, t, pol) - want) <= ORACLE_TOL * scale * abs(want), t

    def test_no_state_leaks_between_tau(self, capsys):
        # a grid, the grid reversed and each tau alone from cleared caches report the same rows
        def rows(grid, clear=False):
            if clear:
                variation._cells.cache_clear()
                toral._deepest_table.cache_clear()
            return {row["tau"]: row for row in self._rows([*self.SETTINGS, f"tau.grid={grid}"], capsys)}

        taus = ("0.05", "0.1", "0.15")
        forward, backward = rows(",".join(taus)), rows(",".join(reversed(taus)))
        alone = {}
        for tau in taus:
            alone.update(rows(tau, clear=True))
        assert len(forward) == 3 and forward == backward == alone

    def test_new_tau_peak_memory_per_cell(self, cat_family, rep_minus):
        # once the cells exist, a tau builds its phases (8 B per cell), numpy's buffer casting them to complex
        # (16 B per cell at most) and their product with a weight (16 B); building the cells again (another
        # 48 B per cell) would pass 44 B
        table = orbit_table(cat_family, 10)
        policy = policy_for(cat_family, max_period=10)
        direct_quotient(cat_family, rep_minus, 3.0, 0.05, policy)
        cells = len(variation._cells(table, rep_minus).j_length0)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            direct_quotient(cat_family, rep_minus, 3.0, 0.1, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells > len(table.period) == 2622 and peak <= 44 * cells


class TestWedgeDerivativeCheck:
    def test_identity_family(self):
        res = wedge_derivative_check(
            lambda t: np.eye(3), lambda t: np.zeros((3, 3)), 0.3 * np.eye(3), 0.0
        )
        assert abs(res.q_wedge) < 1e-12

    def test_scalar_closed_form(self):
        mu = 0.25
        res = wedge_derivative_check(
            lambda t: np.array([[1.0 + t]]),
            lambda t: np.array([[1.0]]),
            np.array([[mu]]),
            0.0,
        )
        assert res.q_wedge == pytest.approx(mu / (1 - mu), rel=1e-12)
        assert res.residual < 1e-7

    def test_singular_input_rejected(self):
        with pytest.raises(ValidationError):
            wedge_derivative_check(
                lambda t: np.eye(2), lambda t: np.zeros((2, 2)), np.eye(2), 0.0
            )

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_random_exponential_families(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            b = rng.normal(size=(dim, dim)) * 0.4
            w, v = np.linalg.eig(b)
            v_inv = np.linalg.inv(v)

            def s(t):
                return v @ np.diag(np.exp(t * w)) @ v_inv

            def ds(t):
                return v @ np.diag(w * np.exp(t * w)) @ v_inv

            m = rng.normal(size=(dim, dim)) * 0.4
            if abs(np.linalg.det(np.eye(dim) - m)) < 1e-3:
                continue
            res = wedge_derivative_check(s, ds, m, float(rng.uniform(-0.4, 0.4)))
            assert res.residual < 1e-7

    def test_polynomial_family(self):
        rng = np.random.default_rng(77)
        b = rng.normal(size=(4, 4)) * 0.3
        c = rng.normal(size=(4, 4)) * 0.2
        m = rng.normal(size=(4, 4)) * 0.3
        res = wedge_derivative_check(
            lambda t: np.eye(4) + t * b + t * t * c,
            lambda t: b + 2 * t * c,
            m,
            0.2,
        )
        assert res.residual < 1e-7
