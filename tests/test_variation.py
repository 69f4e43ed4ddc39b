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
    orientation_index,
    variation_rhs,
    wedge_derivative_check,
)
from friedzeta import cli, toral, variation, zetas
from friedzeta.config import RunConfig
from friedzeta.summation import block_sum
from friedzeta.toral import orbit_table
from friedzeta.zetas import orbit_columns, ruelle_log_zeta

from variation_oracle import checked_orbit_sum, loop_orbit_sum, orbit_sum_scale


def policy_for(model, **kw):
    defaults = dict(max_period=10, j_max=16, entropy=model.default_entropy(), quad_subdiv=16)
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


def loop_twist(table, representation):
    """``eps * rho`` of every primitive orbit, with the index from ``orientation_index``."""
    eps = orientation_index(table.model.automorphism, 1) ** table.period
    if representation is None:
        return eps.astype(complex)
    return eps * representation.values(table.class_exps, table.period)


def two_grid_ratio(model, representation, lam, tau, policy):
    """Oracle: Simpson on ``quad_subdiv`` panels and again on twice as many, each grid evaluated anew.

    Returns ``(ratio, integral, richardson_diff)`` of the finer rule.
    """
    lam = complex(lam)
    table = orbit_table(model, policy.max_period)
    twist = loop_twist(table, representation)

    def eval_ratio(panels):
        nodes = [tau * i / panels for i in range(panels + 1)]
        values = [variation._orbit_sum(table, twist, lam, t, policy.j_max) for t in nodes]
        integral = variation._simpson(values, tau / panels) if tau != 0.0 else 0.0
        return cmath.exp(-lam * integral), integral

    ratio_coarse, _ = eval_ratio(policy.quad_subdiv)
    ratio_fine, integral = eval_ratio(2 * policy.quad_subdiv)
    return ratio_fine, integral, abs(ratio_fine - ratio_coarse)


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


class TestOneQuadratureGrid:
    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_equals_two_grid_oracle_bit_for_bit(self, case):
        model, rep, lam, tau = case()
        pol = policy_for(model, max_period=10)
        vr = variation_rhs(model, rep, lam, tau, pol)
        assert (vr.ratio, vr.integral, vr.richardson_diff) == two_grid_ratio(model, rep, lam, tau, pol)
        assert vr.subdivisions == 2 * pol.quad_subdiv

    def test_twist_equals_loop_twist(self, monkeypatch):
        # the orbit sums read eps * rho of the tau = 0 columns
        twists = []
        orbit_sum = variation._orbit_sum
        monkeypatch.setattr(variation, "_orbit_sum", lambda *args: twists.append(args[1]) or orbit_sum(*args))
        for case in ONE_GRID_CASES.values():
            model, rep, lam, _ = case()
            table = orbit_table(model, 10)
            twists.clear()
            variation_rhs(model, rep, lam, 0.05, policy_for(model, max_period=10, quad_subdiv=2))
            assert twists and all(twist is twists[0] for twist in twists)
            assert twists[0].dtype == complex and twists[0].tobytes() == loop_twist(table, rep).tobytes()

    @pytest.mark.parametrize("quad_subdiv", [2, 4, 16])
    def test_orbit_sum_calls_per_tau(self, quad_subdiv, monkeypatch):
        model, rep, lam, _ = _cat_half()
        pol = policy_for(model, max_period=8, quad_subdiv=quad_subdiv)
        calls = []
        orbit_sum = variation._orbit_sum
        monkeypatch.setattr(variation, "_orbit_sum", lambda *args: calls.append(args[3]) or orbit_sum(*args))
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
        calls = []
        orbit_sum = variation._orbit_sum
        monkeypatch.setattr(variation, "_orbit_sum", lambda *args: calls.append(args[3]) or orbit_sum(*args))
        with pytest.raises(CapacityError, match="at tau=0.9 exceed the floating-point range"):
            variation_rhs(model, None, 3.0, 0.9, pol)
        assert calls == []
        # at lambda = 1.5 every lam * len is finite and every exp(-lam * len) is 0
        vr = variation_rhs(model, None, 1.5, -0.9, pol)
        assert len(calls) == 2 * pol.quad_subdiv + 1 and calls[-1] == -0.9
        assert vr.ratio == 1.0


J_MAXES = (1, 2, 3, 5, 16, 17, 31, 40)


class TestBinarySplittingOrbitSum:
    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_matches_the_iterate_loop(self, case):
        # the orbit sum cancels to near rounding level, so its error is read against the size of its terms
        model, rep, lam, tau = case()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        for j_max in J_MAXES:
            for node in (0.0, tau / 2, tau):
                got = variation._orbit_sum(table, twist, lam, node, j_max)
                want = loop_orbit_sum(table, twist, lam, node, j_max)
                assert abs(got - want) <= 1e-15 * orbit_sum_scale(table, twist, lam, node), (j_max, node)

    def test_complex_lambda_equals_the_checked_sum_bit_for_bit(self):
        model, rep, lam, tau = _twisted_3211()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        for j_max in J_MAXES:
            for node in (0.0, tau / 2, tau):
                got = variation._orbit_sum(table, twist, lam, node, j_max)
                assert got == checked_orbit_sum(table, twist, lam, node, j_max), (j_max, node)

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_real_lambda_is_one_value_near_the_iterate_loop(self, case):
        # 3.0, 3+0j and 3-0j (a negative zero) exponentiate the same real array, within rounding of the complex exp
        model, rep, _, tau = case()
        table = orbit_table(model, 10)
        twist = loop_twist(table, rep)
        for j_max in J_MAXES:
            for node in (0.0, tau / 2, tau):
                got = {variation._orbit_sum(table, twist, lam, node, j_max) for lam in (3.0, 3 + 0j, complex(3, -0.0))}
                assert len(got) == 1, (j_max, node)
                want = loop_orbit_sum(table, twist, 3.0, node, j_max)
                assert abs(got.pop() - want) <= 1e-15 * orbit_sum_scale(table, twist, 3.0, node), (j_max, node)

    def test_unit_base_sums_exactly_j_max_terms(self):
        # at lambda = 0 without a character z = eps = +-1: each iterate sum is an exact integer
        model = _negative_index()[0]
        table = orbit_table(model, 8)
        twist = loop_twist(table, None)
        for j_max in range(1, 41):
            per_orbit = np.where(twist.real > 0, j_max, -(j_max % 2))
            want = complex(block_sum((-table.slope) * per_orbit.astype(complex)))
            assert variation._orbit_sum(table, twist, 0.0, 0.05, j_max) == want, j_max


class TestDirectQuotient:
    SETTINGS = ["model.matrix=2 1 1 1", "model.roof=const:1", "model.time_change=cos:1,0:0.05",
                "rep.u_fraction=0.5", "policy.n_max=8", "lambda.value=3"]

    def test_tau_zero_product_taken_once_per_command(self, monkeypatch, capsys):
        calls = []
        ruelle = variation.ruelle_log_zeta
        monkeypatch.setattr(variation, "ruelle_log_zeta", lambda *args: calls.append(args[0]) or ruelle(*args))
        settings = [*self.SETTINGS, "tau.grid=0.05,0.1,0.15"]
        assert cli.main(["variation", *(arg for s in settings for arg in ("--set", s))]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert len(calls) == 4 and len(rows) == 3
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        rep = cfg.character(model.automorphism)
        for row in rows:
            policy = cfg.policy(model, row["tau"])
            table = orbit_table(model, policy.max_period)
            fresh = cmath.exp(ruelle(orbit_columns(table, rep, row["tau"]), 3.0, policy).log_value
                              - ruelle(orbit_columns(table, rep, 0.0), 3.0, policy).log_value)
            assert complex(row["direct_quotient"]["re"], row["direct_quotient"]["im"]) == fresh

    def test_twist_built_once_per_command(self, monkeypatch, capsys):
        # every tau's orbit sums read one eps * rho, kept on the tau = 0 columns
        zetas._table_columns.cache_clear()
        built = []
        kept = variation._kept
        monkeypatch.setattr(variation, "_kept", lambda cols, name, key, build: kept(
            cols, name, key, lambda: built.append(name) or build()))
        settings = [*self.SETTINGS, "tau.grid=0.05,0.1,0.15"]
        assert cli.main(["variation", *(arg for s in settings for arg in ("--set", s))]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert built.count("twist") == 1 and len(rows) == 3
        cfg = RunConfig.load(None, settings)
        model = cfg.model()
        rep = cfg.character(model.automorphism)
        for row in rows:
            # the two-grid oracle builds its twist by the loop, per tau
            ratio, integral, diff = two_grid_ratio(model, rep, 3.0, row["tau"], cfg.policy(model, row["tau"]))
            assert complex(row["ratio"]["re"], row["ratio"]["im"]) == ratio
            assert row["richardson_diff"] == diff

    def test_kept_product_follows_lambda_and_j_max(self, cat_family, rep_minus):
        table = orbit_table(cat_family, 8)
        for lam, j_max in ((3.0, 16), (3.5, 16), (3.5, 7), (3.0 + 0.5j, 7)):
            policy = policy_for(cat_family, max_period=8, j_max=j_max)
            fresh = cmath.exp(ruelle_log_zeta(orbit_columns(table, rep_minus, 0.1), lam, policy).log_value
                              - ruelle_log_zeta(orbit_columns(table, rep_minus, 0.0), lam, policy).log_value)
            assert direct_quotient(cat_family, rep_minus, lam, 0.1, policy) == fresh


def unshared_columns(table, representation, tau):
    """The columns of ``table`` at ``tau`` built from the table alone, sharing nothing with another tau's."""
    starts = zetas._runs(table.period)
    per_period = (column[table.period[starts]] for column in table.transverse())
    return zetas._toral_columns(representation, table.class_exps, table.period, table.lengths(tau), starts,
                                *per_period)


def same_bits(got, want):
    """Arrays, or tuples of them, of one dtype and shape and equal bit for bit."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


SHARED_COLUMNS = ("rho", "starts", "epsilon", "multiplicity", "lam_u", "lam_s", "det_power")


class TestTauColumnsShareTheTauZeroArrays:
    @staticmethod
    def _grid(case):
        """A case's model, twist, lambda, table and three nonzero tau on its side of 0."""
        model, rep, lam, tau = case()
        tau = tau or 0.1
        return model, rep, lam, orbit_table(model, 10), (tau, tau / 2, 0.7 * tau)

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_columns_are_the_tau_zero_objects(self, case):
        _, rep, _, table, taus = self._grid(case)
        cols_0 = orbit_columns(table, rep)
        for tau in taus:
            cols = orbit_columns(table, rep, tau)
            assert cols is not cols_0 and same_bits(cols.length, table.lengths(tau))
            assert all(getattr(cols, name) is getattr(cols_0, name) for name in SHARED_COLUMNS)

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_derived_arrays_equal_unshared_ones(self, case):
        # the tau columns are built first, so the tau = 0 columns they share are built on their behalf
        _, rep, _, table, taus = self._grid(case)
        zetas._table_columns.cache_clear()
        for j_max in (1, 5, 16):
            for tau in (*taus, 0.0):
                cols, fresh = orbit_columns(table, rep, tau), unshared_columns(table, rep, tau)
                assert all(same_bits(getattr(cols, name), getattr(fresh, name)) for name in SHARED_COLUMNS), tau
                assert same_bits(zetas._signs(cols, j_max), zetas._signs(fresh, j_max)), (tau, j_max)
                assert same_bits(zetas._trace_ratios(cols, j_max), zetas._trace_ratios(fresh, j_max)), (tau, j_max)

    def test_last_shell_mask_follows_each_tau(self, cat):
        # lengths (1 + tau) n: the shell (L - l_min, L] scales with them, so this mask stays; the cat map's, 3 2 1 1's
        # and tau = 0's move orbits across the edge
        speedup = SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.const(1.0))
        cases = [*ONE_GRID_CASES.values(), lambda: (speedup, None, 3.0, -0.05)]
        moved = 0
        for case in cases:
            _, rep, _, table, taus = self._grid(case)
            mask_0 = zetas._last_shell(orbit_columns(table, rep))
            for tau in taus:
                mask = zetas._last_shell(orbit_columns(table, rep, tau))
                lengths = table.lengths(tau)
                assert same_bits(mask, lengths > lengths.max() - lengths.min()), tau
                moved += not np.array_equal(mask, mask_0)
        assert moved  # some tau moves an orbit across the shell's edge

    @pytest.mark.parametrize("case", ONE_GRID_CASES.values(), ids=ONE_GRID_CASES.keys())
    def test_direct_quotient_equals_unshared_products(self, case):
        model, rep, lam, table, taus = self._grid(case)
        pol = policy_for(model, max_period=10)
        for tau in (*taus, 0.0):
            log_tau = ruelle_log_zeta(unshared_columns(table, rep, tau), lam, pol).log_value
            log_0 = ruelle_log_zeta(unshared_columns(table, rep, 0.0), lam, pol).log_value
            assert direct_quotient(model, rep, lam, tau, pol) == cmath.exp(log_tau - log_0), tau

    def test_no_state_leaks_between_tau(self, capsys):
        # a grid, the grid reversed and each tau alone from cleared caches report the same rows
        def rows(grid, clear=False):
            if clear:
                zetas._table_columns.cache_clear()
                toral._deepest_table.cache_clear()
            settings = [*TestDirectQuotient.SETTINGS, f"tau.grid={grid}"]
            assert cli.main(["variation", *(arg for s in settings for arg in ("--set", s))]) == 0
            return {row["tau"]: row for row in json.loads(capsys.readouterr().out)["results"]["rows"]}

        taus = ("0.05", "0.1", "0.15")
        forward, backward = rows(",".join(taus)), rows(",".join(reversed(taus)))
        alone = {}
        for tau in taus:
            alone.update(rows(tau, clear=True))
        assert len(forward) == 3 and forward == backward == alone

    def test_new_tau_columns_peak_memory_per_orbit(self, cat_family, rep_minus):
        # once the tau = 0 columns exist, a new tau builds its lengths and nothing else: length0 + tau * slope
        # peaks at 16 B per orbit; rebuilding rho (16 B) or the transverse columns (32 B) per tau would pass
        # 20 B, as the columns built anew per tau did at 128.5 B
        table = orbit_table(cat_family, 10)
        zetas._table_columns.cache_clear()
        orbit_columns(table, rep_minus)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            orbit_columns(table, rep_minus, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        orbits = len(table.period)
        assert orbits == 2622 and peak <= 20 * orbits


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
