"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines with the measured quantities and their tolerances.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from friedzeta import (
    Character,
    SuspensionModel,
    ToralAutomorphism,
    TorusElement,
    TrigPolynomial,
    TruncationPolicy,
    branching_check,
    casimir_constant,
    chain_torsion,
    condition_enumerate,
    dim_sigma,
    direct_quotient,
    factorization_check,
    factorization_residual_curve,
    mapping_cone_complex,
    mapping_torus_torsion,
    orbit_records,
    primitive_orbits,
    resonance_multiplicity_ledger,
    synthetic_spectrum,
    tensor_decomposition_check,
    variation_rhs,
    wedge_derivative_check,
    zeta_at_zero,
)
from friedzeta.torsion import FRIED_EXPONENT

CAT = ((2, 1), (1, 1))


def report(line: str):
    print(f"\nPASS: {line}")


def test_criterion_1_exact_fried_identity():
    """|zeta(0)| = 5/4 from the cycle expansion, closed form and torsion."""
    start = time.perf_counter()
    auto = ToralAutomorphism(CAT)
    model = SuspensionModel(auto, TrigPolynomial.const(1.0))
    rep = Character.from_angle_fraction(0.5)
    policy = TruncationPolicy(max_period=14, entropy=model.default_entropy())
    z = zeta_at_zero(model, rep, policy)
    closed_form = Fraction(1 + 3 + 1, (1 - -1) ** 2)  # (1 + tr + det) / (1 - u)^2 at u = -1
    torsion = mapping_torus_torsion(auto, rep)
    dev_closed = abs(z.modulus - float(closed_form))
    dev_torsion = abs(z.modulus**FRIED_EXPONENT * torsion.modulus - 1.0)
    elapsed = time.perf_counter() - start
    assert closed_form == Fraction(5, 4)
    assert dev_closed < 1e-10
    assert dev_torsion < 1e-10
    assert elapsed < 10.0
    report(
        "criterion 1 (exact Fried identity): |zeta(0)| = 5/4 with closed-form deviation "
        f"{dev_closed:.2e} and torsion deviation {dev_torsion:.2e} (< 1e-10), {elapsed:.2f} s"
    )


def test_criterion_2_local_constancy():
    """zeta_tau(0) constant to 1e-6 while orbit lengths move by > 1e-3."""
    start = time.perf_counter()
    auto = ToralAutomorphism(CAT)
    model = SuspensionModel(auto, TrigPolynomial.const(1.0), TrigPolynomial.cosine((1, 0), 0.05))
    rep = Character.from_angle_fraction(0.5)
    taus = [0.02 * i for i in range(6)]
    values = []
    for tau in taus:
        policy = TruncationPolicy(max_period=14, entropy=model.default_entropy(tau))
        values.append(zeta_at_zero(model, rep, policy, tau=tau).modulus)
    spread = (max(values) - min(values)) / min(values)
    base = {(r.period, r.num1, r.num2): r.length for r in orbit_records(model, 6, tau=0.0)}
    moved = max(
        abs(r.length - base[(r.period, r.num1, r.num2)])
        for r in orbit_records(model, 6, tau=0.1)
    )
    elapsed = time.perf_counter() - start
    assert spread < 1e-6
    assert moved > 1e-3
    assert elapsed < 300.0
    report(
        f"criterion 2 (local constancy): zeta_tau(0) relative spread {spread:.2e} (< 1e-6) "
        f"while orbit lengths move {moved:.2e} (> 1e-3), {elapsed:.2f} s"
    )


def test_criterion_3_variation_formula():
    """Orbit-sum variation integral vs direct quotient at lambda = 3."""
    auto = ToralAutomorphism(CAT)
    model = SuspensionModel(auto, TrigPolynomial.const(1.0), TrigPolynomial.cosine((1, 0), 0.05))
    rep = Character.from_angle_fraction(0.5)
    policy = TruncationPolicy(
        max_period=12, j_max=16, entropy=model.default_entropy(0.1), quad_subdiv=16
    )
    vr = variation_rhs(model, rep, 3.0, 0.1, policy, richardson_tol=1e-8)
    dq = direct_quotient(model, rep, 3.0, 0.1, policy)
    rel = abs(vr.ratio - dq) / abs(dq)
    assert rel < 1e-6
    assert vr.richardson_diff < 1e-8
    report(
        f"criterion 3 (variation formula): predicted/direct ratio error {rel:.2e} (< 1e-6), "
        f"Richardson doubling moved {vr.richardson_diff:.2e} (< 1e-8)"
    )


def test_criterion_4_selberg_factorization():
    """Per-orbit factorization residuals and their decay in p_max."""
    spectrum = synthetic_spectrum(2.0, 200, 7, min_length=1.0)
    ell_min = min(r.length for r in spectrum)
    assert ell_min >= 1.0
    policy = TruncationPolicy(j_max=5, p_max=60, entropy=2.0)
    worst = 0.0
    for k in (0, 1, 2):
        rep = factorization_check(spectrum, None, k, 5.0, policy)
        worst = max(worst, rep.max_rel_residual)
        assert rep.max_rel_residual < 1e-10
    curve = factorization_residual_curve(spectrum, None, 1, 5.0, policy, [10, 20, 40])
    usable = [(p, r) for p, r in curve if r > 1e-12]  # above the double-precision floor
    ps = np.array([p for p, _ in usable], dtype=float)
    rs = np.log([r for _, r in usable])
    slope = np.polyfit(ps, rs, 1)[0]
    assert -3 * ell_min <= slope <= -ell_min / 3
    report(
        f"criterion 4 (Selberg factorization): max per-orbit residual {worst:.2e} (< 1e-10) "
        f"at p_max=60 for k in {{0,1,2}}; decay slope {slope:.3f} vs -ell_min {-ell_min:.3f} "
        "(within factor 3)"
    )


def test_criterion_5_ledger_reproduction():
    """Printed case lists and multiplicity formulas with duality."""
    assert condition_enumerate(0) == [(0, 0, 0)]
    assert condition_enumerate(1) == [(1, 0, 0), (1, 0, 1)]
    k2 = condition_enumerate(2)
    assert sorted((p, q) for l, q, p in k2 if l == 2) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert [(l, q, p) for l, q, p in k2 if l == 1] == [(1, 0, 0)]
    checked = 0
    for h0 in range(11):
        for h1 in range(11):
            m = resonance_multiplicity_ledger(h0, h1)
            assert m[0] == h0 and m[1] == 2 * h1 and m[2] == 2 * (h0 + h1)
            assert m[4] == m[0] and m[3] == m[1]
            checked += 1
    report(
        "criterion 5 (ledger reproduction): case lists for k=0,1,2 match the printed "
        f"enumerations; multiplicity formulas and m_(4-k) = m_k hold on {checked} inputs"
    )


def _random_hyperbolic_matrices(count=10, seed=2024):
    rng = np.random.default_rng(seed)
    seeds = [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((-2, -1), (-1, -1)), ((0, 1), (1, 1))]
    elementary = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((1, 0), (-1, 1))]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    out = []
    while len(out) < count:
        base = seeds[int(rng.integers(len(seeds)))]
        u = ((1, 0), (0, 1))
        for _ in range(int(rng.integers(0, 3))):
            u = mul(u, elementary[int(rng.integers(len(elementary)))])
        u_inv = ((u[1][1], -u[0][1]), (-u[1][0], u[0][0]))
        cand = mul(mul(u, base), u_inv)
        try:
            auto = ToralAutomorphism(cand)
        except Exception:
            continue
        if abs(auto.det_one_minus_power(12)) < 200000:
            out.append(auto)
    return out


def test_criterion_6_orbit_count_exactness():
    """Enumerated primitive orbits satisfy the divisor-sum identity exactly."""
    matrices = _random_hyperbolic_matrices()
    checked = 0
    for auto in matrices:
        prim = Counter(o.period for o in primitive_orbits(auto, 12))
        for n in range(1, 13):
            lhs = sum(d * prim.get(d, 0) for d in range(1, n + 1) if n % d == 0)
            rhs = abs(auto.det_one_minus_power(n))
            assert lhs == rhs
            checked += 1
    report(
        "criterion 6 (orbit-count exactness): divisor-sum identity exact for "
        f"{len(matrices)} random hyperbolic matrices, all n <= 12 ({checked} integer equalities)"
    )


def test_criterion_7_determinant_expansion():
    """Wedge-trace derivative identity vs finite differences, dims 2..6."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 7))
        b = rng.normal(size=(dim, dim)) * 0.4
        w, v = np.linalg.eig(b)
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            continue
        m = rng.normal(size=(dim, dim)) * 0.4
        if abs(np.linalg.det(np.eye(dim) - m)) < 1e-3:
            continue
        res = wedge_derivative_check(
            lambda t: v @ np.diag(np.exp(t * w)) @ v_inv,
            lambda t: v @ np.diag(w * np.exp(t * w)) @ v_inv,
            m,
            float(rng.uniform(-0.5, 0.5)),
            fd_step=1e-5,
        )
        worst = max(worst, res.residual)
        assert res.residual < 1e-7
        checked += 1
    report(
        f"criterion 7 (determinant expansion): worst residual {worst:.2e} (< 1e-7) "
        "against centered differences over 100 random families in dims 2-6"
    )


def test_criterion_8_branching_and_characters():
    """Branching residuals, dimension/Casimir table, tensor-square split."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(40):
        el = TorusElement(2, float(rng.uniform(-math.pi, math.pi)))
        for p in range(21):
            worst = max(worst, branching_check(2, p, el))
    for _ in range(10):
        el = TorusElement(4, tuple(rng.uniform(-math.pi, math.pi, size=2)))
        for p in range(21):
            worst = max(worst, branching_check(4, p, el))
    assert worst < 1e-12

    table_cases = 0
    for n in (2, 3, 4, 5, 6):
        for m in range(10):
            full = len(list(combinations_with_replacement(range(n), m)))
            lower = len(list(combinations_with_replacement(range(n), m - 2))) if m >= 2 else 0
            assert dim_sigma(n, m) == full - lower
            assert casimir_constant(n, m) == Fraction(n * n, 4) - m * (m + n - 2)
            table_cases += 1
    assert table_cases == 50

    worst_tensor = max(
        tensor_decomposition_check(TorusElement(2, t)) for t in np.linspace(-3, 3, 25)
    )
    assert worst_tensor < 1e-12
    report(
        f"criterion 8 (branching/characters): branching residual {worst:.2e} (< 1e-12) for "
        f"p <= 20; dimension and Casimir exact on {table_cases} cases; tensor-square residual "
        f"{worst_tensor:.2e} (< 1e-12)"
    )


def test_criterion_9_torsion_invariance():
    """Basis-change stability of the torsion and mapping-cone agreement."""
    from test_torsion import random_acyclic_complex, random_unitary
    from friedzeta import BasedChainComplex

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        cpx = random_acyclic_complex(rng)
        base = chain_torsion(cpx).modulus

        perms = [rng.permutation(n) for n in cpx.dims]
        shuffled = BasedChainComplex(
            cpx.dims,
            [b[np.ix_(perms[k], perms[k + 1])] for k, b in enumerate(cpx.boundaries)],
        )
        worst = max(worst, abs(chain_torsion(shuffled).modulus / base - 1))

        k = int(rng.integers(0, len(cpx.dims)))
        if cpx.dims[k]:
            u = random_unitary(rng, cpx.dims[k])
            mats = list(cpx.boundaries)
            if k >= 1:
                mats[k - 1] = mats[k - 1] @ u
            if k < len(mats):
                mats[k] = np.linalg.inv(u) @ mats[k]
            rotated = BasedChainComplex(cpx.dims, mats, check_tol=1e-9)
            worst = max(worst, abs(chain_torsion(rotated).modulus / base - 1))

        k = int(rng.integers(0, len(cpx.dims) - 1))
        dims = list(cpx.dims)
        mats = [m.copy() for m in cpx.boundaries]
        dims[k] += 1
        dims[k + 1] += 1
        mats[k] = np.pad(mats[k], ((0, 1), (0, 1)))
        mats[k][-1, -1] = 1.0
        if k >= 1:
            mats[k - 1] = np.pad(mats[k - 1], ((0, 0), (0, 1)))
        if k + 1 < len(mats):
            mats[k + 1] = np.pad(mats[k + 1], ((0, 1), (0, 0)))
        expanded = BasedChainComplex(dims, mats)
        worst = max(worst, abs(chain_torsion(expanded).modulus / base - 1))
    assert worst < 1e-9

    worst_cone = 0.0
    seeds = [((2, 1), (1, 1)), ((3, 2), (1, 1)), ((1, 1), (1, 0)), ((-2, -1), (-1, -1)), ((2, 1), (3, 2))]
    checked = 0
    while checked < 50:
        auto = ToralAutomorphism(seeds[int(rng.integers(len(seeds)))])
        if abs(auto.det_one_minus_power(1)) > 20:
            continue
        chi = Character.from_angle_fraction(float(rng.uniform(0.05, 0.95)))
        closed = mapping_torus_torsion(auto, chi).modulus
        cone = chain_torsion(mapping_cone_complex(auto, chi)).modulus
        worst_cone = max(worst_cone, abs(closed / cone - 1))
        checked += 1
    assert worst_cone < 1e-9
    report(
        f"criterion 9 (torsion invariance): worst basis-change drift {worst:.2e} (< 1e-9) over "
        f"50 random acyclic complexes; mapping-cone closed-form agreement {worst_cone:.2e} (< 1e-9)"
    )
