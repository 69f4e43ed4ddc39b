import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from friedzeta import (
    TorusElement,
    branching_check,
    casimir_constant,
    char_nu,
    char_sigma,
    dim_sigma,
    tensor_decomposition_check,
)
from friedzeta.characters import homogeneous_sums


def oracle_h(p, theta):
    """Geometric-series oracle: h_p = sum_{a+b=p} exp(i(a-b)theta)."""
    return sum(np.exp(1j * (a - (p - a)) * theta) for a in range(p + 1)).real


def oracle_dim_sigma(n, m):
    """Monomial count of symmetric tensors minus the trace image."""
    full = len(list(combinations_with_replacement(range(n), m)))
    lower = len(list(combinations_with_replacement(range(n), m - 2))) if m >= 2 else 0
    return full - lower


class TestSO2Characters:
    def test_nu_values(self):
        el = TorusElement(2, 0.7)
        assert char_nu(2, 0, el) == pytest.approx(1.0)
        assert char_nu(2, 1, el) == pytest.approx(2 * math.cos(0.7))
        assert char_nu(2, 2, el) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0, 1, 2, 5, 11])
    def test_sigma_closed_form(self, p):
        theta = 0.9
        el = TorusElement(2, theta)
        expected = 1.0 if p == 0 else 2 * math.cos(p * theta)
        assert char_sigma(2, p, el) == pytest.approx(expected, abs=1e-13)

    def test_sigma_against_h_oracle(self):
        theta = 1.234
        el = TorusElement(2, theta)
        for p in range(2, 15):
            assert char_sigma(2, p, el) == pytest.approx(
                oracle_h(p, theta) - oracle_h(p - 2, theta), abs=1e-12
            )

    def test_identity_values_are_dimensions(self):
        el0 = TorusElement(2, 0.0)
        for p in range(8):
            assert char_sigma(2, p, el0) == pytest.approx(dim_sigma(2, p))
        for l in range(3):
            assert char_nu(2, l, el0) == pytest.approx(math.comb(2, l))

    def test_class_function_even_in_theta(self):
        for theta in np.linspace(-3.0, 3.0, 11):
            a, b = TorusElement(2, theta), TorusElement(2, -theta)
            for p in range(6):
                assert char_sigma(2, p, a) == pytest.approx(char_sigma(2, p, b), abs=1e-13)
            for l in range(3):
                assert char_nu(2, l, a) == pytest.approx(char_nu(2, l, b), abs=1e-13)


class TestBranching:
    @pytest.mark.parametrize("n0", [2, 4])
    def test_branching_residual(self, n0):
        rng = np.random.default_rng(42)
        for _ in range(100):
            angles = rng.uniform(-math.pi, math.pi, size=n0 // 2)
            el = TorusElement(n0, tuple(angles))
            for p in range(21):
                assert branching_check(n0, p, el) < 1e-12

    def test_p2_explicit(self):
        theta = 0.4
        el = TorusElement(2, theta)
        h2 = 1 + 2 * math.cos(2 * theta)
        assert abs(h2 - (char_sigma(2, 2, el) + char_sigma(2, 0, el))) < 1e-13

    def test_identity_count(self):
        el0 = TorusElement(2, 0.0)
        for p in range(10):
            total = sum(char_sigma(2, p - 2 * q, el0) for q in range(p // 2 + 1))
            assert total == pytest.approx(p + 1)

    def test_tensor_decomposition(self):
        for theta in (0.0, math.pi / 2, 0.7, 2.9):
            assert tensor_decomposition_check(TorusElement(2, theta)) < 1e-12


class TestDimensionsAndCasimir:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_dim_against_enumeration(self, n, m):
        assert dim_sigma(n, m) == oracle_dim_sigma(n, m)

    def test_known_casimir_values(self):
        assert casimir_constant(2, 1) == 0
        assert casimir_constant(2, 2) == -3
        assert casimir_constant(4, 2) == -4

    def test_casimir_exact_rational(self):
        assert casimir_constant(3, 2) == Fraction(9, 4) - 6


def trace_expansion(b, r_max: int) -> float:
    """``sum_{r <= r_max} h_r`` of the eigenvalues of ``b``: partial sums of ``det(1 - b)^-1``
    when the spectral radius is below 1, with geometric tail ``|b|^r / (1 - |b|)``."""
    return sum(homogeneous_sums(list(np.linalg.eigvals(b)), r_max)).real


class TestTraceExpansion:
    def test_zero_matrix(self):
        h = homogeneous_sums(list(np.linalg.eigvals(np.zeros((3, 3)))), 4)
        assert h[0] == pytest.approx(1.0)
        assert h[4] == pytest.approx(0.0)

    def test_scaled_rotation_geometric(self):
        b = math.exp(-1) * np.eye(2)
        assert trace_expansion(b, 79) == pytest.approx((1 - math.exp(-1)) ** -2, rel=1e-12)

    def test_random_contraction(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4))
        b *= 0.5 / max(abs(np.linalg.eigvals(b)))
        oracle = 1.0 / np.linalg.det(np.eye(4) - b)
        assert trace_expansion(b, 59) == pytest.approx(oracle, rel=1e-12)

    def test_geometric_tail(self):
        b = 0.5 * np.eye(2)
        target = 1.0 / np.linalg.det(np.eye(2) - b)
        assert abs(target - trace_expansion(b, 19)) <= 2 * (21 + 1) * 0.5**20 / (1 - 0.5)
