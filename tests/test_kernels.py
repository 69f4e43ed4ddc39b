import numpy as np

from friedzeta import SuspensionModel, ToralAutomorphism, TrigPolynomial, fixed_points
from friedzeta._kernels import birkhoff_sums

from scalar_oracle import trig_value

CAT = ToralAutomorphism(((2, 1), (1, 1)))
ROOF = TrigPolynomial(1.0, ((1, 0, 0.05, 0.0), (0, 1, 0.0, 0.04)))
CHANGE = TrigPolynomial(0.1, ((1, 1, 0.03, 0.0),))


def reference_birkhoff(num1, num2, den, matrix, steps, roof, change, tau):
    """Slow pure-Python oracle with fresh trig evaluation."""
    out = []
    for p, q in zip(num1, num2):
        x1, x2 = int(p), int(q)
        acc = 0.0
        for _ in range(steps):
            r = trig_value(roof, x1, x2, den)
            g = trig_value(change, x1, x2, den) if change is not None else 0.0
            acc += r * (1.0 + tau * g)
            x1, x2 = (
                (matrix[0][0] * x1 + matrix[0][1] * x2) % den,
                (matrix[1][0] * x1 + matrix[1][1] * x2) % den,
            )
        out.append(acc)
    return np.array(out)


def test_against_reference():
    pts = fixed_points(CAT, 5)
    got = birkhoff_sums(pts.num1, pts.num2, pts.den, CAT.matrix, 5, ROOF, CHANGE, 0.2)
    want = reference_birkhoff(pts.num1, pts.num2, pts.den, CAT.matrix, 5, ROOF, CHANGE, 0.2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_blocks_do_not_change_per_point_sums():
    pts = fixed_points(CAT, 11)  # 39,602 points: three kernel blocks
    whole = birkhoff_sums(pts.num1, pts.num2, pts.den, CAT.matrix, 11, ROOF, CHANGE, 0.1)
    for lo in (0, 16000, 39000):  # the middle slice straddles a block edge
        sl = slice(lo, lo + 600)
        part = birkhoff_sums(pts.num1[sl], pts.num2[sl], pts.den, CAT.matrix, 11, ROOF, CHANGE, 0.1)
        assert np.array_equal(whole[sl], part)
    edge = slice(16380, 16388)
    want = reference_birkhoff(pts.num1[edge], pts.num2[edge], pts.den, CAT.matrix, 11, ROOF, CHANGE, 0.1)
    assert np.max(np.abs(whole[edge] - want)) < 1e-12


def test_frequency_at_width_cap():
    # the largest frequency and denominator a model admits, 2^31 - 1: every
    # int64 product k*x and a*x stays below 2^62, each sum of two below 2^63
    k = den = (1 << 31) - 1
    roof = TrigPolynomial(1.0, ((k, 1, 0.05, 0.02), (-3, -k, 0.0, 0.04)))
    change = TrigPolynomial(0.1, ((k, -k, 0.03, 0.0),))
    SuspensionModel(CAT, roof, change)
    rng = np.random.default_rng(3)
    num1, num2 = rng.integers(den - 1000, den, size=(2, 200))
    got = birkhoff_sums(num1, num2, den, CAT.matrix, 4, roof, change, 0.3)
    want = reference_birkhoff(num1, num2, den, CAT.matrix, 4, roof, change, 0.3)
    assert np.max(np.abs(got - want)) < 1e-12


def test_constant_roof_counts_steps():
    pts = fixed_points(CAT, 6)
    out = birkhoff_sums(pts.num1, pts.num2, pts.den, CAT.matrix, 6, TrigPolynomial.const(0.5), None, 0.0)
    assert np.allclose(out, 3.0, atol=0)


def test_negative_matrix_entries():
    a = ToralAutomorphism(((-2, -1), (-1, -1)))
    pts = fixed_points(a, 4)
    got = birkhoff_sums(pts.num1, pts.num2, pts.den, a.matrix, 4, ROOF, None, 0.0)
    want = reference_birkhoff(pts.num1, pts.num2, pts.den, a.matrix, 4, ROOF, None, 0.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_empty_input():
    out = birkhoff_sums(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1, CAT.matrix, 3, ROOF, None, 0.0
    )
    assert out.shape == (0,)
