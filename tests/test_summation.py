import math
import warnings

import numpy as np
import pytest

from friedzeta.summation import BLOCK, block_sum


def blockwise_sum(a):
    """The multi-block form at every length: numpy sums per ``BLOCK``, ``math.fsum`` over the partials."""
    partials = [a[i : i + BLOCK].sum() for i in range(0, len(a), BLOCK)]
    if np.iscomplexobj(a):
        return complex(math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials))
    return math.fsum(partials)


def _arrays():
    rng = np.random.default_rng(29)
    big = 1e308
    for dtype in (float, complex):
        yield np.array([], dtype=dtype)
        for length in (1, 7, 2622, BLOCK, BLOCK + 1):
            values = rng.normal(size=length) * 10.0 ** rng.integers(-8, 8, size=length)
            if dtype is complex:
                values = values + 1j * rng.normal(size=length)
            yield values.astype(dtype)
    yield np.array([-0.0])
    yield np.array([-0.0, -0.0])
    yield np.array([complex(-0.0, -0.0)])
    yield np.array([complex(-0.0, 0.0), complex(-0.0, -0.0)])
    yield np.array([np.inf, 1.0])
    yield np.array([-np.inf])
    yield np.array([complex(np.inf, -np.inf), 1j])
    yield np.array([np.nan, 1.0])
    yield np.array([complex(1.0, np.nan)])
    yield np.array([big, big])  # overflows to inf
    yield np.array([complex(big, -big)] * 3)
    yield np.full(BLOCK, -0.0)
    yield np.full(BLOCK + 1, -0.0)
    yield np.full(BLOCK, complex(-0.0, -0.0))
    yield np.full(BLOCK + 1, complex(-0.0, -0.0))


@pytest.mark.parametrize("a", list(_arrays()), ids=lambda a: f"{a.dtype}[{len(a)}]")
def test_equals_the_blockwise_sum(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing arrays
        got, want = block_sum(a), blockwise_sum(a)
    assert type(got) is type(want)
    assert repr(got) == repr(want)
