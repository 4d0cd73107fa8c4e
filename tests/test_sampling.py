import math

import numpy as np
import pytest

from effbc.sampling import weyl_points

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _looped_points(count, dim, low, high, seed):
    """The closed form evaluated point by point with math: the oracle of weyl_points."""
    lows = [float(low)] * dim if np.ndim(low) == 0 else [float(x) for x in low]
    highs = [float(high)] * dim if np.ndim(high) == 0 else [float(x) for x in high]
    out = np.empty((dim, count))
    for j in range(dim):
        alpha = math.sqrt(_PRIMES[j]) - math.floor(math.sqrt(_PRIMES[j]))
        beta = math.sqrt(_PRIMES[dim + j]) - math.floor(math.sqrt(_PRIMES[dim + j]))
        shift = seed * beta - math.floor(seed * beta)
        for k in range(1, count + 1):
            x = k * alpha + shift
            out[j, k - 1] = lows[j] + (highs[j] - lows[j]) * (x - math.floor(x))
    return out


@pytest.mark.parametrize(
    "count,dim,low,high,seed",
    [(10, 1, 0.0, 1.0, 0), (500, 6, -2.0, 2.0, 3), (64, 3, [0.0, -1.0, -1.0], 1.0, 12)],
)
def test_points_are_the_closed_form(count, dim, low, high, seed):
    # bit for bit: only correctly rounded operations enter
    got = weyl_points(count, dim, low, high, seed)
    assert got.tobytes() == _looped_points(count, dim, low, high, seed).tobytes()


def test_same_call_same_bytes():
    a = weyl_points(2000, 6, -2.0, 2.0, seed=5)
    b = weyl_points(2000, 6, -2.0, 2.0, seed=5)
    assert a.shape == (6, 2000)
    assert a.tobytes() == b.tobytes()


def test_distinct_seeds_give_distinct_points():
    sets = [weyl_points(100, 3, 0.0, 1.0, seed) for seed in range(64)]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            # no point of one set coincides with any point of another
            gap = np.abs(sets[i][:, :, None] - sets[j][:, None, :]).max(axis=0)
            assert gap.min() > 0.0, (i, j)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31])
def test_points_lie_in_their_box(seed):
    low = np.array([-3.0, 0.0, -1e-5, 2.0])
    high = np.array([3.0, 1.0, 1e-5, 2.5])
    pts = weyl_points(4096, 4, low, high, seed)
    assert np.all(pts >= low[:, None]) and np.all(pts <= high[:, None])
    # and they spread over it: every coordinate visits each tenth of its range
    u = (pts - low[:, None]) / (high - low)[:, None]
    for row in u:
        assert len(np.unique(np.minimum((row * 10).astype(int), 9))) == 10


def test_seed_must_be_a_non_negative_integer():
    with pytest.raises(ValueError):
        weyl_points(10, 2, 0.0, 1.0, seed=-1)
    with pytest.raises(TypeError):
        weyl_points(10, 2, 0.0, 1.0, seed=1.5)
