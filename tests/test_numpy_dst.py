"""StripReferenceSolver.solve_free on numpy.fft against the scipy DST solve.

The oracle below is the reference solver as it stood on ``scipy.fft``:
lateral rfftn, twist, DST-III then DST-II (natural top), untwist, irfftn.
Its natural-top set-up and solve are kept as they were; the numpy path
computes the same DST pair as complex FFTs with twiddles.  Sheared and
planar strips in d = 2 and 3, one and two components, and free-level
counts 2, odd and even (a strip grid has at least two levels above its
bottom, all free under a natural top).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effbc import make_rational_direction, planar_strip_grid
from effbc.assembly import StripReferenceSolver, _mode_angles, _stencil_symbol
from effbc.grid import StripGrid


class ScipyDSTSolver:
    """The scipy.fft formulation of StripReferenceSolver.solve_free."""

    def __init__(self, grid):
        self.grid = grid
        lat_shape = grid.lat_cells
        self.lat_axes = tuple(range(1, grid.d))  # axes of (N, *lat, levels) arrays
        T = _stencil_symbol(grid, _mode_angles(lat_shape, half=True))
        n_free = self.n_free = grid.n_vert
        a, t0 = np.abs(T[1]), T[0].real
        scale = max(np.abs(b).max() for b in T.values())
        self.null_mask = np.maximum(a, np.abs(T[0])) <= 1e-12 * scale
        theta = (np.arange(1, n_free + 1) - 0.5) * np.pi / n_free
        mu = t0[..., None] + 2.0 * a[..., None] * np.cos(theta)
        self._inv = np.divide(
            1.0, mu * 2.0 * n_free, out=np.zeros_like(mu), where=~self.null_mask[..., None]
        )
        # successive powers of exp(i arg a): a running product keeps the phase
        # step between neighbouring levels exact to rounding at any height
        step = np.exp(1j * np.angle(T[1]))[..., None]
        twist = np.cumprod(np.broadcast_to(step, step.shape[:-1] + (n_free,)), axis=-1)
        self._untwist = np.conj(twist)
        twist[..., -1] *= 2.0
        self._twist = twist

    def solve_free(self, r_free):
        """Solve for the free-level block; r_free is (N, *lat, n_free)."""
        from scipy import fft

        rhat = fft.rfftn(r_free, axes=self.lat_axes) * self._twist
        y = fft.dst(fft.dst(rhat, type=3, axis=-1) * self._inv, type=2, axis=-1)
        return fft.irfftn(y * self._untwist, s=self.grid.lat_cells, axes=self.lat_axes)


@st.composite
def strips(draw):
    d = draw(st.sampled_from([2, 3]))
    n_vert = draw(st.integers(2, 9))
    if d == 2 and draw(st.booleans()):
        # planar_strip_grid keeps at least 8 cells per unit length
        n_lat = draw(st.integers(2, 7))
        period, R = (draw(st.floats(0.2, 1.0)) * n / 8.0 for n in (n_lat, n_vert))
        return planar_strip_grid(period, R, n_lat, n_vert)
    v = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
    xi = make_rational_direction(v)
    lat = tuple(draw(st.integers(2, 7)) for _ in range(d - 1))
    R = draw(st.floats(0.5, 3.0))
    return StripGrid(xi.periods, xi.xi_hat, 0.1, R, lat, n_vert, xi=xi, check_resolution=False)


def _planar(n_vert):
    return planar_strip_grid(0.5, n_vert / 8.0, 4, n_vert)


_XI3 = make_rational_direction([1, 1, 2])


@settings(max_examples=120, deadline=None)
@given(grid=strips(), N=st.integers(1, 2), seed=st.integers(0, 2**16))
# on every run: n_free = 2, odd and even, and a 3-d strip whose even
# lateral counts carry null modes
@example(grid=_planar(2), N=2, seed=4)
@example(grid=_planar(3), N=1, seed=5)
@example(grid=_planar(4), N=1, seed=3)
@example(
    grid=StripGrid(_XI3.periods, _XI3.xi_hat, 0.1, 1.0, (4, 6), 5, check_resolution=False),
    N=2, seed=6,
)
def test_solve_free_matches_scipy_dst(grid, N, seed):
    ref = StripReferenceSolver(grid)
    oracle = ScipyDSTSolver(grid)
    assert ref.n_free == oracle.n_free
    np.testing.assert_array_equal(ref.null_mask, oracle.null_mask)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((N,) + grid.lat_cells + (ref.n_free,))

    x = ref.solve_free(r)
    expected = oracle.solve_free(r)
    assert x.shape == expected.shape
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()

    # the vertical pair maps every null lateral mode to exact zeros
    rhat = np.fft.rfftn(r, axes=ref.lat_axes)
    y = ref._dst3_dst2_pair(rhat)
    assert not y[:, ref.null_mask].any()
