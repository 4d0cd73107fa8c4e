import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effbc import (
    boundary_layer_limit,
    constant_field,
    cosine_field,
    fit_decay,
    identity_tensor,
    make_field,
    shift_profile,
)
from effbc.layers import BoundaryLayerResult, ShiftProfile, doubling_ladder


def test_laplace_cosine_limit_zero(xi_e2, data_cos1):
    res = boundary_layer_limit(identity_tensor(2), data_cos1, xi_e2, tolerance=1e-9, h=1 / 16)
    assert res.converged
    assert abs(res.value[0]) <= 1e-9
    assert res.error_bar >= 0.0
    assert res.heights_used == [4.0, 8.0]


def test_constant_data_limit_exact(xi_e2, laminate2):
    res = boundary_layer_limit(laminate2, constant_field(2, 0.7), xi_e2, tolerance=1e-9, h=1 / 16)
    assert res.value[0] == 0.7
    assert res.decay_rate == math.inf  # degenerate decay flag for constant data
    assert res.diagnostics["decay_fit"]["degenerate"]


def test_two_largest_heights_agree_within_bar(xi_e2, laminate2, data_diag):
    res = boundary_layer_limit(laminate2, data_diag, xi_e2, tolerance=1e-8, h=1 / 16)
    vals = np.asarray(res.values_per_height)
    assert np.abs(vals[-1] - vals[-2]).max() <= 2.0 * res.error_bar


def test_decay_rate_laplace_unit_frequency(xi_e2, data_cos1):
    res = boundary_layer_limit(
        identity_tensor(2), data_cos1, xi_e2, tolerance=1e-30, h=1 / 32,
        R_ladder=[0.75, 1.0, 1.25, 1.5, 1.75, 2.0], stop_on_tolerance=False,
    )
    assert res.decay_rate == pytest.approx(2.0 * math.pi, rel=0.05)


def test_decay_rate_rotated_direction(xi_12):
    # frequency (1,1) has one period along the boundary of the (1,2) strip,
    # so the separated solution decays at 2 pi / sqrt 5 per unit height
    M = math.sqrt(5.0)
    data = cosine_field(2, [1, 1])
    res = boundary_layer_limit(
        identity_tensor(2), data, xi_12, tolerance=1e-30, h=M / 32,
        R_ladder=[0.5 * M, 0.75 * M, 1.0 * M, 1.25 * M], stop_on_tolerance=False,
    )
    assert res.decay_rate == pytest.approx(2.0 * math.pi / M, rel=0.05)


def test_doubling_ladder():
    assert doubling_ladder(4.0, 64.0) == [4.0, 8.0, 16.0, 32.0, 64.0]
    assert doubling_ladder(4.0, 5.0) == [4.0, 8.0]
    assert doubling_ladder(4.0, 4.0) == [4.0]
    # rungs of an irrational period are exact doublings of the first
    M = math.sqrt(5.0)
    assert doubling_ladder(4.0 * M, 64 * M) == [4.0 * M * 2**k for k in range(5)]


def test_fit_decay_requires_points():
    fit = fit_decay([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert fit["degenerate"]
    fit2 = fit_decay([1.0, 2.0, 3.0], [1e-2, 1e-4, 1e-6], min_points=3)
    assert not fit2["degenerate"]
    assert fit2["rate"] == pytest.approx(math.log(100.0), rel=1e-6)


def test_ladder_exhaustion_is_flagged(xi_e2, laminate2, data_diag):
    res = boundary_layer_limit(
        laminate2, data_diag, xi_e2, tolerance=0.0, h=1 / 16, max_factor=8
    )
    assert not res.converged
    assert res.oscillations[-1] > 0.0
    assert res.diagnostics["decay_fit"] is not None


def test_profile_mean_and_periodicity(laminate2, xi_12):
    # lateral cell count 20 makes the 1/|xi| shift an exact index shift,
    # so profile periodicity holds at solver precision
    M = math.sqrt(5.0)
    data = make_field(2, terms=[(0.5, [2, 2], "cos")], constant=1.0 / 3.0)
    prof = shift_profile(laminate2, data, xi_12, sample_count=8, tolerance=1e-8, h=M / 20)
    assert prof.period == pytest.approx(1.0 / M)
    assert prof.mean[0] == pytest.approx(prof.values[:, 0].mean())
    r0 = boundary_layer_limit(laminate2, data, xi_12, s=prof.shifts[2], tolerance=1e-8, h=M / 20)
    r1 = boundary_layer_limit(
        laminate2, data, xi_12, s=prof.shifts[2] + prof.period, tolerance=1e-8, h=M / 20
    )
    assert abs(r0.value[0] - r1.value[0]) <= 2.0 * (r0.error_bar + r1.error_bar)


def test_profile_interpolators(laminate2, xi_e2, data_diag):
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=8, tolerance=1e-7, h=1 / 16)
    cub = prof.interpolator("cubic")
    lin = prof.interpolator("linear")
    # both reproduce the samples
    assert np.abs(cub(prof.shifts) - prof.values).max() <= 1e-10
    assert np.abs(lin(prof.shifts) - prof.values).max() <= 1e-10
    # periodic extension
    assert np.abs(cub(prof.shifts + prof.period) - prof.values).max() <= 1e-10
    assert prof.interpolation_gap() >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    S=st.integers(8, 40), N=st.integers(1, 3), period=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**16),
)
def test_cubic_interpolator_is_the_periodic_spline(S, N, period, seed):
    # the closed-form circulant spline against scipy's periodic CubicSpline
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(seed)
    shifts = np.arange(S) * (period / S)
    values = rng.standard_normal((S, N)) + rng.uniform(-10, 10, N)
    samples = [(s, BoundaryLayerResult(v, math.inf, 0.0, [], True)) for s, v in zip(shifts, values)]
    prof = ShiftProfile(None, shifts, samples, period, values.mean(axis=0), N)
    t = np.concatenate([
        rng.uniform(-3 * period, 3 * period, 50), shifts, shifts + period, [period, -period],
        shifts + 0.5 * period / S,
    ])
    oracle = CubicSpline(np.append(shifts, period), np.vstack([values, values[:1]]),
                         axis=0, bc_type="periodic")
    expect = oracle(np.mod(t, period))
    got = prof.interpolator("cubic")(t)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    assert prof.interpolator("cubic")(t[0]).shape == (N,)


def test_comparison_monotonicity(laminate2, xi_e2):
    # data1 <= data2 pointwise implies ordered far fields (scalar problems)
    d1 = make_field(2, terms=[(1.0, [1, 1], "cos")], constant=1.0 / 3.0)
    d2 = make_field(2, terms=[(1.0, [1, 1], "cos"), (0.05, [1, 0], "cos")], constant=0.4)
    r1 = boundary_layer_limit(laminate2, d1, xi_e2, tolerance=1e-8, h=1 / 16)
    r2 = boundary_layer_limit(laminate2, d2, xi_e2, tolerance=1e-8, h=1 / 16)
    assert r1.value[0] <= r2.value[0] + 2.0 * (r1.error_bar + r2.error_bar)


def test_stability_under_data_perturbation(laminate2, xi_e2, data_diag):
    delta = 1e-3
    d2 = make_field(2, terms=[(1.0, [1, 1], "cos")], constant=1.0 / 3.0 + delta)
    r1 = boundary_layer_limit(laminate2, data_diag, xi_e2, tolerance=1e-8, h=1 / 16)
    r2 = boundary_layer_limit(laminate2, d2, xi_e2, tolerance=1e-8, h=1 / 16)
    C = 1.0 + 1e-6  # recorded sup bound for scalar problems
    assert abs(r2.value[0] - r1.value[0]) <= C * delta + 2.0 * (r1.error_bar + r2.error_bar)


def test_hoelder_in_shift_fit(laminate2, xi_e2, data_diag):
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=8, tolerance=1e-7, h=1 / 16)
    s = prof.shifts
    v = prof.values[:, 0]
    dn, dv = [], []
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            ds = min(abs(s[i] - s[j]), prof.period - abs(s[i] - s[j]))
            if abs(v[i] - v[j]) > 4.0 * prof.max_error_bar and ds > 0:
                dn.append(ds)
                dv.append(abs(v[i] - v[j]))
    alpha = np.polyfit(np.log(dn), np.log(dv), 1)[0]
    assert alpha > 0.0
