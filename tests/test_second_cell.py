import math

import numpy as np
import pytest

from effbc import (
    EffbcError,
    RootKinkOperator,
    constant_field,
    continuity_sweep,
    cosine_field,
    directional_limit,
    effective_operator,
    eta_independence_check,
    gap_certificate,
    homogenize_linear,
    identity_tensor,
    make_field,
    make_rational_direction,
    predict_phi_star,
    reduce_tensor,
    reduced_kink_residual,
    shift_profile,
    subsolution_residual,
)


def test_reduce_tensor_frame():
    A0 = np.zeros((3, 3, 1, 1))
    A0[:, :, 0, 0] = np.diag([1.0, 2.0, 3.0])
    red = reduce_tensor(A0, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(red[:, :, 0, 0], np.diag([2.0, 3.0]))


def test_reduce_tensor_keeps_exact_symmetry():
    # a jittered direction near (1, 6): the reduction Q^T A0 Q of the
    # exactly symmetric laminate tensor must stay exactly symmetric, so the
    # reduced strip solve takes the CG path
    from effbc import laminate_tensor
    from effbc.lattice import decompose_direction, dirichlet_approximate
    from effbc.grid import _symmetric_cells

    A0 = homogenize_linear(laminate_tensor(2)).A0
    assert _symmetric_cells(A0)
    n = np.array([0.17130544320118007, 0.9852179683347474])
    xi = make_rational_direction(dirichlet_approximate(n, 6).xi)
    assert xi.xi.tolist() == [1, 6]
    red = reduce_tensor(A0, decompose_direction(n, xi).eta, xi.xi_hat)
    assert _symmetric_cells(red)


def test_average_formula_linear(laminate2, xi_e2, data_diag):
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=16, tolerance=1e-8, h=1 / 16)
    hom = homogenize_linear(laminate2)
    lim = directional_limit(xi_e2, [1.0, 0.0], prof, hom, tolerance=1e-9)
    assert np.abs(lim.value - prof.mean).max() <= 2.0 * lim.error_bar


def test_eta_independence_flat_profile(xi_e2, laminate2):
    prof = shift_profile(
        laminate2, constant_field(2, 0.4), xi_e2, sample_count=8, tolerance=1e-9, h=1 / 16
    )
    hom = homogenize_linear(laminate2)
    check = eta_independence_check(xi_e2, prof, hom, [[1.0, 0.0], [-1.0, 0.0]])
    assert check["spread"] <= 1e-10


def test_eta_independence_3d_constant_tensor():
    xi = make_rational_direction([0, 0, 1])
    I3 = identity_tensor(3)
    data = make_field(3, terms=[(1.0, [0, 0, 1], "cos"), (0.5, [1, 0, 0], "cos")], constant=0.25)
    prof = shift_profile(I3, data, xi, sample_count=8, tolerance=1e-8, h=1 / 8)
    s = 1.0 / math.sqrt(2.0)
    etas = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [s, s, 0.0]]
    check = eta_independence_check(xi, prof, I3, etas, tolerance=1e-9)
    bars = max(l.error_bar for l in check["limits"])
    assert check["spread"] <= 2.0 * bars
    for lim in check["limits"]:
        assert np.abs(lim.value - prof.mean).max() <= 2.0 * lim.error_bar


def test_eta_must_be_orthogonal(xi_e2, laminate2, data_diag):
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=8, tolerance=1e-7, h=1 / 16)
    with pytest.raises(EffbcError):
        directional_limit(xi_e2, [0.0, 1.0], prof, homogenize_linear(laminate2))


def test_directional_limit_rejects_a_raw_laminate(xi_e2, laminate2):
    # read at y = 0 the laminate would pass for diag(1, 1), not for A0
    prof = shift_profile(
        laminate2, constant_field(2, 0.4), xi_e2, sample_count=8, tolerance=1e-9, h=1 / 16
    )
    with pytest.raises(EffbcError, match="homogenize first"):
        directional_limit(xi_e2, [1.0, 0.0], prof, laminate2)


def test_reduced_operator_takes_constant_tensors_as_they_stand():
    from effbc.homogenize import constant_tensor
    from effbc.second_cell import _reduced_operator

    eta, xi_hat = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    A0 = np.zeros((3, 3, 1, 1))
    A0[:, :, 0, 0] = np.diag([1.0, 2.0, 3.0])
    cases = ((identity_tensor(3), np.eye(2)), (constant_tensor(A0, 0.5), np.diag([1.0, 3.0])))
    for tensor, expected in cases:
        op2, is_linear = _reduced_operator(tensor, eta, xi_hat)
        assert is_linear and not op2.y_dependent
        assert np.array_equal(op2(np.zeros((2, 1)))[:, :, 0, 0, 0], expected)


def _constant_quadratic_potential(A):
    from effbc.homogenize import constant_tensor
    from effbc.operators import QuadraticPotential

    A0 = np.asarray(A, dtype=float)[:, :, None, None]
    return QuadraticPotential(constant_tensor(A0, 0.5)), A0


def test_reduced_monotone_flux_is_the_reduced_tensor_product():
    # a constant quadratic potential has no closed-form reduction, so its
    # limits run on Q^T a(Q p), which is the reduced tensor times p
    from effbc.operators import _ReducedMonotone
    from effbc.second_cell import _reduced_operator

    op, A0 = _constant_quadratic_potential([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    eta, xi_hat = np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.0, 1.0])
    op2, is_linear = _reduced_operator(op, eta, xi_hat)
    assert isinstance(op2, _ReducedMonotone) and not is_linear
    p = np.random.default_rng(2).standard_normal((2, 5, 7))
    expected = np.einsum("ab,b...->a...", reduce_tensor(A0, eta, xi_hat)[:, :, 0, 0], p)
    assert np.abs(op2.flux(p) - expected).max() <= 1e-14


@pytest.mark.parametrize("eta", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], ids=["e2", "e3"])
def test_root_kink_off_e3_is_restricted_to_its_own_plane(eta):
    # the closed forms of RootKinkOperator.reduced hold on the planes
    # through e3; at xi = e1 the limits run on Q^T a(Q p) of the plane
    # spanned by eta and e1
    from effbc.second_cell import _reduced_operator

    op, xi_hat = RootKinkOperator(), np.array([1.0, 0.0, 0.0])
    op2, is_linear = _reduced_operator(op, eta, xi_hat)
    Q = np.stack([np.asarray(eta), xi_hat], axis=1)
    p = np.random.default_rng(4).standard_normal((2, 9))
    assert not is_linear and not op2.is_variational
    assert np.array_equal(op2.flux(p), Q.T @ op.flux(Q @ p))


def test_limit_through_the_reduced_monotone_map_converges(laminate2, xi_e2, data_diag):
    # the constant laminate average as a quadratic potential: its limit runs
    # the descent on the reduced map (variational, as the potential is) and,
    # like any constant linear
    # operator's, lands on the mean of the profile (the linear interpolant
    # of periodic samples has their mean)
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=16, tolerance=1e-8, h=1 / 16)
    op, _ = _constant_quadratic_potential(homogenize_linear(laminate2).A0[:, :, 0, 0])
    lim = directional_limit(xi_e2, [1.0, 0.0], prof, op, tolerance=1e-8)
    assert lim.converged and lim.diagnostics["interp"] == "linear"
    assert np.abs(lim.value - prof.mean).max() <= max(lim.diagnostics["strip_bar"], 1e-8)


def test_root_kink_limits_split_by_approach():
    op = RootKinkOperator()
    xi = make_rational_direction([0, 0, 1])
    data = cosine_field(3, [0, 0, 1], constant=1.0 / 3.0)
    prof = shift_profile(op, data, xi, sample_count=16, tolerance=1e-8, h=1 / 16)
    # profile solves are constant-data and therefore exact
    assert np.abs(prof.values[:, 0] - (1.0 / 3.0 + np.cos(2 * np.pi * prof.shifts))).max() <= 1e-12
    lim1 = directional_limit(xi, [1.0, 0.0, 0.0], prof, op, tolerance=1e-8, tau=1 / 64, n_lat=64)
    lim2 = directional_limit(xi, [0.0, 1.0, 0.0], prof, op, tolerance=1e-8, tau=1 / 64, n_lat=64)
    assert abs(lim1.value[0]) <= 0.02
    assert lim2.value[0] >= 0.1
    assert lim2.value[0] - lim1.value[0] > 2.0 * (lim1.error_bar + lim2.error_bar) / 4.0


def test_predict_rational_equals_directional_limit(laminate2, xi_e2, data_diag):
    pred = predict_phi_star(
        np.array([0.0, 1.0]), laminate2, data_diag, Q=8, tolerance=1e-8,
        profile_samples=8, h=1 / 16,
    )
    assert pred.provenance == "rational"
    assert pred.epsilon == 0.0
    prof = shift_profile(laminate2, data_diag, xi_e2, sample_count=8, tolerance=1e-8, h=1 / 16)
    lim = directional_limit(
        xi_e2, pred.eta, prof, homogenize_linear(laminate2), tolerance=1e-8
    )
    assert pred.value[0] == lim.value[0]  # identical computation, exact match


def test_predict_laplace_everything_is_zero(data_cos1):
    I2 = identity_tensor(2)
    for theta in (0.1, 0.35):
        n = np.array([math.sin(theta), math.cos(theta)])
        pred = predict_phi_star(n, I2, data_cos1, Q=8, tolerance=1e-8, profile_samples=8, h=None)
        assert abs(pred.value[0]) <= 1e-6


def test_sweep_constant_data_degenerate(laminate2):
    dirs = [np.array([math.sin(t), math.cos(t)]) for t in (0.05, 0.2, 0.4)]
    report = continuity_sweep(
        laminate2, constant_field(2, 0.3), dirs, Q=6, tolerance=1e-8, profile_samples=8
    )
    assert report.degenerate
    assert all(r["ok"] for r in report.rows)
    assert all(math.isnan(a) for a in report.alpha_range)


def test_sweep_linear_positive_exponent(laminate2, data_diag):
    thetas = np.linspace(0.08, 0.45, 6)
    dirs = [np.array([math.sin(t), math.cos(t)]) for t in thetas]
    report = continuity_sweep(
        laminate2, data_diag, dirs, Q=10, tolerance=1e-7, profile_samples=8
    )
    assert not report.degenerate
    assert report.alpha_hat > 0.0
    assert report.pairs_used >= 3
    assert len(report.pairs) == report.pairs_used
    lo, hi = report.alpha_range
    assert lo <= report.alpha_hat <= hi


def test_sweep_homogenizes_once(monkeypatch, laminate2, data_diag):
    import effbc.second_cell as second_cell

    calls = []
    monkeypatch.setattr(
        second_cell, "homogenize_linear",
        lambda A, **kw: calls.append(A) or homogenize_linear(A, **kw),
    )
    dirs = [np.array([math.sin(t), math.cos(t)]) for t in (0.05, 0.2, 0.4)]
    kw = dict(Q=6, tolerance=1e-7, profile_samples=8)
    report = continuity_sweep(laminate2, data_diag, dirs, **kw)
    assert calls == [laminate2]
    hom = homogenize_linear(laminate2)
    for n, row in zip(dirs, report.rows):
        pred = predict_phi_star(n, laminate2, data_diag, effective=hom, **kw)
        assert np.array_equal(row["prediction"].value, pred.value)


def test_effective_operator_of_each_kind(laminate2):
    from effbc.operators import QuadraticPotential

    hom = effective_operator(laminate2, h_cell=1 / 16)
    assert np.array_equal(hom.A0, homogenize_linear(laminate2, h_cell=1 / 16).A0)
    kink = RootKinkOperator()
    assert effective_operator(kink) is kink
    with pytest.raises(EffbcError, match="y-dependent"):
        effective_operator(QuadraticPotential(laminate2))


def test_prediction_without_an_effective_operator_fails_before_its_profile(
    monkeypatch, laminate2, data_diag
):
    import effbc.second_cell as second_cell
    from effbc.operators import QuadraticPotential

    def no_profile(*args, **kwargs):
        raise AssertionError("a shift profile was solved")

    monkeypatch.setattr(second_cell, "shift_profile", no_profile)
    with pytest.raises(EffbcError, match="y-dependent"):
        predict_phi_star([0.0, 1.0], QuadraticPotential(laminate2), data_diag, Q=3, tau=1 / 16)


def test_gap_certificate_of_the_kink_map():
    # v = w on the boundary and v >= w above it; the gap at height 1 bounds
    # the far field along e2 from below
    cert = gap_certificate(RootKinkOperator(), tau=1 / 16)
    assert cert.domination == 0.0
    assert cert.height == 1.0
    assert cert.gap == pytest.approx(0.070391, abs=1e-6)
    assert cert.solution.top_slice().mean() >= cert.gap


def test_subsolution_residual_closed_form():
    y = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    z = np.linspace(0.0, 4.0, 256)
    Y, Z = np.meshgrid(y, z, indexing="ij")
    vals = subsolution_residual(Y, Z)
    assert vals.max() <= 0.0
    zero_rows = np.unique(np.where(np.abs(vals) < 1e-14)[0])
    assert zero_rows.tolist() == [0]  # equality only on cos y = 1
    assert subsolution_residual(0.0, 0.0) == 0.0
    assert subsolution_residual(np.pi, 0.0) == pytest.approx(-4.0 / 9.0 + 1.0 / 3.0)
    # the exact residual of w is also nonpositive (true subsolution), but
    # touches zero at cos y = -1 as well
    exact = reduced_kink_residual(Y, Z)
    assert exact.max() <= 1e-15
    assert reduced_kink_residual(np.pi, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert reduced_kink_residual(np.pi / 2.0, 0.0) == pytest.approx(-0.25)
