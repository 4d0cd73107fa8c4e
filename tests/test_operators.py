import numpy as np
import pytest

from effbc import (
    DirectMap,
    KinkPotential2D,
    OperatorInvalidError,
    QuadraticPotential,
    ReducedRootKink,
    RootKinkOperator,
    identity_tensor,
    isotropic_tensor,
    laminate_tensor,
    make_field,
    validate_operator,
)
from effbc.operators import _sample_pairs, huber_abs, huber_abs_integral
from effbc.sampling import weyl_points
from operator_checks import (
    homogeneity_check, potential_gradient_consistency, root_kink_identity_residual,
)


def _looped_sample_pairs(d, sample_count, radius, seed):
    """The axis pairs built one by one: the oracle of _sample_pairs."""
    pq = weyl_points(sample_count, 2 * d, -radius, radius, seed)
    p, q = pq[:d], pq[d:]
    mags = np.concatenate([np.geomspace(1e-6, radius, 8), [0.0]])
    extra_p, extra_q = [], []
    for axis in range(d):
        for a in mags:
            for b in mags:
                for sa in (-1.0, 1.0):
                    for sb in (-1.0, 1.0):
                        u = np.zeros(d)
                        v = np.zeros(d)
                        u[axis] = sa * a
                        v[axis] = sb * b
                        if np.allclose(u, v):
                            continue
                        extra_p.append(u)
                        extra_q.append(v)
    p = np.concatenate([p, np.array(extra_p).T], axis=1)
    q = np.concatenate([q, np.array(extra_q).T], axis=1)
    return p, q


@pytest.mark.parametrize("d,count,radius", [(2, 10, 2.0), (3, 2000, 2.0), (2, 50, 1e-5)])
def test_sample_pairs_match_the_loop(d, count, radius):
    # the witness of validate_operator depends on the order of the pairs;
    # bytes, so that the signs of zeros agree too
    got = _sample_pairs(d, count, radius, 3)
    expect = _looped_sample_pairs(d, count, radius, 3)
    for x, y in zip(got, expect):
        assert np.array_equal(x, y) and x.tobytes() == y.tobytes()


def test_root_kink_validation_report_is_pinned():
    # the seed-0 report of a kink-3d cell-solve (tau = 1/64); its extremes
    # are attained at the structured axis pairs
    _, _, report = validate_operator(RootKinkOperator(), seed=0, tau=1.0 / 64.0)
    assert report["lambda_hat"] == 0.7500101025939303
    assert report["lipschitz_hat"] == 1.49998989740607
    assert report["pairs"] == 2912
    assert report["witness_min"] == [[0.0, 0.0, -0.25169979012836524], [0.0, 0.0, -2.0]]


def test_identity_map_constants():
    op = DirectMap(lambda p: p, d=2, lam=1.0, lip=1.0, homogeneous=True)
    lam, lip, _ = validate_operator(op, sample_count=2000)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert lip == pytest.approx(1.0, abs=1e-9)


def test_reduced_map_constants():
    lam, lip, report = validate_operator(KinkPotential2D(), sample_count=10000, seed=1)
    assert 0.74 <= lam <= 0.76
    assert 1.49 <= lip <= 1.51
    assert report["pairs"] >= 10000


def test_root_kink_constants_and_jacobian_oracle():
    lam, lip, _ = validate_operator(RootKinkOperator(), sample_count=10000, seed=1)
    assert lam > 0
    # independent oracle: eigenvalues of the symmetrized Jacobian of the
    # flux away from the origin (analytic derivatives of f)
    ts = np.linspace(0.0, 2.0 * np.pi, 4001)
    p1, p3 = np.cos(ts), np.sin(ts)
    w = np.sqrt(8.0 * p1**2 + 9.0 * p3**2)
    c = (p1 / w) / 2.0
    g = (9.0 * p3 / w + 1.0) / 8.0
    lmin = (1.0 + g / 2.0 - np.sqrt(g * g / 4.0 + c * c)).min()
    lmax = (1.0 + g / 2.0 + np.sqrt(g * g / 4.0 + c * c)).max()
    assert lmin == pytest.approx(0.75, abs=1e-6)
    assert lmax == pytest.approx(1.5, abs=1e-6)
    assert lam >= lmin - 1e-9
    assert lip <= lmax + 1e-9


def test_root_kink_algebraic_identity():
    assert root_kink_identity_residual(sample_count=10000) <= 1e-10


def test_monotonicity_violation_carries_witness():
    op = DirectMap(lambda p: -p, d=2)
    with pytest.raises(OperatorInvalidError) as exc:
        validate_operator(op, sample_count=100)
    assert exc.value.witness is not None
    p, q = exc.value.witness
    assert p.shape == (2,) and q.shape == (2,)


def test_homogeneity_root_kink():
    assert homogeneity_check(RootKinkOperator()) <= 1e-12


def test_homogeneity_identity():
    op = DirectMap(lambda p: p, d=2, homogeneous=True)
    assert homogeneity_check(op) == 0.0


def test_homogeneity_rejects_quadratic_growth():
    op = DirectMap(
        lambda p: p + p * np.linalg.norm(p, axis=0, keepdims=True), d=2, homogeneous=True
    )
    assert homogeneity_check(op) > 0.1


def test_potential_consistency_quadratic():
    op = QuadraticPotential(identity_tensor(2))
    assert potential_gradient_consistency(op, h=1e-4) <= 1e-8


def test_potential_consistency_kink():
    # smoothed |.| has curvature ~ 1/tau; the bound 10 h^2 / tau applies
    tau = 0.05
    defect = potential_gradient_consistency(KinkPotential2D(), h=1e-4, tau=tau)
    assert defect <= 10.0 * 1e-8 / tau


def test_potential_consistency_trig_quadratic():
    prof = make_field(2, terms=[(0.25, [1, 1], "cos")], constant=0.75)
    op = QuadraticPotential(isotropic_tensor(prof, lam=0.5))
    assert potential_gradient_consistency(op, h=1e-4) <= 1e-6


def test_potential_consistency_requires_potential():
    with pytest.raises(ValueError):
        potential_gradient_consistency(RootKinkOperator())


def test_reduced_factory():
    op = RootKinkOperator()
    r2 = op.reduced(np.array([0.0, 1.0, 0.0]))
    assert isinstance(r2, KinkPotential2D)
    r1 = op.reduced(np.array([1.0, 0.0, 0.0]))
    assert isinstance(r1, ReducedRootKink)
    # reduction along e2 agrees with the closed 2-d map
    p = np.random.default_rng(0).standard_normal((2, 50))
    q = r2.flux(p)
    assert np.allclose(q[0], p[0])
    assert np.allclose(q[1], 9.0 / 8.0 * p[1] + 3.0 / 8.0 * np.abs(p[1]))


def test_quadratic_potential_needs_symmetry():
    lam = laminate_tensor(2)
    QuadraticPotential(lam)  # fine
    with pytest.raises(ValueError):
        QuadraticPotential(identity_tensor(2, n_components=2))


def test_huber_profile():
    ts = np.linspace(-1.0, 1.0, 1001)
    tau = 0.1
    assert huber_abs(0.0, tau) == 0.0
    slopes = np.diff(huber_abs(ts, tau)) / np.diff(ts)
    assert np.all(np.abs(slopes) <= 1.0 + 1e-12)
    assert np.max(np.abs(huber_abs(ts, tau) - np.abs(ts))) <= tau / 2.0 + 1e-15
    # antiderivative limits to t|t|/2
    assert huber_abs_integral(0.7, 0.0) == pytest.approx(0.7 * 0.7 / 2.0)
    assert huber_abs_integral(-0.7, 1e-9) == pytest.approx(-0.245, rel=1e-6)
