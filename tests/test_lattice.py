import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effbc import (
    InvalidDirectionError,
    brute_force_approximate,
    decompose_direction,
    dirichlet_approximate,
    make_rational_direction,
    parse_direction,
)


def test_gcd_reduction_2d():
    rd = make_rational_direction([2, 4])
    assert rd.xi.tolist() == [1, 2]
    assert rd.periods[0].tolist() == [-2, 1]
    assert rd.period_bound == pytest.approx(math.sqrt(5))


def test_axis_direction_3d():
    rd = make_rational_direction([0, 0, 1])
    assert sorted(p.tolist() for p in rd.periods) == [[0, 1, 0], [1, 0, 0]]
    assert rd.period_bound == 1.0


def test_diagonal_3d_reduced_basis_spans_full_lattice():
    rd = make_rational_direction([1, 1, 1])
    assert rd.period_bound == pytest.approx(math.sqrt(2))
    a, b = rd.periods
    # oracle: every short lattice vector orthogonal to xi must be an
    # integer combination of the returned basis (index-1 check)
    B = np.column_stack([a, b]).astype(float)
    rng = range(-3, 4)
    for z1 in rng:
        for z2 in rng:
            for z3 in rng:
                z = np.array([z1, z2, z3])
                if z @ rd.xi != 0:
                    continue
                coeff = np.linalg.lstsq(B, z.astype(float), rcond=None)[0]
                assert np.allclose(coeff, np.round(coeff), atol=1e-9)
                assert np.allclose(B @ np.round(coeff), z)


def test_zero_vector_rejected():
    with pytest.raises(InvalidDirectionError):
        make_rational_direction([0, 0])


@pytest.mark.parametrize("v", [[3, -5], [7, 2], [1, 0, -2], [4, 4, 6], [-3, 5, 9]])
def test_periods_orthogonal_exactly(v):
    rd = make_rational_direction(v)
    for ell in rd.periods:
        assert int(ell @ rd.xi) == 0
    g = math.gcd(*(abs(int(c)) for c in rd.xi))
    assert g == 1


def test_decompose_aligned():
    rd = make_rational_direction([1, 2])
    da = decompose_direction(rd.xi_hat, rd)
    assert da.epsilon == 0.0
    assert abs(da.eta @ rd.xi) < 1e-12


def test_decompose_axis_3d():
    rd = make_rational_direction([0, 0, 1])
    n = np.array([-math.sin(0.1), 0.0, math.cos(0.1)])
    da = decompose_direction(n, rd)
    assert da.epsilon == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(da.eta, [1.0, 0.0, 0.0])


def test_decompose_2d_trig():
    rd = make_rational_direction([1, 0])
    n = np.array([4.0, -3.0]) / 5.0
    da = decompose_direction(n, rd)
    assert da.epsilon == pytest.approx(math.atan(3.0 / 4.0))
    assert np.allclose(da.eta, [0.0, 1.0])
    assert np.linalg.norm(da.reconstruct() - n) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.integers(1, 20), st.integers(-20, 20))
@example(theta=5.74267638598559, p=20, q=-12)  # near alignment: acos lost digits here
def test_reconstruction_property_2d(theta, p, q):
    if p == 0 and q == 0:
        return
    rd = make_rational_direction([p, q if q else 1])
    n = np.array([math.cos(theta), math.sin(theta)])
    da = decompose_direction(n, rd)
    assert np.linalg.norm(da.reconstruct() - n) <= 1e-12
    assert abs(da.eta @ rd.xi) < 1e-9
    assert 0.0 <= da.epsilon <= math.pi


def test_dirichlet_exact_rational():
    ap = dirichlet_approximate(np.array([0.6, 0.8]), 10)
    assert ap.xi.tolist() == [3, 4]
    assert ap.k == 5
    assert ap.error == 0.0


def test_dirichlet_axis():
    ap = dirichlet_approximate(np.array([1.0, 0.0, 0.0]), 1)
    assert ap.xi.tolist() == [1, 0, 0]
    assert ap.k == 1
    assert ap.error == 0.0


def test_dirichlet_golden_matches_brute_force():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    n = np.array([1.0, phi])
    n /= np.linalg.norm(n)
    fast = dirichlet_approximate(n, 20)
    brute = brute_force_approximate(n, 20)
    assert fast.error == pytest.approx(brute.error, rel=1e-12)
    # best approximants of the golden angle come from Fibonacci pairs
    assert abs(fast.xi[1] / fast.xi[0] - phi) < 0.05


def test_dirichlet_error_weakly_monotone_in_Q():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.standard_normal(2)
        n /= np.linalg.norm(n)
        errs = [dirichlet_approximate(n, Q).error for Q in range(1, 15)]
        assert all(errs[i + 1] <= errs[i] + 1e-15 for i in range(len(errs) - 1))


def test_dirichlet_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    cases = [(2, 60), (3, 40)]
    for d, count in cases:
        for _ in range(count):
            n = rng.standard_normal(d)
            n /= np.linalg.norm(n)
            fast = dirichlet_approximate(n, 12)
            brute = brute_force_approximate(n, 12)
            assert fast.error == pytest.approx(brute.error, rel=1e-12, abs=1e-15)


def test_dirichlet_constant_recorded():
    n = np.array([1.0, math.e])
    n /= np.linalg.norm(n)
    ap = dirichlet_approximate(n, 25)
    assert ap.constant == pytest.approx(ap.error * ap.k * 25.0)


def test_parse_direction_strings():
    rd = parse_direction("rational: [2, 4, 6]")
    assert rd.xi.tolist() == [1, 2, 3]
    n = parse_direction("unit: [0.6, 0.8]")
    assert np.allclose(n, [0.6, 0.8])
    d = parse_direction({"rational": [0, 1]})
    assert d.xi.tolist() == [0, 1]
    with pytest.raises(InvalidDirectionError):
        parse_direction("spherical: [1]")
