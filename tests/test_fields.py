import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effbc import (
    constant_field,
    cosine_field,
    evaluate_field,
    identity_tensor,
    isotropic_tensor,
    laminate_tensor,
    make_field,
    validate_tensor,
)


def test_constant_field_value():
    f = constant_field(2, 0.7)
    assert evaluate_field(f, np.array([[0.3], [0.9]]))[0] == 0.7


def test_offset_cosine_value():
    # 1/3 + cos(2 pi y1) at y1 = 0 is 4/3
    f = cosine_field(2, [1, 0], constant=1.0 / 3.0)
    assert evaluate_field(f, np.zeros((2, 1)))[0] == pytest.approx(4.0 / 3.0)


def test_sine_term_value():
    # a "sin" term is sin(2 pi k . y), bit for bit
    f = make_field(1, terms=[(1.0, [1], "sin")])
    assert evaluate_field(f, np.array([[0.1]]))[0] == np.sin(2 * math.pi * 0.1)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.integers(-4, 4), st.integers(-4, 4),
)
def test_lattice_periodicity(y1, y2, z1, z2):
    f = make_field(
        2,
        terms=[(0.7, [1, 0], "cos"), (0.3, [2, -1], "sin"), (0.1, [0, 3], "cos")],
        constant=0.2,
    )
    y = np.array([[y1], [y2]])
    z = np.array([[z1], [z2]], dtype=float)
    assert abs(evaluate_field(f, y) - evaluate_field(f, y + z))[0] <= 1e-12


def test_c_norm_bound():
    f = cosine_field(2, [2, 1], amplitude=0.5)
    # first derivative bound: 0.5 * (2 pi * |k|_1)
    assert f.c_norm_bound(1) == pytest.approx(0.5 * 2 * math.pi * 3)
    assert f.grad_sup_bound() == pytest.approx(0.5 * 2 * math.pi * math.sqrt(5))


def test_multicomponent_field():
    f = make_field(2, terms=[([1.0, -2.0], [1, 0], "cos")], constant=[0.0, 1.0], n_components=2)
    vals = evaluate_field(f, np.zeros((2, 1)))
    assert vals.shape == (2, 1)
    assert vals[:, 0] == pytest.approx([1.0, -1.0])


def test_scale_argument_integer_only():
    f = cosine_field(2, [1, 0])
    g = f.scale_argument(4)
    y = np.array([[0.13], [0.4]])
    assert evaluate_field(g, y) == pytest.approx(math.cos(2 * math.pi * 4 * 0.13), rel=1e-13)
    with pytest.raises(ValueError):
        f.scale_argument(0.5)


def test_validate_tensor_laminate(laminate2):
    lam_hat, upper_hat = validate_tensor(laminate2, sample_count=4096, seed=2)
    assert lam_hat >= laminate2.lam - 1e-12
    assert upper_hat <= 1.0 + 1e-12


def test_validate_tensor_detects_violation():
    # declared lambda above the true lower bound must fail
    prof = make_field(2, terms=[(0.5, [1, 0], "cos")], constant=0.6)
    bad = isotropic_tensor(prof, lam=0.5)
    with pytest.raises(ValueError):
        validate_tensor(bad, sample_count=4096, seed=0)


def test_identity_tensor_symmetric():
    assert identity_tensor(3).is_symmetric()
    assert laminate_tensor(2).is_symmetric()


def test_tensor_digest_stable(laminate2):
    assert laminate2.digest() == laminate_tensor(2).digest()


def _per_entry(tensor, y):
    """Every entry evaluated on its own."""
    d, N = tensor.d, tensor.n_components
    out = np.empty((d, d, N, N) + y.shape[1:])
    for a, b, i, j in np.ndindex(d, d, N, N):
        out[a, b, i, j] = evaluate_field(tensor.entries[a][b][i][j], y)
    return out


@pytest.mark.parametrize("case", ["laminate_2d_N2", "laminate_3d_N2", "random_3d_N2"])
def test_tensor_evaluates_each_distinct_entry_once(case):
    # isotropic tensors repeat one profile object and one zero; the values
    # are those of evaluating every entry on its own
    from test_matrix_free import random_tensor

    rng = np.random.default_rng(4)
    tensor = {
        "laminate_2d_N2": lambda: laminate_tensor(2, n_components=2),
        "laminate_3d_N2": lambda: laminate_tensor(3, n_components=2),
        "random_3d_N2": lambda: random_tensor(rng, 3, 2, symmetric=False),
    }[case]()
    y = rng.random((tensor.d, 5, 7))
    got = tensor(y)
    want = _per_entry(tensor, y)
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
