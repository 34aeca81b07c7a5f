"""Generic transformed-variable least squares and the SPD solver."""

import numpy as np
import pytest

from ssls.errors import NotSPD, SingularDesign
from ssls.rng import Stream
from ssls.learners import linear_solve_spd
from ls_oracle import TransformedSample, solve_transformed_ls


def make_sample(z, v):
    return TransformedSample(z_hat=z, v_hat=v)


def test_exact_fit_zero_residuals():
    s = Stream(1)
    v = s.normal(40).reshape(20, 2)
    z = v @ np.array([1.0, 2.0])
    est = solve_transformed_ls(make_sample(z, v))
    assert np.allclose(est.beta_hat, [1.0, 2.0], atol=1e-12)
    assert np.allclose(est.residuals, 0.0, atol=1e-12)
    assert np.allclose(est.sigma_hat, 0.0, atol=1e-12)


def test_matches_bruteforce_normal_equations():
    # independent oracle: explicit 3x3 inversion of the normal equations
    s = Stream(2)
    v = s.normal(60).reshape(20, 3)
    z = s.normal(20) * 2.0324
    est = solve_transformed_ls(make_sample(z, v))
    beta_oracle = np.linalg.inv(v.T @ v) @ (v.T @ z)
    assert np.allclose(est.beta_hat, beta_oracle, atol=1e-10)


def test_intercept_only():
    z = np.array([1.0, 2.0, 3.0, 6.0])
    v = np.ones((4, 1))
    est = solve_transformed_ls(make_sample(z, v))
    assert est.beta_hat[0] == pytest.approx(z.mean(), abs=1e-12)
    assert est.sigma_hat[0, 0] == pytest.approx(np.mean((z - z.mean()) ** 2), abs=1e-12)


def test_matches_textbook_hc0():
    # plug-in sandwich equals the standard heteroskedasticity-robust OLS
    # covariance computed independently below
    s = Stream(3)
    n, d = 150, 4
    v = s.normal(n * d).reshape(n, d)
    z = v @ np.array([0.5, -1.0, 0.0, 2.0]) + s.normal(n) * (1 + np.abs(v[:, 0]))
    est = solve_transformed_ls(make_sample(z, v))
    bread = np.linalg.inv(v.T @ v / n)
    resid = z - v @ np.linalg.inv(v.T @ v) @ (v.T @ z)
    meat = (v * resid[:, None] ** 2).T @ v / n
    oracle = bread @ meat @ bread
    assert np.allclose(est.sigma_hat, oracle, atol=1e-10 * np.abs(oracle).max())


def test_scaling_equivariance():
    s = Stream(4)
    v = s.normal(90).reshape(30, 3)
    z = s.normal(30)
    base = solve_transformed_ls(make_sample(z, v))
    c = 7.5
    v2 = v.copy()
    v2[:, 1] *= c
    scaled = solve_transformed_ls(make_sample(z, v2))
    expected = base.beta_hat.copy()
    expected[1] /= c
    assert np.allclose(scaled.beta_hat, expected, atol=1e-9)
    assert np.allclose(v2 @ scaled.beta_hat, v @ base.beta_hat, atol=1e-9)


def test_residual_orthogonality():
    s = Stream(5)
    v = s.normal(200).reshape(50, 4)
    z = s.normal(50) * 3.0
    est = solve_transformed_ls(make_sample(z, v))
    scale = np.abs(v).max() * np.abs(z).max()
    assert np.abs(v.T @ est.residuals).max() <= 1e-8 * 50 * scale


def test_sandwich_psd():
    for seed in range(10):
        s = Stream(seed)
        v = s.normal(120).reshape(40, 3)
        z = s.normal(40)
        est = solve_transformed_ls(make_sample(z, v))
        eigvals = np.linalg.eigvalsh(est.sigma_hat)
        assert eigvals.min() >= -1e-10


def test_singular_gram():
    v = np.zeros((10, 2))
    v[:, 0] = 1.0  # second column identically zero
    with pytest.raises(SingularDesign):
        solve_transformed_ls(make_sample(np.ones(10), v))


def test_solve_spd_examples():
    assert np.allclose(linear_solve_spd(np.eye(3), np.array([1.0, 2, 3])), [1, 2, 3])
    assert np.allclose(
        linear_solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0]
    )


def test_solve_spd_random():
    s = Stream(6)
    a = s.normal(25).reshape(5, 5)
    m = a.T @ a + np.eye(5)
    b = s.normal(5)
    x = linear_solve_spd(m, b)
    assert np.linalg.norm(m @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_solve_spd_matrix_rhs():
    s = Stream(7)
    a = s.normal(16).reshape(4, 4)
    m = a.T @ a + np.eye(4)
    b = s.normal(8).reshape(4, 2)
    x = linear_solve_spd(m, b)
    assert np.abs(m @ x - b).max() <= 1e-8


def test_solve_spd_rejects_asymmetric_and_indefinite():
    with pytest.raises(NotSPD):
        linear_solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(NotSPD):
        linear_solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))
