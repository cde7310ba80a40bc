import numpy as np
import pytest

import oracles
from loudclass.errors import (
    ConfigurationError,
    DataError,
    DegenerateFeatureError,
    ShapeError,
)
from loudclass.pca import fit_pca, standardize, transform
from loudclass.pipeline import feature_matrix


def test_standardize_example():
    Z, means, sds = standardize(np.array([[1.0], [3.0]]))
    assert means[0] == 2.0
    assert sds[0] == pytest.approx(np.sqrt(2.0))
    assert Z[:, 0] == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-12)


def test_standardize_columns_have_unit_sample_variance(rng):
    X = rng.normal(3.0, 5.0, size=(40, 6))
    Z, _, _ = standardize(X)
    assert Z.mean(axis=0) == pytest.approx(np.zeros(6), abs=1e-12)
    assert Z.std(axis=0, ddof=1) == pytest.approx(np.ones(6), abs=1e-12)


def test_standardize_rejects_constant_column(rng):
    X = rng.normal(size=(10, 3))
    for value in (7.0, 0.3):  # ten copies of 0.3 have a computed sd of about 6e-17
        X[:, 1] = value
        with pytest.raises(DegenerateFeatureError, match="column 1 is constant"):
            standardize(X)
    with pytest.raises(DataError):
        standardize(X[:1])
    with pytest.raises(ShapeError):
        standardize(X[:, 0])


def test_loadings_orthonormal(small_records):
    Z, _, _ = standardize(feature_matrix(small_records))
    model = fit_pca(Z, 12)
    gram = model.loadings.T @ model.loadings
    assert np.abs(gram - np.eye(12)).max() < 1e-10
    assert np.all(np.diff(model.explained_variance) <= 1e-12)
    # Correlation matrix has trace d, so fractions sum to 1 at k = d.
    assert model.explained_variance_fraction.sum() == pytest.approx(1.0, abs=1e-12)


def test_eigenvalues_match_jacobi_oracle(rng):
    for _ in range(10):
        Z, _, _ = standardize(rng.normal(size=(30, 12)))
        model = fit_pca(Z, 12)
        corr = (Z.T @ Z) / (Z.shape[0] - 1)
        ref_values, _ = oracles.jacobi_eigh(corr)
        assert np.abs(model.explained_variance - ref_values).max() < 1e-9


def test_full_rank_reconstruction(small_records):
    Z, _, _ = standardize(feature_matrix(small_records))
    model = fit_pca(Z, 12)
    scores = transform(model, Z)
    assert np.abs(scores @ model.loadings.T - Z).max() < 1e-8


def test_sign_convention(rng):
    Z, _, _ = standardize(rng.normal(size=(25, 5)))
    model = fit_pca(Z, 5)
    for j in range(5):
        pivot = int(np.argmax(np.abs(model.loadings[:, j])))
        assert model.loadings[pivot, j] > 0


def test_truncation_consistency(rng):
    Z, _, _ = standardize(rng.normal(size=(25, 5)))
    full = fit_pca(Z, 5)
    two = fit_pca(Z, 2)
    assert two.n_components == 2
    assert np.allclose(two.loadings, full.loadings[:, :2], atol=1e-12)
    assert np.allclose(
        transform(two, Z), transform(full, Z)[:, :2], atol=1e-12
    )


def test_fit_validation(rng):
    Z, _, _ = standardize(rng.normal(size=(10, 4)))
    with pytest.raises(ConfigurationError):
        fit_pca(Z, 0)
    with pytest.raises(ConfigurationError):
        fit_pca(Z, 5)
    with pytest.raises(ShapeError):
        transform(fit_pca(Z, 2), Z[:, :3])


def test_model_arrays_read_only(rng):
    Z, _, _ = standardize(rng.normal(size=(10, 4)))
    model = fit_pca(Z, 2)
    with pytest.raises(ValueError):
        model.loadings[0, 0] = 1.0
