import numpy as np
import pytest

from _oracles import power_eigh, reconstruction_error
from evrect.errors import DataError
from evrect.pca import fit, project


def test_rank_one_data_keeps_one_dim(rng):
    direction = rng.standard_normal(81)
    direction /= np.linalg.norm(direction)
    coeffs = rng.standard_normal(200)
    samples = coeffs[:, None] * direction[None, :] + 3.0
    model = fit(samples, energy=0.95)
    assert model.n_components == 1
    assert model.energy_kept == pytest.approx(1.0)
    assert abs(model.components[0] @ direction) == pytest.approx(1.0)


def test_isotropic_cloud_matches_power_method_oracle(rng):
    samples = rng.standard_normal((4_000, 12))
    model = fit(samples, fixed_dims=5)
    vals, comps, mean = power_eigh(samples, 5)
    ours = reconstruction_error(samples, model.mean, model.components)
    theirs = reconstruction_error(samples, mean, comps)
    assert ours == pytest.approx(theirs, rel=1e-6)


def test_anisotropic_eigenvalues_match_oracle(rng):
    scales = np.asarray([5.0, 3.0, 1.0, 0.5, 0.1, 0.05])
    samples = rng.standard_normal((3_000, 6)) * scales
    model = fit(samples, fixed_dims=3)
    vals, _, _ = power_eigh(samples, 3)
    assert np.allclose(model.eigenvalues, vals, rtol=1e-6)


def test_duplication_invariance(rng):
    samples = rng.standard_normal((50, 9))
    model_a = fit(samples, energy=0.9)
    model_b = fit(np.concatenate([samples, samples]), energy=0.9)
    assert np.allclose(model_a.mean, model_b.mean)
    assert np.allclose(model_a.eigenvalues, model_b.eigenvalues)
    assert np.allclose(model_a.components, model_b.components)


def test_project_mean_is_zero(rng):
    samples = rng.standard_normal((100, 7))
    model = fit(samples, fixed_dims=4)
    assert np.allclose(project(model, model.mean), 0.0, atol=1e-12)


def test_project_unit_eigenvector(rng):
    samples = rng.standard_normal((300, 8)) * np.asarray([9, 7, 5, 3, 1, 1, 1, 1.0])
    model = fit(samples, fixed_dims=3)
    for k in range(3):
        z = project(model, model.mean + model.components[k])
        expected = np.zeros(3)
        expected[k] = 1.0
        assert np.allclose(z, expected, atol=1e-9)


def test_reconstruction_beats_random_bases(rng):
    samples = rng.standard_normal((500, 10)) * np.linspace(3.0, 0.2, 10)
    model = fit(samples, fixed_dims=4)
    best = reconstruction_error(samples, model.mean, model.components)
    for _ in range(100):
        raw = rng.standard_normal((10, 4))
        basis, _ = np.linalg.qr(raw)
        err = reconstruction_error(samples, samples.mean(axis=0), basis.T)
        assert best <= err + 1e-9


def test_projection_energy_fraction(rng):
    samples = rng.standard_normal((2_000, 20)) * np.linspace(4.0, 0.1, 20)
    model = fit(samples, energy=0.9)
    centered = samples - model.mean
    kept = np.mean(np.sum(project(model, samples) ** 2, axis=1))
    total = np.mean(np.sum(centered**2, axis=1))
    assert kept / total >= 0.9 - 1e-9
    assert model.energy_kept >= 0.9


def test_components_orthonormal_and_sign_fixed(rng):
    samples = rng.standard_normal((400, 15))
    model = fit(samples, energy=0.99)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(model.n_components), atol=1e-9)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0
    again = fit(samples, energy=0.99)
    assert np.array_equal(model.components, again.components)


def test_eigenvalues_non_increasing(rng):
    samples = rng.standard_normal((300, 12)) * np.linspace(2.0, 0.3, 12)
    model = fit(samples, energy=1.0)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0)


def test_fixed_dims_exact_count(rng):
    samples = rng.standard_normal((100, 9))
    assert fit(samples, fixed_dims=6).n_components == 6


def test_fit_errors(rng):
    with pytest.raises(DataError, match="at least 2"):
        fit(np.zeros((1, 5)))
    with pytest.raises(DataError, match="zero total variance"):
        fit(np.ones((10, 5)))
    with pytest.raises(DataError, match="fixed_dims"):
        fit(rng.standard_normal((10, 5)), fixed_dims=6)
    with pytest.raises(DataError, match="energy"):
        fit(rng.standard_normal((10, 5)), energy=0.0)


def test_project_dimension_mismatch(rng):
    model = fit(rng.standard_normal((20, 5)), fixed_dims=2)
    with pytest.raises(DataError, match="dimension"):
        project(model, np.zeros(4))


def test_reconstruct_round_trip_on_projected(rng):
    samples = rng.standard_normal((50, 6))
    model = fit(samples, energy=1.0)
    # all six orthonormal components kept: projecting loses nothing
    assert reconstruction_error(samples, model.mean, model.components) < 1e-18
