from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.errors import ConfigError
from elastishape.grids import surface_area
from elastishape.regression import _RANGES, CovariateTable
from elastishape.synthetic import (
    CohortSpec,
    gen_pca_cohort,
    gen_regression_cohort,
    gen_surface,
)


def test_sphere_and_ellipsoid(grid16):
    s = gen_surface("sphere", grid16)
    assert_allclose(np.linalg.norm(s.points, axis=-1), 1.0, atol=1e-12)
    e = gen_surface("ellipsoid", grid16, axes=(2.0, 1.0, 0.5))
    assert e.points[..., 0].max() == pytest.approx(2.0, abs=0.05)
    w = e.points / np.array([2.0, 1.0, 0.5])
    assert_allclose(np.linalg.norm(w, axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ConfigError, match="axes"):
        gen_surface("ellipsoid", grid16, axes=(1.0, -1.0, 1.0))
    with pytest.raises(ConfigError, match="family"):
        gen_surface("torus", grid16)


def test_bumpy_sphere_is_seeded_and_bounded(grid32):
    a = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=4)
    b = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=4)
    c = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=5)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    radius = np.linalg.norm(a.points, axis=-1)
    assert radius.min() > 0
    assert surface_area(a) > 0
    # zero amplitude degenerates to the unit sphere
    flat = gen_surface("bumpy-sphere", grid32, amplitude=0.0, degree=3, seed=4)
    assert_allclose(np.linalg.norm(flat.points, axis=-1), 1.0, atol=1e-12)


def test_bumpy_sphere_rejects_nonpositive_radius(grid32):
    with pytest.raises(ConfigError, match="nonpositive"):
        gen_surface("bumpy-sphere", grid32, amplitude=0.3, degree=3, seed=3)
    with pytest.raises(ConfigError, match="nonnegative"):
        gen_surface("bumpy-sphere", grid32, amplitude=-0.1)


def test_pca_cohort_layout(grid16):
    mean = gen_surface("sphere", grid16)
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(mean.flat().shape[0])
    direction /= np.linalg.norm(direction)
    x = np.array([0.5, 0.1, 0.3, -0.2, -0.4])
    cohort = gen_pca_cohort(mean, direction, x)
    assert len(cohort.surfaces) == 5
    assert np.array_equal(cohort.coefficients, x)
    assert_allclose(cohort.labels, [1, 1, 1, 0, 0])
    for xi, f in zip(x, cohort.surfaces):
        assert_allclose(f.flat(), mean.flat() + xi * direction, atol=1e-12)


def test_pca_cohort_explicit_coefficients(grid16):
    mean = gen_surface("sphere", grid16)
    direction = np.zeros(mean.flat().shape[0])
    direction[0] = 1.0
    coeffs = np.array([0.3, -0.2, 0.1])
    cohort = gen_pca_cohort(mean, direction, coeffs)
    assert np.array_equal(cohort.coefficients, coeffs)
    with pytest.raises(ValueError, match="unit"):
        gen_pca_cohort(mean, 2.0 * direction, coeffs)
    with pytest.raises(ValueError, match="coefficients"):
        gen_pca_cohort(mean, direction, coeffs[None])


def test_cohort_spec_validation():
    with pytest.raises(ConfigError, match="n_subjects"):
        CohortSpec(n_subjects=0)
    with pytest.raises(ConfigError, match="family"):
        CohortSpec(family="cube")
    with pytest.raises(ConfigError, match="lengths"):
        CohortSpec(true_terms=("age",), true_coefficients=(0.1, 0.2))
    with pytest.raises(ConfigError, match="score_scale"):
        CohortSpec(score_scale=0.0)


def test_regression_cohort_truth_is_consistent():
    spec = CohortSpec(n_subjects=20, n_u=16, n_v=16, noise_sigma=0.0, seed=8)
    cohort = gen_regression_cohort(spec)
    assert len(cohort.surfaces) == 20
    cov = cohort.covariates
    assert cov.n_subjects == 20
    truth = cohort.truth
    assert truth.terms == ["intercept", "age", "ps(shape,1)"]
    z = truth.scores["shape"]
    assert z.shape == (20, 3)
    # with zero noise the response is exactly the declared linear rule
    expected = (
        truth.coefficients[0]
        + truth.coefficients[1] * cov.age
        + truth.coefficients[2] * z[:, 0]
    )
    assert_allclose(cov.pss, expected, atol=1e-10)
    # surfaces really sit at mean + directions^T z
    mean_flat = truth.shape_model.mean.flat()
    for i in (0, 7, 19):
        recon = mean_flat + truth.shape_model.directions.T @ z[i]
        assert_allclose(cohort.surfaces[i].flat(), recon, atol=1e-10)


def test_regression_cohort_is_deterministic():
    spec = CohortSpec(n_subjects=6, n_u=16, n_v=16, seed=42)
    a = gen_regression_cohort(spec)
    b = gen_regression_cohort(spec)
    assert np.array_equal(a.covariates.pss, b.covariates.pss)
    assert np.array_equal(a.surfaces[3].points, b.surfaces[3].points)


@pytest.mark.parametrize("response, intercept", [("pss", 20.0), ("ctqtot", 75.0)])
def test_regression_response_is_clipped_into_its_declared_range(tmp_path, response, intercept):
    spec = CohortSpec(n_subjects=200, n_u=8, n_v=8, response=response,
                      intercept=intercept, noise_sigma=0.0, seed=5)
    lo, hi = _RANGES[response]
    clean = getattr(gen_regression_cohort(spec).covariates, response)
    noisy = gen_regression_cohort(replace(spec, noise_sigma=200.0)).covariates
    y = getattr(noisy, response)
    # A bounded instrument: the noise saturates at both ends of the scale...
    assert y.min() == lo and y.max() == hi
    # ...and rows inside the range follow the rule plus the same noise draws.
    inside = (y > lo) & (y < hi)
    assert inside.any()
    unit = getattr(gen_regression_cohort(replace(spec, noise_sigma=1.0)).covariates, response)
    assert_allclose(y[inside], (clean + 200.0 * (unit - clean))[inside], rtol=1e-9)
    # A strict read of the written table accepts every row.
    noisy.to_csv(tmp_path / "cov.csv")
    back = CovariateTable.from_csv(tmp_path / "cov.csv")
    assert np.array_equal(getattr(back, response), y)


def test_label_rules():
    sign = gen_regression_cohort(
        CohortSpec(n_subjects=10, n_u=16, n_v=16, seed=2, label_rule="score-sign")
    )
    z1 = sign.truth.scores["shape"][:, 0]
    assert_allclose(sign.covariates.label, (z1 > 0).astype(float))
    split = gen_regression_cohort(
        CohortSpec(n_subjects=10, n_u=16, n_v=16, seed=2, label_rule="half-split")
    )
    assert_allclose(split.covariates.label, [0] * 5 + [1] * 5)
