import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.errors import ConfigError
from elastishape.grids import MIN_GRID_DIM, make_grid, surface_area
from elastishape.regression import _RANGES, CovariateTable
from elastishape.synthetic import (
    BUMP_DEGREE,
    CohortSpec,
    gen_regression_cohort,
    gen_surface,
    shape_line_cohort,
)


def test_sphere_and_unknown_families(grid16):
    s = gen_surface("sphere", grid16)
    assert_allclose(np.linalg.norm(s.points, axis=-1), 1.0, atol=1e-12)
    for family in ("torus", "ellipsoid"):
        with pytest.raises(ConfigError, match="family"):
            gen_surface(family, grid16)


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


def test_bump_degree_below_one_is_rejected(grid16):
    with pytest.raises(ConfigError, match="degree"):
        gen_surface("bumpy-sphere", grid16, amplitude=0.1, degree=0)


def test_shape_line_bumps_do_not_alias_on_the_smallest_grid():
    assert 1 <= BUMP_DEGREE < MIN_GRID_DIM / 2


def test_pca_cohort_layout(grid16):
    mean, cohort = shape_line_cohort(grid16, 3, 5, 0.8, 0.2)
    assert len(cohort.surfaces) == 5
    x = cohort.coefficients
    assert np.all(x[:3] > 0) and np.all(x[3:] < 0)
    assert np.all((np.abs(x) >= 0.4) & (np.abs(x) <= 0.8))
    assert_allclose(cohort.labels, [1, 1, 1, 0, 0])
    # every subject sits at mean + x_i v on one unit radial direction v
    v = (cohort.surfaces[0].flat() - mean.flat()) / x[0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    tangential = np.cross(v.reshape(mean.points.shape), grid16.nodes())
    assert_allclose(tangential, 0.0, atol=1e-12)
    for xi, f in zip(x, cohort.surfaces):
        assert_allclose(f.flat(), mean.flat() + xi * v, atol=1e-12)


def test_shape_line_cohort_is_seeded(grid16):
    mean, cohort = shape_line_cohort(grid16, 3, 4, 1.2, 0.2)
    again_mean, again = shape_line_cohort(grid16, 3, 4, 1.2, 0.2)
    assert np.array_equal(mean.points, again_mean.points)
    assert np.array_equal(cohort.coefficients, again.coefficients)
    assert all(np.array_equal(a.points, b.points)
               for a, b in zip(cohort.surfaces, again.surfaces))
    other_mean, other = shape_line_cohort(grid16, 4, 4, 1.2, 0.2)
    assert not np.array_equal(mean.points, other_mean.points)
    assert not np.array_equal(cohort.coefficients, other.coefficients)


def test_shape_line_cohort_skips_mean_seeds_that_make_the_radius_nonpositive():
    grid = make_grid(32, 32)
    for seed in (6, 205):
        first = int(np.random.SeedSequence([seed, 5]).generate_state(1)[0])
        with pytest.raises(ConfigError, match="nonpositive"):
            gen_surface("bumpy-sphere", grid, amplitude=0.3, degree=BUMP_DEGREE, seed=first)
        mean, cohort = shape_line_cohort(grid, seed, 4, 1.2, 0.3)
        assert len(cohort.surfaces) == 4
    # A seed whose first state works keeps that mean.
    mean, _ = shape_line_cohort(grid, 0, 4, 1.2, 0.3)
    first = int(np.random.SeedSequence([0, 5]).generate_state(1)[0])
    expected = gen_surface("bumpy-sphere", grid, amplitude=0.3, degree=BUMP_DEGREE,
                           seed=first)
    assert np.array_equal(mean.points, expected.points)
    with pytest.raises(ConfigError, match="nonpositive"):
        shape_line_cohort(grid, 0, 4, 1.2, 50.0)


def test_cohort_spec_validation():
    with pytest.raises(ConfigError, match="n_subjects"):
        CohortSpec(n_subjects=0)
    with pytest.raises(ConfigError, match="lengths"):
        CohortSpec(true_terms=("age",), true_coefficients=(0.1, 0.2))


@pytest.mark.parametrize("term", ["ps(shape,4)", "bdi*ps(shape,4)", "ps(shape,0)",
                                  "ps(other,1)", "icv*ps(shape,1)"])
def test_true_terms_the_cohort_cannot_build_are_rejected(term):
    # three shape directions give three score columns, of structure 'shape' only
    spec = CohortSpec(n_subjects=5, n_u=8, n_v=8, n_directions=3, true_terms=(term,),
                      true_coefficients=(1.0,))
    with pytest.raises(ConfigError, match=r"true_terms invalid: .*" + re.escape(term)):
        gen_regression_cohort(spec)


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
    sign = gen_regression_cohort(CohortSpec(n_subjects=10, n_u=16, n_v=16, seed=2))
    z1 = sign.truth.scores["shape"][:, 0]
    assert_allclose(sign.covariates.label, (z1 > 0).astype(float))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Digests of seeded generator outputs: the covariate table as written and
# the score array of one regression cohort per response (the same subjects,
# so the same scores), and the mean, surfaces and coefficients of one
# shape-line cohort.  The benchmark's regression inputs come from this code,
# so a drifted bit would show in its adjusted R^2.
_COHORT_DIGESTS = {
    "pss": "71170698645a9faed7617a56af8191244318f9262ed047a98171259e61b4186f",
    "ctqtot": "b9f5790829b7dcd418976b32475f97dea39c9c1e69b0fd4d2b04fbc95642bcf7",
}
_SCORES_DIGEST = "2ecc7cfb9c428cc7e2fc0668f35598e1b269d4db734ba6cd920620d1a3c541f8"
_LINE_DIGESTS = (
    "b268b56f2011fdafe2e517b6f4b501631089e866300e58dedffddce597b716e3",
    "a3a28db9ac88d471b2f2a960f85252a0ff35a59f9bd659cf4d743353de248a75",
    "d2992a7b062486776ecb30c693128e432beb90f01b73081e4e3b23dcc905de1d",
)


def test_seeded_generator_outputs_keep_their_bytes(tmp_path):
    spec = CohortSpec(n_subjects=12, n_u=8, n_v=8, n_directions=4, noise_sigma=0.5, seed=3)
    ctq = replace(spec, response="ctqtot", true_terms=("bdi", "ps(shape,2)"),
                  true_coefficients=(0.5, 40.0), intercept=65.0, noise_sigma=3.0)
    for s in (spec, ctq):
        cohort = gen_regression_cohort(s)
        cohort.covariates.to_csv(tmp_path / f"{s.response}.csv")
        assert _sha256((tmp_path / f"{s.response}.csv").read_bytes()) == \
            _COHORT_DIGESTS[s.response]
        assert _sha256(cohort.truth.scores["shape"].tobytes()) == _SCORES_DIGEST
    mean, cohort = shape_line_cohort(make_grid(12, 10), 6, 5, 1.2, 0.3)
    points = np.stack([f.points for f in cohort.surfaces])
    assert tuple(_sha256(a.tobytes()) for a in (mean.points, points,
                                                cohort.coefficients)) == _LINE_DIGESTS
