import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.diffeos import pullback, random_diffeo
from elastishape.grids import Surface, make_grid
from elastishape.registration import RegistrationOpts, register, rotate_surface
from elastishape.shape_stats import (
    cumulative_variance,
    diff_field,
    karcher_mean,
    pc_path,
    pc_scores,
    reconstruct,
    register_cohort,
    shape_pca,
)
from elastishape.synthetic import gen_surface

from conftest import rotation_matrix

OPTS = RegistrationOpts(max_iters=30, rounds=1, tol_rel=1e-4)


def _rank3_model(grid):
    rng = np.random.default_rng(6)
    mean = gen_surface("sphere", grid)
    dim = mean.points.size
    basis = np.linalg.qr(rng.standard_normal((dim, 3)))[0].T
    scores = rng.standard_normal((8, 3)) * np.array([0.3, 0.2, 0.1])
    cohort = [
        Surface(
            grid=grid,
            points=(mean.flat() + z @ basis).reshape(grid.n_v, grid.n_u, 3),
        )
        for z in scores
    ]
    return mean, cohort, scores


def test_register_cohort_threads_match_serial(grid32):
    """Six planted subjects at 32x32, with searches long enough (6
    iterations, 2 rounds) that the two workers' searches overlap, so
    work shared between concurrent searches would show as a difference
    from serial."""
    template = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=1)
    cohort = [
        pullback(rotate_surface(template, rotation_matrix("z", 0.1 * s)),
                 random_diffeo(grid32, s, 0.4))
        for s in range(6)
    ]
    opts = RegistrationOpts(max_iters=6, rounds=2, tol_rel=0.0)
    serial = register_cohort(template, cohort, opts)
    threaded = register_cohort(template, cohort, opts, threads=2)
    for a, b in zip(serial, threaded):
        assert a.distance == b.distance
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.reparam.image, b.reparam.image)
        assert np.array_equal(a.aligned.points, b.aligned.points)


def test_karcher_mean_of_identical_copies_is_a_fixed_point(grid16):
    f = gen_surface("bumpy-sphere", grid16, amplitude=0.3, degree=3, seed=21)
    res = karcher_mean([f] * 5, OPTS)
    assert np.abs(res.mean.points - f.points).max() < 1e-12
    assert res.variance_trace[-1] < 1e-25
    assert len(res.registered) == 5


def test_karcher_mean_of_registered_pair_is_the_midpoint(grid16):
    e1 = Surface(grid=grid16, points=grid16.nodes() * (1.0, 0.7, 0.5))
    e2 = Surface(grid=grid16, points=grid16.nodes() * (1.0, 0.7, 0.45))
    e2s = register(e1, e2, OPTS).aligned
    res = karcher_mean([e1, e2s], OPTS)
    mid = 0.5 * (e1.points + e2s.points)
    assert np.abs(res.mean.points - mid).max() < 1e-6


def test_karcher_variance_trace_settles(grid16):
    rng_seeds = (31, 32, 33, 34)
    cohort = [
        gen_surface("bumpy-sphere", grid16, amplitude=0.15, degree=2, seed=s)
        for s in rng_seeds
    ]
    res = karcher_mean(cohort, OPTS)
    trace = np.array(res.variance_trace)
    assert len(trace) == 6
    assert trace[-1] <= trace[0]


def test_karcher_mean_needs_a_surface():
    with pytest.raises(ValueError, match="at least one"):
        karcher_mean([], OPTS)


def test_pca_recovers_planted_rank(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    s = model.singulars
    assert s[0] >= s[1] >= s[2]
    assert s[3:].max() < 1e-10 * s[0]
    assert model.n_train == 8
    assert model.directions.shape == (8, mean.points.size)


def test_scores_reconstruct_training_members(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    for f in cohort[:3]:
        z = pc_scores(f, model, 3)
        back = reconstruct(z, model)
        assert np.abs(back.points - f.points).max() < 1e-10


def test_score_depth_validation(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    assert pc_scores(cohort[0], model, 0).shape == (0,)
    with pytest.raises(ValueError, match="out of range"):
        pc_scores(cohort[0], model, 9)
    with pytest.raises(ValueError, match="longer"):
        reconstruct(np.zeros(9), model)


def test_reconstruction_error_is_non_increasing(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    f = cohort[5]
    errs = [
        np.linalg.norm(reconstruct(pc_scores(f, model, d), model).flat() - f.flat())
        for d in range(model.n_train + 1)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[3] < 1e-10


def test_cumulative_variance_conventions(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    cv = cumulative_variance(model)
    assert (np.diff(cv) >= -1e-15).all()
    assert_allclose(cv[-1], 1.0, rtol=1e-12)
    assert_allclose(cv, np.cumsum(model.singulars) / model.singulars.sum())


def test_cumulative_variance_of_degenerate_cohort(grid16):
    f = gen_surface("sphere", grid16)
    model = shape_pca([f, f, f], f)
    assert model.singulars.max() < 1e-12
    assert model.n_train == 3
    assert_allclose(cumulative_variance(model), 1.0)


def test_pc_path_and_diff_field(grid16):
    mean, cohort, _ = _rank3_model(grid16)
    model = shape_pca(cohort, mean)
    path = pc_path(model, 0, [-1.0, 0.0, 1.0])
    assert len(path) == 3
    assert_allclose(path[1].points, mean.points)
    step = (model.singulars[0] * model.directions[0]).reshape(mean.points.shape)
    assert_allclose(path[2].points, mean.points + step, atol=1e-12)
    field = diff_field(path[2], path[1])
    assert field.shape == (16, 16)
    assert_allclose(field, np.linalg.norm(step, axis=-1), atol=1e-12)
    with pytest.raises(ValueError, match="out of range"):
        pc_path(model, 8, [0.0])
