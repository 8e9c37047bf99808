import logging

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from elastishape import baseline
from elastishape.baseline import (
    ICP_MAX_ITERS,
    ICP_TOL,
    IcpResult,
    _as_cloud,
    _best_rigid,
    _XSweep,
    class_distances,
    classical_mds,
    icp_register,
    knn_accuracy,
)
from elastishape.diffeos import pullback, random_diffeo
from elastishape.errors import InputError
from elastishape.grids import make_grid
from elastishape.synthetic import gen_surface, shape_line_cohort

from conftest import rotation_matrix


def _cloud(seed, n=150):
    return np.random.default_rng(seed).standard_normal((n, 3))


def test_icp_identity_stops_immediately():
    cloud = _cloud(0)
    res = icp_register(cloud, cloud)
    assert res.rms_trace[0] < 1e-12
    assert len(res.rms_trace) <= 3
    assert_allclose(res.aligned, cloud, atol=1e-12)
    assert_allclose(res.rotation, np.eye(3), atol=1e-12)
    assert_allclose(res.translation, 0.0, atol=1e-12)


def test_icp_recovers_a_small_rigid_motion():
    cloud = _cloud(1)
    r = rotation_matrix("z", 0.2)
    t = np.array([0.1, -0.05, 0.2])
    moving = cloud @ r.T + t
    res = icp_register(cloud, moving)
    assert res.rms_trace[-1] < 1e-10
    # recovered transform undoes the planted one
    assert_allclose(res.rotation, r.T, atol=1e-10)
    assert_allclose(res.rotation @ t + res.translation, 0.0, atol=1e-10)
    assert_allclose(res.aligned, cloud, atol=1e-8)


def test_icp_rms_never_increases():
    for seed in range(5):
        ss = np.random.SeedSequence([55, seed])
        rng = np.random.default_rng(ss)
        cloud = rng.standard_normal((150, 3))
        r = rotation_matrix("z", 0.7)
        moving = cloud @ r.T + 0.05 * rng.standard_normal((150, 3))
        res = icp_register(cloud, moving)
        trace = np.array(res.rms_trace)
        assert (np.diff(trace) <= 1e-12).all()


def test_icp_logs_a_stop_at_the_iteration_limit(monkeypatch, caplog):
    cloud = _cloud(3)
    noise = 0.05 * np.random.default_rng(4).standard_normal(cloud.shape)
    moving = cloud @ rotation_matrix("z", 0.7).T + noise
    monkeypatch.setattr(baseline, "ICP_MAX_ITERS", 3)
    with caplog.at_level(logging.INFO, logger="elastishape.baseline"):
        trace = icp_register(cloud, moving).rms_trace
        assert len(trace) == 3 and abs(trace[1] - trace[2]) >= ICP_TOL
        assert [r.getMessage() for r in caplog.records] == [
            "ICP stopped at the limit of 3 iterations, the RMS still moving "
            f"{abs(trace[1] - trace[2]):.3g} per iteration"]
        caplog.clear()
        assert len(icp_register(cloud, cloud).rms_trace) < 3
        assert not caplog.records


def test_icp_validation():
    cloud = _cloud(2)
    for fixed, moving, name in [(np.zeros((0, 3)), cloud, "fixed"),
                                (cloud, np.zeros((0, 3)), "moving")]:
        with pytest.raises(ValueError, match=f"{name} point cloud has no points"):
            icp_register(fixed, moving)
    with pytest.raises(ValueError, match=r"moving point cloud must have shape \(m, 3\)"):
        icp_register(cloud, cloud[:, :2])
    bad = cloud.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="fixed point cloud contains non-finite values"):
        icp_register(bad, cloud)


@given(
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
    one_x=st.booleans(),
    bounded=st.booleans(),
)
@example(n=1, m=200, seed=1, duplicates=False, one_x=False, bounded=False)
@example(n=1, m=1, seed=2, duplicates=False, one_x=False, bounded=True)
@example(n=200, m=1, seed=3, duplicates=True, one_x=False, bounded=False)
@example(n=250, m=150, seed=4, duplicates=True, one_x=True, bounded=False)
@example(n=150, m=250, seed=5, duplicates=False, one_x=True, bounded=True)
def test_sweep_finds_the_nearest_point(n, m, seed, duplicates, one_x, bounded):
    rng = np.random.default_rng(seed)
    fixed = rng.standard_normal((n, 3))
    if duplicates:  # draws with repeats: ties at every distance
        fixed = fixed[rng.integers(0, n, n)]
    if one_x:  # every slab is the whole cloud
        fixed[:, 0] = 0.25
    queries = rng.standard_normal((m, 3))
    queries[: m // 4] = fixed[rng.integers(0, n, m // 4)]  # distance zero
    sweep = _XSweep(fixed)
    bound_sq = None
    if bounded:  # the distance to any point of the cloud bounds the search
        diff = queries - sweep.points[rng.integers(0, n, m)]
        bound_sq = (diff * diff).sum(axis=1)
    chosen = sweep.points[sweep.nearest(queries, bound_sq)]
    got = np.sqrt(((queries - chosen) ** 2).sum(axis=1))
    want = np.sqrt(((queries[:, None, :] - fixed[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_sweep_keeps_the_bounding_point_in_its_slab():
    # 1.5 - 1.5 rounds to 0 > -1e-20, so an unpadded slab would be empty
    sweep = _XSweep(np.array([[-1e-20, 0.0, 0.0]]))
    assert sweep.nearest(np.array([[1.5, 0.0, 0.0]])).tolist() == [0]


def _kd_tree_icp_register(fixed, moving) -> IcpResult:
    """`icp_register` as it was with scipy's k-d tree."""
    fixed = _as_cloud(fixed, "fixed")
    moving = _as_cloud(moving, "moving")
    mu_f = fixed.mean(axis=0)
    mu_m = moving.mean(axis=0)
    tree = cKDTree(fixed - mu_f)

    current = moving - mu_m
    rotation = np.eye(3)
    rms_trace = []
    prev_rms = None
    for _ in range(ICP_MAX_ITERS):
        _, idx = tree.query(current)
        targets = (fixed - mu_f)[idx]
        rot, trans = _best_rigid(current, targets)
        current = current @ rot.T + trans
        rotation = rot @ rotation
        resid = current - targets
        rms = float(np.sqrt((resid * resid).sum(axis=1).mean()))
        rms_trace.append(rms)
        if prev_rms is not None and abs(prev_rms - rms) < ICP_TOL:
            break
        prev_rms = rms

    aligned = current + mu_f
    translation = aligned.mean(axis=0) - rotation @ moving.mean(axis=0)
    return IcpResult(
        aligned=aligned, rotation=rotation, translation=translation, rms_trace=rms_trace
    )


@pytest.mark.parametrize("grid_name", ["grid32", "grid64"])
def test_icp_matches_the_kd_tree_reference(grid_name, request):
    # clouds as `compare` builds them: a seeded cohort, each subject
    # reparameterized by a seeded random diffeomorphism
    grid = request.getfixturevalue(grid_name)
    _, cohort = shape_line_cohort(grid, 7, 4, 0.5, 0.3)
    seeds = np.random.SeedSequence([7, 2]).generate_state(4)
    clouds = [pullback(f, random_diffeo(grid, int(s), 0.5)).points.reshape(-1, 3)
              for f, s in zip(cohort.surfaces, seeds)]
    for moving in clouds[1:]:
        got = icp_register(clouds[0], moving)
        want = _kd_tree_icp_register(clouds[0], moving)
        assert len(want.rms_trace) > 2
        assert got.rms_trace == want.rms_trace
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.aligned, want.aligned)
        assert np.array_equal(got.translation, want.translation)


def _shifted_spheres(offsets, n=8):
    """Unit spheres on an n x n grid, each moved by (offset, 0, 0)."""
    sphere = gen_surface("sphere", make_grid(n, n))
    return [sphere.with_points(sphere.points + [x, 0.0, 0.0]) for x in offsets]


def test_class_distances_hand_case():
    d_inter, d_intra = class_distances(_shifted_spheres([0.0, 1.0, 2.5]), [0, 0, 1])
    # every node of a pair is |offset| apart, over 8 * 8 nodes: the inter
    # pairs are 2.5 and 1.5 apart, the one intra pair 1.0
    assert_allclose(d_inter, 64 * 2.0)
    assert_allclose(d_intra, 64 * 1.0)


def test_class_distances_validation():
    surfaces = _shifted_spheres([0.0, 1.0])
    with pytest.raises(InputError, match="mixed-label"):
        class_distances(surfaces, [0, 0])
    with pytest.raises(InputError, match="same-label"):
        class_distances(surfaces, [0, 1])
    with pytest.raises(ValueError, match="grid"):
        class_distances([*surfaces, *_shifted_spheres([2.0], n=6)], [0, 1, 1])


def test_mds_recovers_a_planar_rectangle():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    dist = cdist(pts, pts)
    res = classical_mds(dist, 2)
    assert not res.clipped
    assert_allclose(res.eigenvalues, [4.0, 1.0], atol=1e-10)
    back = cdist(res.coords, res.coords)
    assert_allclose(back, dist, atol=1e-10)


def test_mds_zero_matrix_is_clipped_to_origin():
    res = classical_mds(np.zeros((5, 5)), 2)
    assert res.clipped
    assert_allclose(res.coords, 0.0)


def test_mds_axis_signs_do_not_depend_on_the_eigensolver(monkeypatch):
    x = np.random.default_rng(5).standard_normal((7, 3))
    dist = cdist(x, x)
    res = classical_mds(dist, 3)
    peaks = res.coords[np.abs(res.coords).argmax(axis=0), np.arange(3)]
    assert (peaks > 0.0).all()

    eigh = np.linalg.eigh

    def flipped_eigh(b):
        vals, vecs = eigh(b)
        return vals, -vecs

    monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)
    flipped = classical_mds(dist, 3)
    assert np.array_equal(flipped.coords, res.coords)
    assert np.array_equal(flipped.eigenvalues, res.eigenvalues)


def test_mds_pads_to_k_columns_beyond_n():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    dist = cdist(pts, pts)
    res = classical_mds(dist, 5)
    assert res.coords.shape == (3, 5)
    assert res.eigenvalues.shape == (5,)
    assert res.clipped
    assert np.array_equal(res.coords[:, 3:], np.zeros((3, 2)))
    assert np.array_equal(res.eigenvalues[3:], np.zeros(2))
    assert_allclose(cdist(res.coords, res.coords), dist, atol=1e-10)


def test_mds_validation():
    with pytest.raises(ValueError, match="square"):
        classical_mds(np.zeros((3, 4)), 1)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        classical_mds(bad, 1)
    with pytest.raises(ValueError, match="k"):
        classical_mds(np.zeros((3, 3)), 0)


def test_two_clusters_classify_perfectly():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((20, 5))
    b = rng.standard_normal((20, 5)) + 3.0
    x = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    dist = cdist(x, x)
    assert knn_accuracy(dist, labels) == 1.0
    res = classical_mds(dist, 2)
    emb = cdist(res.coords, res.coords)
    assert knn_accuracy(emb, labels) == 1.0


def test_knn_hand_matrix():
    # nearest neighbors: 1<-0, 0<-1, 3<-2, 2<-3; labels pair up
    dist = np.array(
        [
            [0.0, 1.0, 5.0, 6.0],
            [1.0, 0.0, 6.0, 7.0],
            [5.0, 6.0, 0.0, 2.0],
            [6.0, 7.0, 2.0, 0.0],
        ]
    )
    assert knn_accuracy(dist, [0, 0, 1, 1]) == 1.0
    assert knn_accuracy(dist, [0, 1, 0, 1]) == 0.0
