import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from elastishape.baseline import (
    class_distances,
    classical_mds,
    icp_register,
    knn_accuracy,
)
from elastishape.errors import InputError
from elastishape.grids import make_grid
from elastishape.synthetic import gen_surface

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
