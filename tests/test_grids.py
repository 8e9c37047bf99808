import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.errors import ZeroAreaError
from elastishape.grids import (
    Surface,
    angles_to_sphere,
    bilinear_sample,
    make_grid,
    normal_field,
    normalize,
    sphere_to_angles,
    surface_area,
)
from elastishape.synthetic import gen_surface


def test_grid_node_placement():
    g = make_grid(12, 9)
    assert_allclose(g.theta, np.arange(12) * 2.0 * np.pi / 12)
    assert_allclose(g.phi, (np.arange(9) + 0.5) * np.pi / 9)
    assert g.d_theta == pytest.approx(2.0 * np.pi / 12)
    assert g.d_phi == pytest.approx(np.pi / 9)


def test_grid_minimum_dimensions():
    with pytest.raises(ValueError):
        make_grid(7, 16)
    with pytest.raises(ValueError):
        make_grid(16, 7)


def test_quadrature_weights_sum_to_sphere_area(grid64):
    weights = np.repeat(grid64.sin_phi * grid64.cell_measure, grid64.n_u)
    total = float(weights.sum())
    assert abs(total - 4.0 * np.pi) / (4.0 * np.pi) < 1e-3


def test_nodes_are_unit_vectors(grid16):
    nodes = grid16.nodes()
    assert nodes.shape == (16, 16, 3)
    assert_allclose(np.linalg.norm(nodes, axis=-1), 1.0, atol=1e-12)


def test_angle_round_trip(grid32):
    theta, phi = sphere_to_angles(grid32.nodes())
    assert_allclose(theta, np.broadcast_to(grid32.theta, (32, 32)), atol=1e-12)
    assert_allclose(phi, np.broadcast_to(grid32.phi[:, None], (32, 32)), atol=1e-12)
    back = angles_to_sphere(theta, phi)
    assert_allclose(back, grid32.nodes(), atol=1e-12)


def test_normal_field_on_sphere_is_radial(grid64):
    f = gen_surface("sphere", grid64)
    n = normal_field(f)
    mags = np.linalg.norm(n, axis=-1)
    # |f_u x f_v| = sin(phi) on the unit sphere
    expected = np.broadcast_to(np.sin(grid64.phi)[:, None], mags.shape)
    assert_allclose(mags, expected, rtol=3e-3)
    radial = (n * f.points).sum(axis=-1)
    # colinear with the position vector, with one consistent sign everywhere
    assert_allclose(np.abs(radial), mags, rtol=1e-8)
    assert (np.sign(radial) == np.sign(radial.flat[0])).all()


def test_normal_field_of_constant_surface_vanishes(grid16):
    f = Surface(grid=grid16, points=np.ones((16, 16, 3)))
    assert_allclose(normal_field(f), 0.0, atol=1e-14)


def test_surface_area_of_unit_sphere(grid64):
    area = surface_area(gen_surface("sphere", grid64))
    assert abs(area - 4.0 * np.pi) / (4.0 * np.pi) < 1e-2


def test_surface_area_of_constant_surface(grid16):
    f = Surface(grid=grid16, points=np.full((16, 16, 3), 2.0))
    assert surface_area(f) == 0.0


def test_normalize_is_idempotent(grid32):
    f = Surface(grid=grid32, points=grid32.nodes() * (1.0, 0.7, 0.5))
    shifted = Surface(grid=grid32, points=f.points + np.array([0.3, -0.1, 0.8]))
    once = normalize(shifted)
    twice = normalize(once)
    assert_allclose(twice.points, once.points, atol=1e-12)


def test_normalize_unit_scale_gives_unit_area(grid64):
    f = Surface(grid=grid64, points=3.0 * gen_surface("sphere", grid64).points)
    g = normalize(f, unit_scale=True)
    assert surface_area(g) == pytest.approx(1.0, rel=1e-10)


def test_normalize_unit_scale_rejects_degenerate(grid16):
    f = Surface(grid=grid16, points=np.zeros((16, 16, 3)))
    with pytest.raises(ZeroAreaError):
        normalize(f, unit_scale=True)


def test_surface_flat_round_trip(grid16):
    f = gen_surface("sphere", grid16)
    flat = f.flat()
    assert flat.shape == (16 * 16 * 3,)
    g = f.with_points(flat.reshape(16, 16, 3))
    assert_allclose(g.points, f.points)


def test_azimuth_reaches_two_pi_and_samples_as_zero():
    """A point just below the x axis rounds to an azimuth of exactly 2 pi.
    The sampler wraps it to column 0 bit for bit on these grids, where
    2 pi / d_theta rounds to n_u (it does not for every n_u, e.g. 25)."""
    theta, phi = sphere_to_angles(np.array([[1.0, -1e-30, 0.0]]))
    assert theta[0] == 2.0 * np.pi
    assert phi[0] == 0.5 * np.pi
    for n_u, n_v in ((8, 8), (12, 9), (9, 13), (16, 16), (32, 32), (64, 64)):
        grid = make_grid(n_u, n_v)
        values = np.random.default_rng(n_u).standard_normal((n_v, n_u, 3))
        for p in (0.0, 0.3, 0.5 * np.pi, np.pi):
            assert np.array_equal(bilinear_sample(grid, values, 2.0 * np.pi, p),
                                  bilinear_sample(grid, values, 0.0, p))
