import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import sph_harm_y

from elastishape import grids, sphharm
from elastishape.grids import angles_to_sphere, make_grid, sphere_to_angles
from elastishape.sphharm import harmonic_orders, harmonic_values, tangent_basis

SRC = Path(__file__).resolve().parents[1] / "src"


def _gram(grid, max_degree):
    """Quadrature Gram matrix of Y_00 and every harmonic of degree 1..max_degree."""
    values = harmonic_values(grid.nodes(), max_degree).reshape(-1, grid.n_v * grid.n_u)
    v = np.concatenate([np.full((1, values.shape[1]), 1.0 / np.sqrt(4 * np.pi)), values])
    return (v * np.repeat(grid.sin_phi * grid.cell_measure, grid.n_u)) @ v.T


def test_harmonic_orders_count():
    assert harmonic_orders(3) == [
        (l, m) for l in range(1, 4) for m in range(-l, l + 1)
    ]
    assert len(harmonic_orders(4)) == 24


def test_low_order_closed_forms():
    th = np.array([0.3, 1.7, 4.0])
    ph = np.array([0.4, 1.2, 2.5])
    # real Y_1^-1, Y_1^0, Y_1^1
    y1 = harmonic_values(angles_to_sphere(th, ph), 1)
    c = np.sqrt(3 / (4 * np.pi))
    assert_allclose(y1[0], c * np.sin(ph) * np.sin(th))
    assert_allclose(y1[1], c * np.cos(ph))
    assert_allclose(y1[2], c * np.sin(ph) * np.cos(th))


def test_orthonormal_under_grid_quadrature():
    gram = _gram(make_grid(64, 64), 4)
    err = np.abs(gram - np.eye(gram.shape[0])).max()
    assert err < 2e-3
    fine = _gram(make_grid(128, 128), 4)
    fine_err = np.abs(fine - np.eye(fine.shape[0])).max()
    # quadrature error should drop like h^2
    assert fine_err < 0.35 * err


def _angular_derivatives(theta, phi, max_degree):
    """d/dtheta and d/dphi of every harmonic of degree 1..max_degree, from
    the gradient fields of `tangent_basis`: each field dotted with
    ds/dtheta = (-y, x, 0) and with ds/dphi, the unit vector at polar
    angle phi + pi/2.  Neither divides by sin(phi)."""
    s = angles_to_sphere(theta, phi)
    grads = tangent_basis(s, max_degree)[:len(harmonic_orders(max_degree))]
    d_theta = s[..., 0] * grads[..., 1] - s[..., 1] * grads[..., 0]
    d_phi = (grads * angles_to_sphere(theta, phi + 0.5 * np.pi)).sum(axis=-1)
    return d_theta, d_phi


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    th = rng.uniform(0.5, 5.5, size=40)
    ph = rng.uniform(0.3, np.pi - 0.3, size=40)
    h = 1e-6
    d_th, d_ph = _angular_derivatives(th, ph, 4)

    def values(theta, phi):
        return harmonic_values(angles_to_sphere(theta, phi), 4)

    fd_th = (values(th + h, ph) - values(th - h, ph)) / (2 * h)
    fd_ph = (values(th, ph + h) - values(th, ph - h)) / (2 * h)
    for l, m in [(1, 0), (2, -1), (3, 2), (4, -4)]:
        k = harmonic_orders(4).index((l, m))
        assert_allclose(d_th[k], fd_th[k], atol=1e-6)
        assert_allclose(d_ph[k], fd_ph[k], atol=1e-6)


def test_n_tangent_fields():
    pts = _unit_points(1, 5)
    assert tangent_basis(pts, 1).shape[0] == 2 * len(harmonic_orders(1)) == 6
    assert tangent_basis(pts, 3).shape[0] == 2 * len(harmonic_orders(3)) == 30


def test_tangent_basis_is_tangent():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    fields = tangent_basis(pts, 3)
    assert fields.shape == (30, 50, 3)
    dots = np.einsum("kpi,pi->kp", fields, pts)
    assert np.abs(dots).max() < 1e-12


def test_rotated_fields_are_perpendicular_to_gradients():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    fields = tangent_basis(pts, 2)
    n = fields.shape[0] // 2
    grads, rots = fields[:n], fields[n:]
    dots = np.einsum("kpi,kpi->kp", grads, rots)
    assert np.abs(dots).max() < 1e-12
    # the rotation preserves pointwise magnitude
    assert_allclose(
        np.linalg.norm(rots, axis=-1), np.linalg.norm(grads, axis=-1), atol=1e-12
    )


def _unit_points(seed, n):
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def _division_basis(points, max_degree):
    """The tangent basis by scipy's derivatives and d/dtheta / sin(phi)."""
    pts = np.asarray(points, dtype=float)
    theta, phi = sphere_to_angles(pts)
    sin_phi = np.maximum(np.sin(phi), 1e-15)
    e_theta = np.stack([-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=-1)
    e_phi = np.stack(
        [np.cos(phi) * np.cos(theta), np.cos(phi) * np.sin(theta), -np.sin(phi)],
        axis=-1,
    )
    grads = []
    for l, m in harmonic_orders(max_degree):
        _, d_theta, d_phi = _scipy_real_grad(l, m, theta, phi)
        grads.append((d_theta / sin_phi)[..., None] * e_theta + d_phi[..., None] * e_phi)
    rots = [np.cross(pts, g) for g in grads]
    return np.stack(grads + rots, axis=0)


def _scipy_real_grad(l, m, theta, phi):
    """Realized value, d/dtheta and d/dphi from sph_harm_y(diff_n=1)."""
    y, dy = sph_harm_y(l, abs(m), phi, theta, diff_n=1)

    def realize(v):
        if m > 0:
            return np.sqrt(2.0) * (-1.0) ** m * v.real
        if m < 0:
            return np.sqrt(2.0) * (-1.0) ** m * v.imag
        return v.real

    return realize(y), realize(dy[..., 1]), realize(dy[..., 0])


def test_degree_one_gradients_at_random_points_and_poles():
    pts = np.concatenate([_unit_points(3, 200), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    fields = tangent_basis(pts, 1)
    proj = np.eye(3) - pts[:, :, None] * pts[:, None, :]
    # real Y_1^-1, Y_1^0, Y_1^1 are sqrt(3 / 4 pi) times y, z, x
    for k, axis in enumerate((1, 2, 0)):
        expected = np.sqrt(3.0 / (4.0 * np.pi)) * proj[:, :, axis]
        assert np.abs(fields[k] - expected).max() < 1e-13
        assert np.abs(fields[3 + k] - np.cross(pts, expected)).max() < 1e-13


def test_tangent_basis_matches_scipy_derivatives():
    rng = np.random.default_rng(21)
    th = rng.uniform(0.0, 2.0 * np.pi, size=1002)
    ph = np.concatenate([rng.uniform(0.0, np.pi, size=1000), [1e-9, np.pi - 1e-9]])
    d_theta, d_phi = _angular_derivatives(th, ph, 4)
    for k, (l, m) in enumerate(harmonic_orders(4)):
        _, want_theta, want_phi = _scipy_real_grad(l, m, th, ph)
        assert np.abs(d_theta[k] - want_theta).max() < 1e-13, (l, m)
        assert np.abs(d_phi[k] - want_phi).max() < 1e-13, (l, m)


def test_tangent_basis_matches_the_division_formula_off_the_poles():
    pts = np.concatenate([_unit_points(5, 2000), make_grid(32, 32).nodes().reshape(-1, 3)])
    _, phi = sphere_to_angles(pts)
    off_pole = np.sin(phi) >= 1e-6
    diff = tangent_basis(pts, 3) - _division_basis(pts, 3)
    assert np.abs(diff[:, off_pole]).max() < 1e-13


def test_tangent_basis_takes_no_angles(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("tangent_basis took an angle or a harmonic value")

    for name in ("sin", "cos", "tan", "arccos", "arcsin", "arctan2", "exp"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(grids, "sphere_to_angles", forbidden)
    monkeypatch.setattr(sphharm, "_GRADIENT_TABLES", {})
    for degree in (1, 3, 7):
        assert tangent_basis(_unit_points(6, 40), degree).shape == (
            2 * len(harmonic_orders(degree)), 40, 3)
    assert sorted(sphharm._GRADIENT_TABLES) == [1, 3, 7]


def test_threads_racing_on_a_first_use_get_equal_bases(monkeypatch):
    monkeypatch.setattr(sphharm, "_GRADIENT_TABLES", {})
    pts = _unit_points(9, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda _: tangent_basis(pts, 5), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r, results[0]) for r in results)
    assert list(sphharm._GRADIENT_TABLES) == [5]


def test_importing_the_package_builds_no_gradient_table():
    code = ("import elastishape; from elastishape import sphharm; "
            "print(len(sphharm._GRADIENT_TABLES))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "0"


def test_numpy_harmonics_match_scipy():
    rng = np.random.default_rng(31)
    extra = np.array([0.0, 1e-9, np.pi - 1e-9, np.pi])
    ph = np.concatenate([np.arccos(rng.uniform(-1.0, 1.0, size=1000)), extra])
    th = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, size=1000),
                         rng.uniform(0.0, 2.0 * np.pi, size=extra.size)])
    values = harmonic_values(angles_to_sphere(th, ph), 8)
    for k, (l, m) in enumerate(harmonic_orders(8)):
        assert np.abs(values[k] - _scipy_real_grad(l, m, th, ph)[0]).max() < 1e-13, (l, m)


def test_harmonic_values_keep_the_point_shape():
    pts = _unit_points(12, 35).reshape(5, 7, 3)
    values = harmonic_values(pts, 3)
    assert values.shape == (15, 5, 7)
    theta, phi = sphere_to_angles(pts)
    for k, (l, m) in enumerate(harmonic_orders(3)):
        assert np.abs(values[k] - _scipy_real_grad(l, m, theta, phi)[0]).max() < 1e-13
    with pytest.raises(ValueError):
        harmonic_values(pts, 0)


def test_tangent_basis_needs_degree_one():
    with pytest.raises(ValueError):
        tangent_basis(_unit_points(4, 10), 0)
