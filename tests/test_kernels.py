"""The objective kernels against literal reference formulas, bit for bit.

The references are the np.roll and fancy-index forms of the same
floating-point operations; the kernels must give identical arrays, not
close ones, so seeded registrations do not move.
"""

import numpy as np
import pytest

from elastishape.diffeos import (
    _extrapolate_pole_rows,
    _wrap_angle,
    jacobian_from_angles,
    random_diffeo,
)
from elastishape.grids import _d_du, _d_dv, bilinear_sample, make_grid, sphere_to_angles


def _roll_d_du(values, d_theta):
    return (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * d_theta)


def _fancy_bilinear(grid, values, theta, phi):
    tu = np.asarray(theta) / grid.d_theta
    i0 = np.floor(tu).astype(int)
    au = tu - i0
    i0 = np.mod(i0, grid.n_u)
    i1 = np.mod(i0 + 1, grid.n_u)

    tv = np.asarray(phi) / grid.d_phi - 0.5
    tv = np.clip(tv, 0.0, grid.n_v - 1.0)
    j0 = np.floor(tv).astype(int)
    j0 = np.minimum(j0, grid.n_v - 2)
    av = tv - j0
    j1 = j0 + 1

    extra = values.ndim - 2
    shp = au.shape + (1,) * extra
    au = au.reshape(shp)
    av = av.reshape(shp)
    return (
        values[j0, i0] * (1.0 - au) * (1.0 - av)
        + values[j0, i1] * au * (1.0 - av)
        + values[j1, i0] * (1.0 - au) * av
        + values[j1, i1] * au * av
    )


def _roll_jacobian(grid, theta, phi):
    t_u = _wrap_angle(np.roll(theta, -1, axis=1) - np.roll(theta, 1, axis=1)) / (
        2.0 * grid.d_theta
    )
    t_v = np.empty_like(theta)
    t_v[1:-1] = _wrap_angle(theta[2:] - theta[:-2]) / (2.0 * grid.d_phi)
    t_v[0] = (
        4.0 * _wrap_angle(theta[1] - theta[0]) - _wrap_angle(theta[2] - theta[0])
    ) / (2.0 * grid.d_phi)
    t_v[-1] = (
        4.0 * _wrap_angle(theta[-1] - theta[-2]) - _wrap_angle(theta[-1] - theta[-3])
    ) / (2.0 * grid.d_phi)
    p_u, p_v = _roll_d_du(phi, grid.d_theta), _d_dv(phi, grid.d_phi)
    det = t_u * p_v - t_v * p_u
    area = (np.sin(phi) / np.sin(grid.phi)[:, None]) * det
    return _extrapolate_pole_rows(area), _extrapolate_pole_rows(det)


def _sample_angles(grid, seed):
    """Image angles of a random diffeo, plus points on the azimuth seam
    and inside both clamped pole bands."""
    theta, phi = sphere_to_angles(random_diffeo(grid, seed, 0.5).image)
    theta, phi = theta.copy(), phi.copy()
    rng = np.random.default_rng(seed)
    theta[0] = 2.0 * np.pi - rng.uniform(0.0, 1e-12, size=grid.n_u)
    phi[0, ::2] = rng.uniform(0.0, 0.5 * grid.d_phi, size=phi[0, ::2].shape)
    phi[-1, ::2] = np.pi - rng.uniform(0.0, 0.5 * grid.d_phi, size=phi[-1, ::2].shape)
    return theta, phi


@pytest.mark.parametrize("n", [16, 32])
def test_bilinear_sample_is_bit_exact(n):
    grid = make_grid(n, n)
    rng = np.random.default_rng(n)
    for seed in (1, 2):
        theta, phi = _sample_angles(grid, seed)
        for values in (rng.standard_normal((n, n, 3)), rng.standard_normal((n, n))):
            got = bilinear_sample(grid, values, theta, phi)
            assert np.array_equal(got, _fancy_bilinear(grid, values, theta, phi))


def test_d_du_is_bit_exact():
    grid = make_grid(32, 16)
    rng = np.random.default_rng(4)
    for shape in ((16, 32), (16, 32, 3)):
        values = rng.standard_normal(shape)
        assert np.array_equal(_d_du(values, grid.d_theta), _roll_d_du(values, grid.d_theta))


@pytest.mark.parametrize("n", [16, 32])
def test_jacobian_from_angles_is_bit_exact(n):
    grid = make_grid(n, n)
    for seed in (3, 4):
        theta, phi = sphere_to_angles(random_diffeo(grid, seed, 0.5).image)
        for got, ref in zip(jacobian_from_angles(grid, theta, phi),
                            _roll_jacobian(grid, theta, phi)):
            assert np.array_equal(got, ref)
