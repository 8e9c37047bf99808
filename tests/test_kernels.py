"""The objective kernels against literal reference formulas, bit for bit.

The references are the np.roll and fancy-index forms of the same
floating-point operations; the kernels must give identical arrays, not
close ones, so seeded registrations do not move.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from elastishape.diffeos import flow_step, jacobian_from_angles, random_diffeo
from elastishape.grids import (
    _d_du,
    _pole_padded,
    angles_to_sphere,
    bilinear_sample,
    make_grid,
    sphere_to_angles,
)
from elastishape.registration import (
    _action_objective,
    _basis_gradient,
    _stacked_objective,
    reparam_gradient,
)
from elastishape.sphharm import harmonic_orders, tangent_basis
from elastishape.srnf import SrnfField, _action_values, _pole_smoothed


def _roll_d_du(values, d_theta):
    return (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * d_theta)


def _across_pole(row, n_u):
    """An end row seen from the opposite azimuth theta + pi."""
    half = n_u // 2
    if n_u % 2:
        return 0.5 * (np.roll(row, -half, axis=0) + np.roll(row, -half - 1, axis=0))
    return np.roll(row, -half, axis=0)


def _fancy_bilinear(grid, values, theta, phi):
    """Bilinear sampling over the rows padded with one row across each pole."""
    padded = np.concatenate(
        [_across_pole(values[0], grid.n_u)[None], values, _across_pole(values[-1], grid.n_u)[None]]
    )
    tu = np.asarray(theta) / grid.d_theta
    i0 = np.floor(tu).astype(int)
    au = tu - i0
    i0 = np.mod(i0, grid.n_u)
    i1 = np.mod(i0 + 1, grid.n_u)

    tv = np.asarray(phi) / grid.d_phi + 0.5
    j0 = np.floor(tv).astype(int)
    av = tv - j0
    j1 = j0 + 1

    extra = values.ndim - 2
    shp = au.shape + (1,) * extra
    au = au.reshape(shp)
    av = av.reshape(shp)
    return (
        padded[j0, i0] * (1.0 - au) * (1.0 - av)
        + padded[j0, i1] * au * (1.0 - av)
        + padded[j1, i0] * (1.0 - au) * av
        + padded[j1, i1] * au * av
    )


def _roll_det(image):
    """gamma . (gamma_phi x gamma_theta) by np.roll, row formulas and np.cross."""
    g_theta = np.roll(image, -1, axis=1) - np.roll(image, 1, axis=1)
    g_phi = np.empty_like(image)
    g_phi[1:-1] = image[2:] - image[:-2]
    g_phi[0] = -3.0 * image[0] + 4.0 * image[1] - image[2]
    g_phi[-1] = 3.0 * image[-1] - 4.0 * image[-2] + image[-3]
    return (image * np.cross(g_phi, g_theta)).sum(axis=-1)


def _roll_jacobian(grid, image):
    return _roll_det(image) / _roll_det(grid.nodes())


def _sample_angles(grid, seed):
    """Image angles of a random diffeo, plus points on the azimuth seam
    and inside both half-cell pole bands, which sample across the pole."""
    theta, phi = sphere_to_angles(random_diffeo(grid, seed, 0.5).image)
    theta, phi = theta.copy(), phi.copy()
    rng = np.random.default_rng(seed)
    theta[0] = 2.0 * np.pi - rng.uniform(0.0, 1e-12, size=grid.n_u)
    phi[0, ::2] = rng.uniform(0.0, 0.5 * grid.d_phi, size=phi[0, ::2].shape)
    phi[-1, ::2] = np.pi - rng.uniform(0.0, 0.5 * grid.d_phi, size=phi[-1, ::2].shape)
    return theta, phi


@pytest.mark.parametrize(
    "n_u, n_v", [(16, 16), (32, 32), (25, 25), (41, 16)], ids=["16", "32", "25x25", "41x16"]
)
def test_bilinear_sample_is_bit_exact(n_u, n_v):
    """At n_u = 25 and 41, 2 pi / d_theta rounds below n_u, so theta = 2 pi
    falls in the last cell and its right neighbour wraps to column 0; odd
    n_u also averages two columns for the rows across the poles.  The
    exact poles sample midway between the end row and the row across."""
    grid = make_grid(n_u, n_v)
    rng = np.random.default_rng(n_u)
    for seed in (1, 2):
        theta, phi = _sample_angles(grid, seed)
        theta[1, ::3] = 2.0 * np.pi
        phi[2, ::4] = 0.0
        phi[3, ::4] = np.pi
        for values in (rng.standard_normal((n_v, n_u, 3)), rng.standard_normal((n_v, n_u))):
            got = bilinear_sample(grid, values, theta, phi)
            assert np.array_equal(got, _fancy_bilinear(grid, values, theta, phi))


def test_d_du_is_bit_exact():
    grid = make_grid(32, 16)
    rng = np.random.default_rng(4)
    for shape in ((16, 32), (16, 32, 3)):
        values = rng.standard_normal(shape)
        assert np.array_equal(_d_du(values, grid.d_theta), _roll_d_du(values, grid.d_theta))


def _jacobian_inputs(grid):
    """Random diffeo images, and images of the seam and pole-band angles."""
    images = [random_diffeo(grid, seed, 0.5).image for seed in (3, 4)]
    return images + [angles_to_sphere(*_sample_angles(grid, seed)) for seed in (1, 2)]


@pytest.mark.parametrize("n", [16, 32])
def test_jacobian_from_angles_is_bit_exact(n):
    grid = make_grid(n, n)
    for image in _jacobian_inputs(grid):
        assert np.array_equal(jacobian_from_angles(grid, image), _roll_jacobian(grid, image))


@pytest.mark.parametrize("n_u, n_v", [(8, 8), (12, 9), (9, 13), (64, 64)])
def test_jacobian_from_angles_is_bit_exact_on_every_grid_shape(n_u, n_v):
    """8 rows is the fewest the end-row stencils allow; odd and non-square
    grids check the row and column slicing."""
    grid = make_grid(n_u, n_v)
    for image in _jacobian_inputs(grid):
        got = jacobian_from_angles(grid, image)
        assert got.shape == (n_v, n_u)
        assert np.array_equal(got, _roll_jacobian(grid, image))


# Literal copies of the earlier sphere_to_angles, flow_step, _action_values
# and _action_objective, wired to the reference sampler and Jacobian above.


def _ref_sphere_to_angles(points):
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    theta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    phi = np.arccos(np.clip(z, -1.0, 1.0))
    return theta, phi


def _ref_flow_step(points, velocity):
    moved = points + velocity
    return moved / np.sqrt((moved * moved).sum(axis=-1))[..., None]


def _ref_action_values(grid, smooth, theta, phi, jac):
    sampled = _fancy_bilinear(grid, smooth, theta, phi)
    return sampled * np.sqrt(np.maximum(jac, 0.0) * np.sin(grid.phi)[:, None])[..., None]


def _ref_action_objective(grid, q1, smooth2, image):
    theta, phi = _ref_sphere_to_angles(image)
    jac = _roll_jacobian(grid, image)
    if jac.min() <= 0.0:
        return None
    diff = q1 - _ref_action_values(grid, smooth2, theta, phi, jac)
    return float((diff * diff).sum() * grid.cell_measure)


def _seam_image(grid, seed):
    """A random diffeo image turned about z so the node nearest the equator
    sits 1e-13 below theta = 2 pi; random_diffeo at magnitude 0.5 also
    moves nodes into both half-cell pole bands."""
    image = random_diffeo(grid, seed, 0.5).image
    theta, phi = sphere_to_angles(image)
    k = np.unravel_index(np.argmin(np.abs(phi - 0.5 * np.pi)), phi.shape)
    a = (2.0 * np.pi - 1e-13) - theta[k]
    turn = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    image = image @ turn.T
    theta, phi = sphere_to_angles(image)
    assert 2.0 * np.pi - theta.max() < 1e-12
    assert phi.min() < 0.5 * grid.d_phi and phi.max() > np.pi - 0.5 * grid.d_phi
    return image


# Exact poles, both signs of zero in y, and |z| rounded just above one.
_SPECIAL_POINTS = np.array([
    [1.0, -0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0 + 2e-16], [1e-300, -1e-300, -1.0],
])


@pytest.mark.parametrize("n", [16, 32, 64])
def test_sphere_to_angles_and_flow_step_are_bit_exact(n):
    grid = make_grid(n, n)
    for seed in (5, 6):
        image = _seam_image(grid, seed)
        # Single (3,) points too: an exact pole, a -0.0 component, an image node.
        for points in (image, _SPECIAL_POINTS, _SPECIAL_POINTS[4], _SPECIAL_POINTS[0], image[3, 5]):
            for got, ref in zip(sphere_to_angles(points), _ref_sphere_to_angles(points)):
                assert np.shape(got) == np.shape(ref)
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
        fields = tangent_basis(image, 3)
        for k in (0, 7, 29):
            velocity = 0.05 * fields[k]
            for v in (velocity, -velocity):
                assert np.array_equal(flow_step(image, v), _ref_flow_step(image, v))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_action_values_and_objective_are_bit_exact(n):
    grid = make_grid(n, n)
    rng = np.random.default_rng(n + 1)
    q1 = rng.standard_normal((n, n, 3))
    smooth = rng.standard_normal((n, n, 3))
    for seed in (7, 8):
        theta, phi = _sample_angles(grid, seed)
        jac = jacobian_from_angles(grid, angles_to_sphere(theta, phi))
        jac[2, ::3] = -1e-3  # the clamp at zero
        assert np.array_equal(_action_values(grid, _pole_padded(smooth), theta, phi, jac),
                              _ref_action_values(grid, smooth, theta, phi, jac))
        image = _seam_image(grid, seed)
        for img in (image, flow_step(image, 0.01 * tangent_basis(image, 3)[3])):
            value = _action_objective(grid, q1, _pole_padded(smooth), img)
            assert value is not None
            assert value == _ref_action_objective(grid, q1, smooth, img)


def test_bilinear_sample_takes_scalar_angles():
    grid = make_grid(16, 16)
    values = np.random.default_rng(9).standard_normal((16, 16, 3))
    for theta, phi in ((0.3, 1.2), (2.0 * np.pi - 1e-13, 0.01), (6.0, np.pi)):
        got = bilinear_sample(grid, values, theta, phi)
        assert got.shape == (3,)
        assert np.array_equal(got, _fancy_bilinear(grid, values, theta, phi))


# A literal copy of the earlier per-field finite-difference gradient, wired
# to the reference objective and flow step above, counting the branch each
# basis field takes.


def _ref_basis_gradient(grid, q1, smooth2, image, fields, h, e_center, hits):
    grad = np.zeros(fields.shape[0])
    for k in range(fields.shape[0]):
        e_plus = _ref_action_objective(grid, q1, smooth2, _ref_flow_step(image, h * fields[k]))
        e_minus = _ref_action_objective(grid, q1, smooth2, _ref_flow_step(image, -h * fields[k]))
        if e_plus is None and e_minus is None:
            hits["skip"] += 1
            continue
        if e_plus is None:
            hits["minus"] += 1
            grad[k] = (e_center - e_minus) / h
        elif e_minus is None:
            hits["plus"] += 1
            grad[k] = (e_plus - e_center) / h
        else:
            hits["central"] += 1
            grad[k] = (e_plus - e_minus) / (2.0 * h)
    return grad


@pytest.mark.parametrize("n", [16, 32, 64])
def test_reparam_gradient_is_bit_exact(n):
    grid = make_grid(n, n)
    rng = np.random.default_rng(n + 2)
    q1 = SrnfField(grid=grid, q=rng.standard_normal((n, n, 3)))
    q2 = SrnfField(grid=grid, q=rng.standard_normal((n, n, 3)))
    smooth2 = _pole_smoothed(grid, q2.q)
    hits = Counter()
    # The optimizer's gradient at the seam image: GRAD_STEP, degree 3.
    image = _seam_image(grid, 5)
    e_center = _ref_action_objective(grid, q1.q, smooth2, image)
    ref = _ref_basis_gradient(grid, q1.q, smooth2, image, tangent_basis(image, 3), 1e-4,
                              e_center, hits)
    assert np.array_equal(reparam_gradient(q1, q2, image), ref)
    # A strongly warped image and a coarse step under which some pairs fold
    # over on both sides.
    image = random_diffeo(grid, 2, 1.0).image
    fields = tangent_basis(image, 3)
    e_center = _ref_action_objective(grid, q1.q, smooth2, image)
    ref = _ref_basis_gradient(grid, q1.q, smooth2, image, fields, 0.5, e_center, hits)
    got = _basis_gradient(grid, q1.q, _pole_padded(smooth2), image, fields, 0.5, e_center)
    assert np.array_equal(got, ref)
    # Steps folding on one side only: h * toward passes the mirror plane
    # for h = 0.75, and -h * toward stretches the image away from it.
    image = random_diffeo(grid, 3, 0.5).image
    toward = _mirrored(image) - image
    fields = np.concatenate([toward[None], -toward[None], tangent_basis(image, 3)[:4]])
    e_center = _ref_action_objective(grid, q1.q, smooth2, image)
    ref = _ref_basis_gradient(grid, q1.q, smooth2, image, fields, 0.75, e_center, hits)
    got = _basis_gradient(grid, q1.q, _pole_padded(smooth2), image, fields, 0.75, e_center)
    assert np.array_equal(got, ref)
    assert set(hits) == {"central", "plus", "minus", "skip"}


def _mirrored(image):
    """The image reflected in the yz-plane: an orientation-reversing map."""
    out = image.copy()
    out[..., 0] *= -1.0
    return out


def _check_stack_against_single_maps(grid, q1, smooth, stack):
    padded = _pole_padded(smooth)
    energy, admissible = _stacked_objective(grid, q1, padded, stack)
    assert energy.shape == admissible.shape == (len(stack),)
    assert admissible.dtype == bool
    for m, image in enumerate(stack):
        value = _action_objective(grid, q1, padded, image)
        assert admissible[m] == (value is not None)
        if value is not None:
            assert energy[m] == value
    return admissible


@pytest.mark.parametrize("n", [16, 32])
def test_stacked_objective_matches_the_one_map_objective(n):
    grid = make_grid(n, n)
    rng = np.random.default_rng(n + 3)
    q1 = rng.standard_normal((n, n, 3))
    smooth = rng.standard_normal((n, n, 3))
    image = _seam_image(grid, 9)
    fields = tangent_basis(image, 3)
    stack = np.stack([
        image,
        _mirrored(grid.nodes()),
        flow_step(image, 0.01 * fields[4]),
        grid.nodes(),
        flow_step(image, -0.3 * fields[11]),
    ])
    admissible = _check_stack_against_single_maps(grid, q1, smooth, stack)
    assert not admissible[1]
    assert admissible[[0, 2, 3]].all()


_GRID16 = make_grid(16, 16)


@given(
    seed=st.integers(0, 10_000),
    magnitude=st.floats(0.05, 1.5),
    maps=st.integers(1, 6),
    mirror_bits=st.integers(0, 63),
)
def test_stacked_objective_property(seed, magnitude, maps, mirror_bits):
    grid = _GRID16
    rng = np.random.default_rng(seed)
    q1 = rng.standard_normal((16, 16, 3))
    smooth = rng.standard_normal((16, 16, 3))
    mirror = np.array([(mirror_bits >> m) & 1 == 1 for m in range(maps)])
    images = [random_diffeo(grid, seed + m, magnitude).image for m in range(maps)]
    stack = np.stack([_mirrored(img) if flip else img for img, flip in zip(images, mirror)])
    admissible = _check_stack_against_single_maps(grid, q1, smooth, stack)
    assert not admissible[mirror].any()


# A literal copy of the earlier tangent_basis: the ladder identities one
# order at a time and the fields assembled one (l, m) at a time.  It is
# now an accuracy oracle for the Cartesian basis, not a bit-exact one.

_SQRT2 = np.sqrt(2.0)


def _ref_realize(m, values):
    if m > 0:
        return _SQRT2 * (-1.0) ** m * values.real
    if m < 0:
        return _SQRT2 * (-1.0) ** m * values.imag
    return values.real


def _ref_order(row, b):
    if abs(b) >= len(row):
        return 0.0
    if b < 0:
        return (-1.0) ** b * np.conj(row[-b])
    return row[b]


def _ref_d_polar(row, a, e_it):
    l = len(row) - 1
    up = np.sqrt((l - a) * (l + a + 1)) * np.conj(e_it) * _ref_order(row, a + 1)
    down = np.sqrt((l + a) * (l - a + 1)) * e_it * _ref_order(row, a - 1)
    return 0.5 * (up - down)


def _ref_over_sin(lower, a, e_it):
    l = len(lower)
    left = np.sqrt((l + a) * (l + a - 1)) * e_it * _ref_order(lower, a - 1)
    right = np.sqrt((l - a) * (l - a - 1)) * np.conj(e_it) * _ref_order(lower, a + 1)
    return -0.5 * np.sqrt((2 * l + 1) / (2 * l - 1)) * (left + right)


def _ref_tangent_basis(points, max_degree):
    pts = np.asarray(points, dtype=float)
    theta, phi = _ref_sphere_to_angles(pts)
    e_it = np.exp(1j * theta)
    rows = [[sph_harm_y(l, a, phi, theta) for a in range(l + 1)]
            for l in range(max_degree + 1)]

    e_theta = np.stack([-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=-1)
    e_phi = np.stack(
        [np.cos(phi) * np.cos(theta), np.cos(phi) * np.sin(theta), -np.sin(phi)],
        axis=-1,
    )

    n_grads = len(harmonic_orders(max_degree))
    out = np.empty((2 * n_grads,) + pts.shape)
    grads, rots = out[:n_grads], out[n_grads:]
    k = 0
    for l in range(1, max_degree + 1):
        parts = [
            (_ref_d_polar(rows[l], a, e_it),
             1j * _ref_over_sin(rows[l - 1], a, e_it) if a else None)
            for a in range(l + 1)
        ]
        for m in range(-l, l + 1):
            d_phi, az = parts[abs(m)]
            c_phi = _ref_realize(m, d_phi)[..., None]
            grads[k] = c_phi * e_phi
            rots[k] = c_phi * e_theta
            if m:
                c_theta = _ref_realize(m, az)[..., None]
                grads[k] += c_theta * e_theta
                rots[k] -= c_theta * e_phi
            k += 1
    return out


@pytest.mark.parametrize("n", [16, 32, 64])
def test_tangent_basis_matches_the_ladder_reference(n):
    """The reference takes its harmonic values from scipy.special.sph_harm_y
    at phi = arccos z, which moves a point off a pole by up to
    eps / (2 sin phi) along its meridian, and the fields vary as
    degree^2; the Cartesian basis takes no angle.  Over these images the
    largest deviation at degree 3 is 1.3e-14, 7.5e-14 and 1.1e-13 on 16,
    32 and 64 (at sin phi 2.3e-3), and at degree 7 it is 8.4e-14,
    5.1e-13 and 7.2e-13.  The bound degree^2 (2e-15 + 3e-16 / sin phi)
    has that shape, and the largest deviation measured is 0.456 of it
    (the bound is 2.19 times every deviation)."""
    grid = make_grid(n, n)
    images = [random_diffeo(grid, seed, 0.5).image for seed in (10, 11)]
    images += [_seam_image(grid, 12), grid.nodes(), _SPECIAL_POINTS]
    for points in images:
        sin_phi = np.hypot(points[..., 0], points[..., 1])
        for degree in range(1, 8):
            got = tangent_basis(points, degree)
            ref = _ref_tangent_basis(points, degree)
            assert got.shape == ref.shape
            tol = degree**2 * (2e-15 + 3e-16 / np.maximum(sin_phi, 1e-3))
            assert (np.abs(got - ref).max(axis=(0, -1)) <= tol).all(), degree
