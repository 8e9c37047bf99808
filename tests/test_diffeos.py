import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.diffeos import (
    Diffeo,
    identity_diffeo,
    jacobian_det,
    pullback,
    random_diffeo,
)
from elastishape.errors import OrientationError
from elastishape.grids import make_grid
from elastishape.registration import reparam_objective
from elastishape.srnf import inner, norm, srnf, srnf_action
from elastishape.synthetic import gen_surface

from conftest import rotation_matrix


def test_identity_jacobian_is_one(grid32):
    jac = jacobian_det(identity_diffeo(grid32))
    assert_allclose(jac, 1.0, atol=1e-15)


def test_z_rotation_jacobian_is_one(grid32):
    r = rotation_matrix("z", 1.1)
    g = Diffeo(grid=grid32, image=grid32.nodes() @ r.T)
    assert_allclose(jacobian_det(g), 1.0, atol=1e-6)


@pytest.mark.parametrize(
    "n_u, n_v", [(16, 16), (32, 32), (64, 64), (9, 13), (41, 16)],
    ids=["16", "32", "64", "9x13", "41x16"],
)
def test_every_rotation_jacobian_is_one(n_u, n_v):
    """Rotations about x and y move the poles of the image coordinates,
    which the Jacobian must not notice: the stencil commutes with them."""
    grid = make_grid(n_u, n_v)
    assert np.abs(jacobian_det(identity_diffeo(grid)) - 1.0).max() <= 1e-15
    for axis in "xyz":
        for angle in (0.1, 0.7):
            r = rotation_matrix(axis, angle)
            jac = jacobian_det(Diffeo(grid=grid, image=grid.nodes() @ r.T))
            assert np.abs(jac - 1.0).max() <= 1e-13, (axis, angle)


def test_mirror_image_has_negative_jacobian(grid32):
    mirrored = grid32.nodes().copy()
    mirrored[..., 0] *= -1.0
    assert jacobian_det(Diffeo(grid=grid32, image=mirrored)).max() < 0.0


def test_action_of_a_rotation_moving_the_poles_is_admissible(grid64):
    q = srnf(gen_surface("bumpy-sphere", grid64, amplitude=0.2, degree=3, seed=2))
    r = rotation_matrix("x", 0.1)
    moved = srnf_action(q, Diffeo(grid=grid64, image=grid64.nodes() @ r.T))
    assert abs(norm(moved) / norm(q) - 1.0) < 0.01


def test_image_validation():
    grid = make_grid(16, 16)
    with pytest.raises(ValueError, match="unit"):
        Diffeo(grid=grid, image=2.0 * grid.nodes())


def test_random_diffeo_envelope(grid64):
    # magnitude bounds total displacement; Jacobian stays positive and
    # does not stray far from one at this magnitude
    for seed in (0, 1, 2):
        g = random_diffeo(grid64, seed, 0.2)
        disp = np.linalg.norm(g.image - grid64.nodes(), axis=-1).max()
        assert disp < 0.2
        jac = jacobian_det(g)
        assert jac.min() > 0.5
        assert abs(jac - 1.0).max() < 0.5


@pytest.mark.parametrize("n", [32, 64])
def test_random_diffeo_keeps_its_first_draw(n, caplog):
    """No seed in 0-59 has its magnitude halved; a halving logs at INFO."""
    grid = make_grid(n, n)
    with caplog.at_level(logging.INFO, logger="elastishape.diffeos"):
        for seed in range(60):
            random_diffeo(grid, seed, 0.5)
    assert [r.getMessage() for r in caplog.records] == []


def test_random_diffeo_logs_each_halving(grid16, caplog):
    with caplog.at_level(logging.INFO, logger="elastishape.diffeos"):
        random_diffeo(grid16, 0, 5.0)
    assert [r.getMessage() for r in caplog.records] == [
        "random diffeo seed 0 folded; retrying at magnitude 2.5",
        "random diffeo seed 0 folded; retrying at magnitude 1.25",
    ]


def test_random_diffeo_zero_magnitude_is_identity(grid32):
    g = random_diffeo(grid32, 4, 0.0)
    assert np.abs(g.image - grid32.nodes()).max() < 1e-12


def test_random_diffeo_is_deterministic(grid32):
    a = random_diffeo(grid32, 17, 0.15)
    b = random_diffeo(grid32, 17, 0.15)
    assert np.array_equal(a.image, b.image)
    c = random_diffeo(grid32, 18, 0.15)
    assert not np.array_equal(a.image, c.image)


def test_mirror_image_fails_orientation_gate(grid32):
    mirrored = grid32.nodes().copy()
    mirrored[..., 0] *= -1.0
    f = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=2)
    with pytest.raises(OrientationError):
        srnf_action(srnf(f), Diffeo(grid=grid32, image=mirrored))


def test_fold_on_a_pole_ring_fails_orientation_gate(grid32):
    folded = grid32.nodes().copy()
    folded[0] = folded[0, ::-1]
    q = srnf(gen_surface("bumpy-sphere", grid32, amplitude=0.1, degree=3, seed=4))
    with pytest.raises((OrientationError, ValueError)):
        reparam_objective(q, q, folded)


def test_pullback_matches_field_action(grid64):
    f = gen_surface("bumpy-sphere", grid64, amplitude=0.2, degree=3, seed=101)
    g = random_diffeo(grid64, 501, 0.2)
    direct = srnf(pullback(f, g))
    acted = srnf_action(srnf(f), g)
    diff = direct.q - acted.q
    rel = np.sqrt((diff * diff).sum() * grid64.cell_measure) / norm(acted)
    assert rel < 0.05


def test_action_converges_to_the_pullback_field():
    """|q * gamma - srnf(f o gamma)| / |q * gamma| on refining grids, for
    one flow map of magnitude 0.5 (measured: 0.0131, 0.0052, 0.0025)."""
    errors = []
    for n in (32, 64, 128):
        grid = make_grid(n, n)
        f = gen_surface("bumpy-sphere", grid, amplitude=0.2, degree=3, seed=101)
        g = random_diffeo(grid, 3, 0.5)
        acted = srnf_action(srnf(f), g)
        diff = srnf(pullback(f, g)).q - acted.q
        errors.append(np.sqrt((diff * diff).sum() * grid.cell_measure) / norm(acted))
    assert errors[0] < 0.015
    assert errors[1] < 0.006
    assert errors[2] < 0.003
    assert errors[0] > errors[1] > errors[2]


def test_action_distance_shrinks_with_magnitude(grid32):
    f = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=7)
    q = srnf(f)
    dists = []
    for mag in (0.2, 0.1, 0.05):
        g = random_diffeo(grid32, 3, mag)
        moved = srnf_action(q, g)
        d = np.sqrt(max(inner(q, q) + inner(moved, moved) - 2 * inner(q, moved), 0.0))
        dists.append(d)
    assert dists[0] > dists[1] > dists[2]
