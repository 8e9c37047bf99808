import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.diffeos import (
    Diffeo,
    compose,
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
    assert_allclose(jac, 1.0, atol=1e-12)


def test_z_rotation_jacobian_is_one(grid32):
    r = rotation_matrix("z", 1.1)
    g = Diffeo(grid=grid32, image=grid32.nodes() @ r.T)
    assert_allclose(jacobian_det(g), 1.0, atol=1e-6)


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


def test_random_diffeo_zero_magnitude_is_identity(grid32):
    g = random_diffeo(grid32, 4, 0.0)
    assert np.abs(g.image - grid32.nodes()).max() < 1e-12


def test_random_diffeo_is_deterministic(grid32):
    a = random_diffeo(grid32, 17, 0.15)
    b = random_diffeo(grid32, 17, 0.15)
    assert np.array_equal(a.image, b.image)
    c = random_diffeo(grid32, 18, 0.15)
    assert not np.array_equal(a.image, c.image)


def test_compose_with_identity_on_the_right_is_exact(grid32):
    g = random_diffeo(grid32, 9, 0.2)
    same = compose(g, identity_diffeo(grid32))
    assert np.abs(same.image - g.image).max() < 1e-12


def test_compose_with_identity_on_the_left_interpolates(grid32):
    g = random_diffeo(grid32, 9, 0.2)
    approx = compose(identity_diffeo(grid32), g)
    # left identity is only as good as interpolating the sphere embedding
    assert np.linalg.norm(approx.image - g.image, axis=-1).max() < 0.1


def test_compose_rejects_mismatched_grids(grid16, grid32):
    with pytest.raises(ValueError, match="grid"):
        compose(identity_diffeo(grid16), identity_diffeo(grid32))


def test_mirror_image_fails_orientation_gate(grid32):
    mirrored = grid32.nodes().copy()
    mirrored[..., 0] *= -1.0
    f = gen_surface("bumpy-sphere", grid32, amplitude=0.2, degree=3, seed=2)
    with pytest.raises(OrientationError):
        srnf_action(srnf(f), Diffeo(grid=grid32, image=mirrored))


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="image rings 0 and n_v - 1 enter neither Jacobian determinant",
)
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
