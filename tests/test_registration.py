import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from elastishape.diffeos import identity_diffeo, pullback, random_diffeo
from elastishape.grids import Surface, make_grid
from elastishape.registration import (
    BASIS_DEGREE,
    GRAD_STEP,
    RegistrationOpts,
    optimal_rotation,
    optimize_reparam,
    register,
    reparam_gradient,
    reparam_objective,
    rotate_surface,
)
from elastishape.sphharm import harmonic_orders, tangent_basis
from elastishape.srnf import SrnfField, inner, norm, srnf, srnf_action
from elastishape.synthetic import gen_surface

from conftest import random_rotation, rotation_matrix

OPTS = RegistrationOpts(max_iters=40, rounds=2, tol_rel=1e-4)


def test_optimal_rotation_recovers_a_planted_rotation(bumpy32):
    q = srnf(bumpy32)
    o = rotation_matrix("x", 0.9) @ rotation_matrix("z", -0.2)
    q_rot = SrnfField(grid=q.grid, q=q.q @ o.T)
    r = optimal_rotation(q, q_rot)
    assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)
    assert_allclose(r, o.T, atol=1e-10)


def test_self_objective_is_zero_and_stops_immediately(bumpy32):
    q = srnf(bumpy32)
    gamma, trace = optimize_reparam(q, q, OPTS)
    assert len(trace) == 1
    assert trace[0] < 1e-20
    assert np.abs(gamma.image - bumpy32.grid.nodes()).max() == 0.0


def test_identity_objective_matches_field_distance(bumpy32):
    f2 = gen_surface("bumpy-sphere", bumpy32.grid, amplitude=0.2, degree=3, seed=4)
    q1, q2 = srnf(bumpy32), srnf(f2)
    e = reparam_objective(q1, q2, bumpy32.grid.nodes())
    direct = norm(SrnfField(grid=q1.grid, q=q1.q - q2.q)) ** 2
    assert_allclose(e, direct, rtol=5e-3)
    # The objective is the distance to the SRNF action, bit for bit.
    for g in (identity_diffeo(bumpy32.grid), random_diffeo(bumpy32.grid, 12, 0.3)):
        diff = SrnfField(grid=q1.grid, q=q1.q - srnf_action(q2, g).q)
        assert reparam_objective(q1, q2, g.image) == inner(diff, diff)


def test_gradient_matches_objective_differences(bumpy32):
    f2 = gen_surface("bumpy-sphere", bumpy32.grid, amplitude=0.2, degree=3, seed=4)
    q1, q2 = srnf(bumpy32), srnf(f2)
    image = random_diffeo(bumpy32.grid, 12, 0.1).image
    h = GRAD_STEP
    grad = reparam_gradient(q1, q2, image)
    assert grad.shape == (2 * len(harmonic_orders(BASIS_DEGREE)),)
    fields = tangent_basis(image, BASIS_DEGREE)
    from elastishape.diffeos import flow_step

    for k in (0, 7, 19, 29):
        e_plus = reparam_objective(q1, q2, flow_step(image, h * fields[k]))
        e_minus = reparam_objective(q1, q2, flow_step(image, -h * fields[k]))
        fd = (e_plus - e_minus) / (2 * h)
        assert_allclose(grad[k], fd, rtol=1e-10, atol=1e-14)


def test_planted_reparam_energy_drops(bumpy32):
    q = srnf(bumpy32)
    g0 = random_diffeo(bumpy32.grid, 40, 0.1)
    q2 = srnf(pullback(bumpy32, g0))
    opts = RegistrationOpts(max_iters=100, rounds=1, tol_rel=1e-6)
    _, trace = optimize_reparam(q, q2, opts)
    trace = np.array(trace)
    assert (np.diff(trace) <= 0).all()
    assert 0.018 < trace[0] < 0.019
    assert trace[-1] / trace[0] < 0.15


def test_bad_init_is_rejected(bumpy32):
    q = srnf(bumpy32)
    mirrored = bumpy32.grid.nodes().copy()
    mirrored[..., 0] *= -1.0
    from elastishape.diffeos import Diffeo

    bad = Diffeo(grid=bumpy32.grid, image=mirrored)
    with pytest.raises(ValueError, match="orientation"):
        optimize_reparam(q, srnf(rotate_surface(bumpy32, rotation_matrix("z", 0.3))), OPTS, init=bad)


def test_register_self_is_exact(bumpy32):
    res = register(bumpy32, bumpy32, OPTS)
    assert res.distance < 1e-10
    assert_allclose(res.rotation, np.eye(3), atol=1e-10)


def test_register_recovers_a_pure_rotation(bumpy32):
    o = rotation_matrix("x", 0.5) @ rotation_matrix("z", 0.3)
    res = register(bumpy32, rotate_surface(bumpy32, o), OPTS)
    assert res.distance < 1e-10
    assert_allclose(res.rotation, o.T, atol=1e-10)
    assert_allclose(res.aligned.points, bumpy32.points, atol=1e-10)


def test_register_two_ellipsoids(grid32):
    e1 = Surface(grid=grid32, points=grid32.nodes() * (1.0, 0.6, 0.5))
    e2 = Surface(grid=grid32, points=grid32.nodes() * (1.0, 0.6, 0.4))
    r12 = register(e1, e2, OPTS)
    r21 = register(e2, e1, OPTS)
    assert 0.2 < r12.distance < 0.3
    assert 0.2 < r21.distance < 0.3
    # near-symmetry of the aligned distance
    mean = 0.5 * (r12.distance + r21.distance)
    assert abs(r12.distance - r21.distance) / mean < 0.02
    trace = np.array(r12.objective_trace)
    assert (np.diff(trace) <= 0).all()
    assert trace[-1] == pytest.approx(r12.distance)


# Property tests on short 16x16 searches: 8 iterations, one round, about
# 40 ms per register.  Over 60 seeded bumpy pairs (amplitude 0.05-0.15;
# from 0.196 some seed in 0-10001 has a nonpositive radius), rotating f1
# moved the distance by at most 8.6e-13 relative (median 4.4e-14), and
# d(f2, f1) differed from d(f1, f2) by at most 7.2% of the larger (median
# 1.8%).  Twelve examples keep each test near 1.5 s.
#
# Measured on 260 other seeded draws from the same strategies:
# reparameterizing both surfaces by one magnitude-0.3 `random_diffeo`
# moved the distance by at most 12.8% of the larger (median 3.5%), and
# registering a surface to a random rotation of itself left a distance
# of at most 1.1e-14 and a rotation error max |R - O^T| of at most 3.6e-15.
PROPERTY_OPTS = RegistrationOpts(max_iters=8, rounds=1, tol_rel=1e-4)
_GRID16 = make_grid(16, 16)


def _bumpy_pair(seed, amplitude):
    return tuple(gen_surface("bumpy-sphere", _GRID16, amplitude=amplitude, degree=3, seed=s)
                 for s in (seed, seed + 1))


@settings(max_examples=12)
@given(seed=st.integers(0, 10_000), amplitude=st.floats(0.05, 0.15))
def test_distance_is_invariant_to_rotating_a_surface(seed, amplitude):
    f1, f2 = _bumpy_pair(seed, amplitude)
    d = register(f1, f2, PROPERTY_OPTS).distance
    d_rot = register(rotate_surface(f1, random_rotation(seed + 2)), f2, PROPERTY_OPTS).distance
    assert abs(d_rot - d) <= 1e-9 * d


@settings(max_examples=12)
@given(seed=st.integers(0, 10_000), amplitude=st.floats(0.05, 0.15))
def test_distance_is_nearly_symmetric(seed, amplitude):
    f1, f2 = _bumpy_pair(seed, amplitude)
    d12 = register(f1, f2, PROPERTY_OPTS).distance
    d21 = register(f2, f1, PROPERTY_OPTS).distance
    assert abs(d12 - d21) <= 0.15 * max(d12, d21)


@settings(max_examples=12)
@given(seed=st.integers(0, 10_000), amplitude=st.floats(0.05, 0.15))
def test_distance_is_nearly_invariant_to_reparameterizing_both_surfaces(seed, amplitude):
    f1, f2 = _bumpy_pair(seed, amplitude)
    gamma = random_diffeo(_GRID16, seed + 3, 0.3)
    d = register(f1, f2, PROPERTY_OPTS).distance
    d_gamma = register(pullback(f1, gamma), pullback(f2, gamma), PROPERTY_OPTS).distance
    assert abs(d_gamma - d) <= 0.2 * max(d, d_gamma)


@settings(max_examples=12)
@given(seed=st.integers(0, 10_000), amplitude=st.floats(0.05, 0.15))
def test_register_recovers_a_planted_random_rotation(seed, amplitude):
    f = gen_surface("bumpy-sphere", _GRID16, amplitude=amplitude, degree=3, seed=seed)
    o = random_rotation(seed + 2)
    res = register(f, rotate_surface(f, o), PROPERTY_OPTS)
    assert res.distance <= 1e-13
    assert np.abs(res.rotation - o.T).max() <= 3e-14


def test_register_rejects_mismatched_grids(grid16, grid32):
    f1 = gen_surface("sphere", grid16)
    f2 = gen_surface("sphere", grid32)
    with pytest.raises(ValueError, match="grid"):
        register(f1, f2, OPTS)


# Fixed ids, so a case keeps its name when others are added or removed.
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"max_iters": -3}, id="bad1"),
        pytest.param({"rounds": -1}, id="bad2"),
        pytest.param({"tol_rel": -1e-6}, id="bad3"),
        pytest.param({"tol_rel": float("nan")}, id="bad4"),
        pytest.param({"max_iters": 2.5}, id="bad11"),
        pytest.param({"max_iters": True}, id="bad12"),
        pytest.param({"rounds": 2.0}, id="bad13"),
        pytest.param({"tol_rel": True}, id="bad14"),
        pytest.param({"tol_rel": "1e-4"}, id="bad15"),
    ],
)
def test_registration_opts_reject_values_that_disable_the_search(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        RegistrationOpts(**bad)


def test_registration_opts_accept_the_boundary_values():
    RegistrationOpts(max_iters=0, rounds=0, tol_rel=0.0)
