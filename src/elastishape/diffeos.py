"""Discrete orientation-preserving diffeomorphisms of the sphere.

A diffeomorphism is stored as its image: one unit vector per grid node.
Its Jacobian determinant is computed by central differences of the
spherical coordinates of the image on rows 2 to n_v - 3 and extrapolated
onto the two rows nearest each pole.  One pass of those derivatives
gives both determinants the package uses: the area-ratio one (identity
map has determinant one everywhere), which the orientation checks read,
and the coordinate one, which the SRNF action needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrientationError
from .grids import (
    SphericalGrid,
    Surface,
    _per_component,
    bilinear_sample,
    sphere_to_angles,
)
from .sphharm import tangent_basis

__all__ = [
    "Diffeo",
    "identity_diffeo",
    "compose",
    "jacobian_det",
    "random_diffeo",
    "pullback",
    "flow_step",
]

RANDOM_FLOW_COUNT = 5
_MAX_RETRIES = 10


@dataclass
class Diffeo:
    """Sphere diffeomorphism sampled on a grid: image[j, i] = gamma(s_ji)."""

    grid: SphericalGrid
    image: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=float)
        if img.shape != (self.grid.n_v, self.grid.n_u, 3):
            raise ValueError(
                f"image shape {img.shape} does not match grid "
                f"({self.grid.n_v}, {self.grid.n_u}, 3)"
            )
        norms = np.sqrt((img * img).sum(axis=-1))
        if not np.all(np.isfinite(img)) or np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("diffeo image vectors must be finite unit vectors")
        self.image = img


def identity_diffeo(grid: SphericalGrid) -> Diffeo:
    return Diffeo(grid=grid, image=grid.nodes())


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    """Map angle differences to (-pi, pi], in place; returns d."""
    turns = d / (2.0 * np.pi)
    np.rint(turns, out=turns)
    turns *= 2.0 * np.pi
    d -= turns
    return d


def _extrapolate_pole_rows(jac: np.ndarray) -> np.ndarray:
    """Replace the two rows nearest each pole by quadratic extrapolation.

    The azimuth of the image swings rapidly where the image approaches a
    pole, which happens systematically on these rows, and the difference
    stencils lose accuracy there. The determinant itself is smooth across
    the poles, so extrapolating it in the polar angle from the three
    adjacent interior rows is exact for constant fields and third order
    for smooth ones:

    - rows 0 and n_v - 1: 6 r2 - 8 r3 + 3 r4, from rows 2-4 and n_v-3..n_v-5;
    - rows 1 and n_v - 2: 3 r2 - 3 r3 + r4, from the same rows.

    Both poles go together: every operation acts on one row pair, one row
    near each pole.  Works in place on the rows (axis -2) of one field or
    a stack of fields, and returns jac.  The source rows are disjoint
    from the replaced ones on every grid (at least 8 rows).
    """
    n_v = jac.shape[-2]
    src = jac.take([2, n_v - 3, 3, n_v - 4, 4, n_v - 5], axis=-2)
    r2, r3, r4 = src[..., 0:2, :], src[..., 2:4, :], src[..., 4:6, :]
    outer = jac[..., ::n_v - 1, :]
    inner = jac[..., 1:n_v - 1:n_v - 3, :]
    np.multiply(r2, 6.0, out=outer)
    part = r3 * 8.0
    outer -= part
    np.multiply(r4, 3.0, out=part)
    outer += part
    np.multiply(r2, 3.0, out=inner)
    np.multiply(r3, 3.0, out=part)
    inner -= part
    inner += r4
    return jac


def jacobian_from_angles(
    grid: SphericalGrid, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both Jacobian determinants from precomputed image angles.

    Returns (area, coord).  coord is the determinant of the image angles
    with respect to the grid angles: the change-of-variables factor for
    the flat dtheta dphi measure that the SRNF inner product uses, so it
    is the factor that makes the reparameterization action an isometry.
    area is the area-ratio convention, coord times sin(image polar) /
    sin(grid polar).

    Rows 2 to n_v - 3 are central differences; rows 0, 1, n_v - 2 and
    n_v - 1 are extrapolated from them.  So image rows 0 and n_v - 1
    enter neither determinant, and a fold confined to them goes unseen.

    Rows 1 to n_v - 2 of both angles go into one buffer, padded by one
    column on each side with the opposite end column, so each stencil
    direction is one subtraction over both angles and the azimuth needs
    no separate wrap columns.
    """
    n_v, n_u = theta.shape
    ang = np.empty((2, n_v - 2, n_u + 2))
    ang[0, :, 1:-1] = theta[1:-1]
    ang[1, :, 1:-1] = phi[1:-1]
    ang[:, :, 0] = ang[:, :, -2]
    ang[:, :, -1] = ang[:, :, 1]
    # diffs[0] along the azimuth, diffs[1] along the polar angle, each of
    # (theta, phi) on rows 2 to n_v - 3; only theta differences wrap.
    diffs = np.empty((2, 2, n_v - 4, n_u))
    np.subtract(ang[:, 1:-1, 2:], ang[:, 1:-1, :-2], out=diffs[0])
    np.subtract(ang[:, 2:, 1:-1], ang[:, :-2, 1:-1], out=diffs[1])
    _wrap_angle(diffs[:, 0])
    diffs[0] /= 2.0 * grid.d_theta
    diffs[1] /= 2.0 * grid.d_phi
    (t_u, p_u), (t_v, p_v) = diffs
    jac = np.empty((2,) + theta.shape)
    area, det = jac[:, 2:-2]
    np.multiply(t_u, p_v, out=det)
    t_v *= p_u
    det -= t_v
    np.sin(phi[2:-2], out=area)
    area /= grid.sin_phi[2:-2, None]
    area *= det
    _extrapolate_pole_rows(jac)
    return jac[0], jac[1]


def jacobian_det_of_image(grid: SphericalGrid, image: np.ndarray) -> np.ndarray:
    """Area-ratio Jacobian determinant field of a sphere map given its image."""
    theta, phi = sphere_to_angles(image)
    return jacobian_from_angles(grid, theta, phi)[0]


def jacobian_det(g: Diffeo) -> np.ndarray:
    """Per-node Jacobian determinant, area-ratio convention (identity -> 1)."""
    return jacobian_det_of_image(g.grid, g.image)


def compose(g1: Diffeo, g2: Diffeo) -> Diffeo:
    """Composition (g1 after g2): s -> g1(g2(s)), by spherical interpolation.

    Raises OrientationError when the composed map has a non-positive
    Jacobian determinant at any node.
    """
    if not g1.grid.same_dims(g2.grid):
        raise ValueError("diffeos must share grid dimensions")
    theta, phi = sphere_to_angles(g2.image)
    img = bilinear_sample(g1.grid, g1.image, theta, phi)
    img = img / np.sqrt((img * img).sum(axis=-1))[..., None]
    out = Diffeo(grid=g1.grid, image=img)
    if jacobian_det(out).min() <= 0.0:
        raise OrientationError("composed map is not orientation preserving")
    return out


def pullback(f: Surface, g: Diffeo) -> Surface:
    """The reparameterized surface f∘gamma, sampled by spherical interpolation."""
    if not f.grid.same_dims(g.grid):
        raise ValueError("surface and diffeo must share grid dimensions")
    theta, phi = sphere_to_angles(g.image)
    return Surface(grid=f.grid, points=bilinear_sample(f.grid, f.points, theta, phi))


def flow_step(points: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Move points along a tangent velocity field and re-project to S²."""
    moved = points + velocity
    sq = moved * moved
    # (x^2 + y^2) + z^2: the order of numpy's sum over a length-3 axis
    norms = sq[..., 0] + sq[..., 1]
    norms += sq[..., 2]
    np.sqrt(norms, out=norms)
    moved /= _per_component(norms, 3)
    return moved


def random_diffeo(
    grid: SphericalGrid, seed: int, magnitude: float, max_degree: int = 3
) -> Diffeo:
    """Random smooth diffeomorphism built from seeded harmonic flows.

    Composes RANDOM_FLOW_COUNT small flows.  Each flow draws one normal
    coefficient per tangent-basis field and is then rescaled so its
    largest pointwise displacement is magnitude / RANDOM_FLOW_COUNT, so
    magnitude bounds the total angular displacement.  If the result
    fails the orientation check the magnitude is halved and the draw
    repeated, up to 10 times.

    Deterministic for a fixed (seed, magnitude, max_degree, grid).
    """
    rng = np.random.default_rng(seed)
    base = grid.nodes()
    mag = float(magnitude)
    for _ in range(_MAX_RETRIES):
        pts = base
        for _k in range(RANDOM_FLOW_COUNT):
            fields = tangent_basis(pts, max_degree)
            coeffs = rng.normal(size=fields.shape[0])
            velocity = np.tensordot(coeffs, fields, axes=1)
            speed = np.sqrt((velocity * velocity).sum(axis=-1)).max()
            if speed > 0:
                velocity *= mag / (RANDOM_FLOW_COUNT * speed)
            pts = flow_step(pts, velocity)
        if jacobian_det_of_image(grid, pts).min() > 0.0:
            return Diffeo(grid=grid, image=pts)
        mag *= 0.5
    raise OrientationError(
        f"random diffeo generation failed orientation check after "
        f"{_MAX_RETRIES} retries (seed={seed}, magnitude={magnitude})"
    )
