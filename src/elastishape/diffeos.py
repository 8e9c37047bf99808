"""Discrete orientation-preserving diffeomorphisms of the sphere.

A diffeomorphism is stored as its image: one unit vector per grid node.
Its area-ratio Jacobian determinant (identity map has determinant one
everywhere) comes from central differences of those 3-vectors, see
`jacobian_from_angles`; the orientation checks and the SRNF action read
that one determinant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import OrientationError
from .grids import (
    SphericalGrid,
    Surface,
    _per_component,
    _periodic_diff,
    _polar_diff,
    bilinear_sample,
    sphere_to_angles,
)
from .sphharm import tangent_basis

__all__ = [
    "Diffeo",
    "identity_diffeo",
    "jacobian_det",
    "random_diffeo",
    "pullback",
    "flow_step",
]

logger = logging.getLogger(__name__)

RANDOM_FLOW_COUNT = 5
RANDOM_FLOW_DEGREE = 3
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


def _image_det(image: np.ndarray) -> np.ndarray:
    """gamma . (gamma_phi x gamma_theta) from the unscaled grid stencils,
    in the order of np.cross and of numpy's sum over the components."""
    a0, a1, a2 = _polar_diff(image).transpose(2, 0, 1)
    b0, b1, b2 = _periodic_diff(image).transpose(2, 0, 1)
    g0, g1, g2 = image.transpose(2, 0, 1)
    det = (a1 * b2 - a2 * b1) * g0
    det += (a2 * b0 - a0 * b2) * g1
    det += (a0 * b1 - a1 * b0) * g2
    return det


# Image shape -> `_image_det` of the identity map, filled on first use;
# threads racing on a first use store equal arrays.
_IDENTITY_DET: dict = {}


def jacobian_from_angles(grid: SphericalGrid, image: np.ndarray) -> np.ndarray:
    """Area-ratio Jacobian determinant of a sphere map, from its image.

    J = gamma . (gamma_phi x gamma_theta) from central differences of the
    image's unit 3-vectors (periodic in azimuth, one-sided on the end
    rows), divided node by node by its value for the identity map; the
    grid steps cancel.  The identity gives exactly one, and a rotation
    one to rounding.  No angle of the image enters, so the gate holds
    where the image passes near a pole, and a fold on an end row shows.

    The name is kept from an earlier angle stencil: `bench/layers.py`
    counts objective evaluations as calls of `jacobian_from_angles`
    through the `registration` namespace, one per map.
    """
    ident = _IDENTITY_DET.get(image.shape)
    if ident is None:
        ident = _IDENTITY_DET[image.shape] = _image_det(grid.nodes())
    return _image_det(image) / ident


def jacobian_det(g: Diffeo) -> np.ndarray:
    """Per-node Jacobian determinant, area-ratio convention (identity -> 1)."""
    return jacobian_from_angles(g.grid, g.image)


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


def random_diffeo(grid: SphericalGrid, seed: int, magnitude: float) -> Diffeo:
    """Random smooth diffeomorphism built from seeded harmonic flows.

    Composes RANDOM_FLOW_COUNT small flows.  Each flow draws one normal
    coefficient per tangent-basis field of degree up to RANDOM_FLOW_DEGREE
    and is then rescaled so its largest pointwise displacement is
    magnitude / RANDOM_FLOW_COUNT, so magnitude bounds the total angular
    displacement.  If the result fails the orientation check the magnitude
    is halved and the draw repeated, up to 10 times; each retry is logged
    at INFO with the seed and the new magnitude, since the map then moves
    less than asked.

    Deterministic for a fixed (seed, magnitude, grid).
    """
    rng = np.random.default_rng(seed)
    base = grid.nodes()
    mag = float(magnitude)
    for attempt in range(_MAX_RETRIES):
        if attempt:
            mag *= 0.5
            logger.info("random diffeo seed %d folded; retrying at magnitude %g", seed, mag)
        pts = base
        for _k in range(RANDOM_FLOW_COUNT):
            fields = tangent_basis(pts, RANDOM_FLOW_DEGREE)
            coeffs = rng.normal(size=fields.shape[0])
            velocity = np.tensordot(coeffs, fields, axes=1)
            speed = np.sqrt((velocity * velocity).sum(axis=-1)).max()
            if speed > 0:
                velocity *= mag / (RANDOM_FLOW_COUNT * speed)
            pts = flow_step(pts, velocity)
        if jacobian_from_angles(grid, pts).min() > 0.0:
            return Diffeo(grid=grid, image=pts)
    raise OrientationError(
        f"random diffeo generation failed orientation check after "
        f"{_MAX_RETRIES} retries (seed={seed}, magnitude={magnitude})"
    )
