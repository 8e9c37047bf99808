"""Square-root normal fields and their reparameterization action.

The transform divides each unnormalized surface normal by the square
root of its length, which turns reparameterization into an L² isometry:
composing with a sphere diffeomorphism and scaling by the square root of
its Jacobian determinant leaves the norm unchanged in the continuum.

This module holds the one implementation of that action and of its pole
smoothing; the registration objective reuses both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffeos import Diffeo, jacobian_from_angles
from .errors import OrientationError
from .grids import (
    SphericalGrid,
    Surface,
    _padded_sample,
    _per_component,
    _pole_padded,
    normal_field,
    sphere_to_angles,
)

DEGENERACY_FLOOR = 1e-12

__all__ = ["SrnfField", "srnf", "srnf_action", "inner", "norm", "DEGENERACY_FLOOR"]


@dataclass
class SrnfField:
    """Per-node vector field q(s) = n(s) / |n(s)|^{1/2} on a spherical grid."""

    grid: SphericalGrid
    q: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.q, dtype=float)
        if arr.shape != (self.grid.n_v, self.grid.n_u, 3):
            raise ValueError(
                f"field shape {arr.shape} does not match grid "
                f"({self.grid.n_v}, {self.grid.n_u}, 3)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("SRNF field contains non-finite values")
        self.q = arr


def srnf(f: Surface) -> SrnfField:
    """Square-root normal field of a surface.

    Normal lengths are floored at DEGENERACY_FLOOR before the square
    root, so flat patches yield (near-)zero field values instead of NaNs.
    """
    n = normal_field(f)
    mag = np.sqrt((n * n).sum(axis=-1))
    q = n / np.sqrt(np.maximum(mag, DEGENERACY_FLOOR))[..., None]
    return SrnfField(grid=f.grid, q=q)


def inner(q1: SrnfField, q2: SrnfField) -> float:
    """L² inner product with the flat dtheta dphi parameter measure."""
    if not q1.grid.same_dims(q2.grid):
        raise ValueError("fields must share grid dimensions")
    return float((q1.q * q2.q).sum() * q1.grid.cell_measure)


def norm(q: SrnfField) -> float:
    return float(np.sqrt(max(inner(q, q), 0.0)))


def _pole_smoothed(grid: SphericalGrid, q: np.ndarray) -> np.ndarray:
    """q / sqrt(sin phi): the field the action interpolates.

    That factor carries the square-root vanishing of q toward the poles,
    so the remaining field is smooth and bilinear interpolation stays
    second order up to the pole rows.
    """
    return q / np.sqrt(grid.sin_phi)[:, None, None]


def _sampled_field(grid: SphericalGrid, q: np.ndarray) -> np.ndarray:
    """`_pole_smoothed` q, padded for sampling (`grids._pole_padded`).

    A search samples this one field at every map it tries, so it pads
    the field once.
    """
    return _pole_padded(_pole_smoothed(grid, q))


def _action_values(
    grid: SphericalGrid, padded: np.ndarray, theta: np.ndarray, phi: np.ndarray,
    jac: np.ndarray
) -> np.ndarray:
    """Raw action values sqrt(max(J, 0) sin phi_grid) * smooth(gamma(s)), no checks.

    padded is `_sampled_field` q; theta, phi and jac are the image angles
    and area-ratio Jacobian of one map or a stack of maps.
    """
    values = _padded_sample(grid, padded, theta, phi)
    root = np.maximum(jac, 0.0)
    root *= grid.sin_phi[:, None]
    np.sqrt(root, out=root)
    values *= _per_component(root, values.shape[-1])
    return values


def srnf_action(q: SrnfField, g: Diffeo) -> SrnfField:
    """Reparameterization action (q ⋆ gamma)(s) = sqrt(J(s)) q(gamma(s)).

    With J the determinant of the image angles over the grid angles, the
    change of variables for the flat dtheta dphi measure of the inner
    product, the action preserves the norm.  It is computed as
    sqrt(J_area sin phi_grid) times the pole-smoothed field at gamma(s),
    with J_area from `jacobian_from_angles`, which is the same product.
    Raises OrientationError when J_area is not positive at every node.
    """
    if not q.grid.same_dims(g.grid):
        raise ValueError("field and diffeo must share grid dimensions")
    jac = jacobian_from_angles(q.grid, g.image)
    if jac.min() <= 0.0:
        raise OrientationError("diffeo is not orientation preserving at some node")
    theta, phi = sphere_to_angles(g.image)
    padded = _sampled_field(q.grid, q.q)
    return SrnfField(grid=q.grid, q=_action_values(q.grid, padded, theta, phi, jac))
