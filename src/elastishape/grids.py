"""Cell-centered spherical grids and sampled closed surfaces.

A surface is a map from the unit sphere into 3-space, sampled on a
rectangular (azimuth x polar) grid.  The polar rows are cell centered so
no node sits on a pole: every quadrature weight stays positive and the
normal field is well defined at every node.  Azimuth is periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ZeroAreaError

MIN_GRID_DIM = 8

__all__ = [
    "SphericalGrid",
    "Surface",
    "make_grid",
    "partials",
    "normal_field",
    "surface_area",
    "normalize",
    "angles_to_sphere",
    "sphere_to_angles",
    "bilinear_sample",
]


@dataclass(frozen=True)
class SphericalGrid:
    """Uniform azimuth / cell-centered polar sampling of the sphere.

    Attributes
    ----------
    n_u : int
        Node count in azimuth (columns).  theta_i = i * 2*pi / n_u.
    n_v : int
        Node count in polar angle (rows).  phi_j = (j + 0.5) * pi / n_v.
    theta : ndarray, shape (n_u,)
    phi : ndarray, shape (n_v,)
    """

    n_u: int
    n_v: int
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)

    @property
    def d_theta(self) -> float:
        return 2.0 * np.pi / self.n_u

    @property
    def d_phi(self) -> float:
        return np.pi / self.n_v

    @cached_property
    def sin_phi(self) -> np.ndarray:
        """sin(phi) of every row, computed once per grid."""
        out = np.sin(self.phi)
        out.setflags(write=False)
        return out

    @property
    def cell_measure(self) -> float:
        """Flat parameter-domain measure dtheta * dphi of one cell."""
        return self.d_theta * self.d_phi

    def nodes(self) -> np.ndarray:
        """Unit position vectors of all grid nodes, shape (n_v, n_u, 3)."""
        th, ph = np.meshgrid(self.theta, self.phi)
        return angles_to_sphere(th, ph)

    def same_dims(self, other: "SphericalGrid") -> bool:
        return self.n_u == other.n_u and self.n_v == other.n_v


def make_grid(n_u: int, n_v: int) -> SphericalGrid:
    """Build the cell-centered spherical grid.

    Raises ValueError when either dimension is below the minimum of 8.
    """
    if n_u < MIN_GRID_DIM or n_v < MIN_GRID_DIM:
        raise ValueError(
            f"grid dimensions ({n_u}, {n_v}) below minimum "
            f"({MIN_GRID_DIM}, {MIN_GRID_DIM})"
        )
    theta = np.arange(n_u) * (2.0 * np.pi / n_u)
    phi = (np.arange(n_v) + 0.5) * (np.pi / n_v)
    theta.setflags(write=False)
    phi.setflags(write=False)
    return SphericalGrid(n_u=n_u, n_v=n_v, theta=theta, phi=phi)


@dataclass
class Surface:
    """Sampled closed surface: one 3D point per grid node.

    points has shape (n_v, n_u, 3), polar rows first.
    """

    grid: SphericalGrid
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.grid.n_v, self.grid.n_u, 3):
            raise ValueError(
                f"points shape {pts.shape} does not match grid "
                f"({self.grid.n_v}, {self.grid.n_u}, 3)"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("surface points contain non-finite values")
        self.points = pts

    def flat(self) -> np.ndarray:
        """Points flattened to a vector of length 3 * n_u * n_v (v-major)."""
        return self.points.reshape(-1)

    def with_points(self, points: np.ndarray) -> "Surface":
        return Surface(grid=self.grid, points=points)


def _periodic_diff(values: np.ndarray) -> np.ndarray:
    """values[:, i + 1] - values[:, i - 1] along the periodic axis 1."""
    out = np.empty_like(values)
    np.subtract(values[:, 2:], values[:, :-2], out=out[:, 1:-1])
    np.subtract(values[:, 1:2], values[:, -1:], out=out[:, :1])
    np.subtract(values[:, :1], values[:, -2:-1], out=out[:, -1:])
    return out


def _polar_diff(values: np.ndarray) -> np.ndarray:
    """values[j + 1] - values[j - 1] along axis 0, and on the end rows the
    one-sided second-order stencils with the same scale."""
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[0] = -3.0 * values[0] + 4.0 * values[1] - values[2]
    out[-1] = 3.0 * values[-1] - 4.0 * values[-2] + values[-3]
    return out


def _d_du(values: np.ndarray, d_theta: float) -> np.ndarray:
    """Central difference along the periodic azimuth axis (axis 1)."""
    out = _periodic_diff(values)
    out /= 2.0 * d_theta
    return out


def _d_dv(values: np.ndarray, d_phi: float) -> np.ndarray:
    """Second-order difference along the polar axis (axis 0)."""
    out = _polar_diff(values)
    out /= 2.0 * d_phi
    return out


def partials(f: Surface) -> tuple[np.ndarray, np.ndarray]:
    """Per-node tangent vectors (f_u, f_v) by finite differences."""
    g = f.grid
    return _d_du(f.points, g.d_theta), _d_dv(f.points, g.d_phi)


def normal_field(f: Surface) -> np.ndarray:
    """Unnormalized normal n(s) = f_u x f_v at every node, shape (n_v, n_u, 3)."""
    f_u, f_v = partials(f)
    return np.cross(f_u, f_v)


def surface_area(f: Surface) -> float:
    """Total area: quadrature of |n| over the parameter domain."""
    n = normal_field(f)
    return float(np.sqrt((n * n).sum(axis=-1)).sum() * f.grid.cell_measure)


def normalize(f: Surface, unit_scale: bool = False) -> Surface:
    """Remove translation (area-weighted centroid) and optionally scale.

    The centroid weights each node by its local area element, so the
    result does not depend on how densely the parameterization covers a
    region.  With unit_scale the points are divided by sqrt(area), which
    makes the total area 1.

    Raises ZeroAreaError when unit_scale is requested on a degenerate
    surface.
    """
    n = normal_field(f)
    dens = np.sqrt((n * n).sum(axis=-1)) * f.grid.cell_measure
    area = float(dens.sum())
    if area <= 0.0:
        if unit_scale:
            raise ZeroAreaError("cannot rescale a surface with zero area")
        centroid = f.points.reshape(-1, 3).mean(axis=0)
    else:
        centroid = (f.points * dens[..., None]).reshape(-1, 3).sum(axis=0) / area
    pts = f.points - centroid
    if unit_scale:
        pts = pts / np.sqrt(area)
    return Surface(grid=f.grid, points=pts)


def angles_to_sphere(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors from azimuth theta and polar angle phi (stacked last axis)."""
    st = np.sin(phi)
    return np.stack([st * np.cos(theta), st * np.sin(theta), np.cos(phi)], axis=-1)


def sphere_to_angles(
    points: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth in [0, 2*pi] and polar angle in [0, pi] of unit vectors.

    points holds the vectors along its last axis, which may be a view of
    component planes.  out, of shape (2,) + points.shape[:-1], receives
    theta and phi; it is fresh when not given.
    """
    if out is None:
        out = np.empty((2,) + points.shape[:-1])
    # Indexing with ... keeps a single (3,) point's angles 0-d arrays.
    theta, phi = out[0, ...], out[1, ...]
    np.arctan2(points[..., 1], points[..., 0], out=theta)
    # np.mod(theta, 2 pi) on the arctan2 range [-pi, pi], bit for bit:
    # the 0.0 added turns -0.0 into +0.0 as np.mod does, and negative
    # angles gain 2 pi (a tiny one rounds to 2 pi itself).
    theta += 0.0
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
    np.maximum(points[..., 2], -1.0, out=phi)
    np.minimum(phi, 1.0, out=phi)
    np.arccos(phi, out=phi)
    return theta, phi


def _pole_padded(values: np.ndarray) -> np.ndarray:
    """values as component planes, with a row across each pole and
    column 0 repeated last.

    values has shape (n_v, n_u) + tail, and the result tail + (n_v + 2,
    n_u + 1).  Across a pole, polar angle -dphi / 2 is row 0 at azimuth
    theta + pi, and pi + dphi / 2 is row n_v - 1 there; these become rows
    0 and n_v + 1.  For odd n_u, theta + pi falls midway between two
    columns, and the row across takes their mean.
    """
    n_v, n_u = values.shape[:2]
    planes = np.moveaxis(values, (0, 1), (-2, -1))
    padded = np.empty(planes.shape[:-2] + (n_v + 2, n_u + 1))
    padded[..., 1:-1, :-1] = planes
    ends = planes[..., ::n_v - 1, :]
    half = n_u // 2
    across = padded[..., ::n_v + 1, :-1]
    across[:] = np.roll(ends, -half, axis=-1)
    if n_u % 2:
        across += np.roll(ends, -half - 1, axis=-1)
        across *= 0.5
    padded[..., -1] = padded[..., 0]
    return padded


def bilinear_sample(
    grid: SphericalGrid, values: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of a grid field at sphere angles.

    Periodic in azimuth.  In the polar direction the half-cell band at
    each pole interpolates across the pole, towards the end row at the
    opposite azimuth (see `_pole_padded`), so the sampled field has no
    seam at the poles.  theta is any azimuth, phi a polar angle in
    [0, pi].  values has shape (n_v, n_u, ...) and the result has shape
    theta.shape + values.shape[2:].
    """
    planes = _padded_sample(grid, _pole_padded(values), theta, phi)
    k = values.ndim - 2
    return np.moveaxis(planes, range(k), range(-k, 0)).copy()


def _padded_sample(
    grid: SphericalGrid, padded: np.ndarray, theta: np.ndarray, phi: np.ndarray, out=None,
    work=None
) -> np.ndarray:
    """`bilinear_sample` of a field already padded by `_pole_padded`, so a
    caller that samples one field many times pads it once.

    Returns component planes, of shape tail + theta.shape for a padded
    field of shape tail + (n_v + 2, n_u + 1): the node weights then
    broadcast along the leading axes.  out receives the planes, and work,
    of shape (6 + prod(tail),) + theta.shape, holds the weights, the
    indices and one corner's values; each is fresh when not given.
    """
    tail = padded.shape[:-2]
    count = math.prod(tail)
    # At least one axis, so that work's rows are arrays for scalar angles.
    shape = np.shape(theta) or (1,)
    if work is None:
        work = np.empty((6 + count,) + shape)
    if out is None:
        out = np.empty(tail + shape)
    au, av, bu, bv, low = work[:5]
    at = work[5].view(np.intp)
    part = work[6:6 + count]

    # The azimuth fraction au, and the cell's column, wrapped.
    np.divide(theta, grid.d_theta, out=au)
    np.floor(au, out=low)
    au -= low
    np.copyto(at, low, casting="unsafe")
    np.remainder(at, grid.n_u, out=at)
    # Row position among the padded rows: grid row j sits at j + 1.
    np.divide(phi, grid.d_phi, out=av)
    av += 0.5
    np.floor(av, out=low)
    av -= low
    np.subtract(1.0, au, out=bu)
    np.subtract(1.0, av, out=bv)

    # Gather from the padded grid, flattened: node (j, i) sits at
    # j * width + i, so its azimuth neighbour i + 1 is the next entry
    # with no wrap, and the same node on row j + 1 is width entries on.
    # The integer-valued doubles make that index exactly.
    width = grid.n_u + 1
    low *= width
    low += at
    np.copyto(at, low, casting="unsafe")
    flat = padded.reshape(count, -1)
    res = out.reshape((count,) + shape)
    # The indices are in range for phi in [0, pi], and "clip" lets take
    # write into out without the buffer that the default "raise" mode adds.
    flat.take(at, axis=1, out=res, mode="clip")
    res *= bu
    res *= bv
    flat[:, 1:].take(at, axis=1, out=part, mode="clip")
    part *= au
    part *= bv
    res += part
    flat[:, width:].take(at, axis=1, out=part, mode="clip")
    part *= bu
    part *= av
    res += part
    flat[:, width + 1:].take(at, axis=1, out=part, mode="clip")
    part *= au
    part *= av
    res += part
    return out.reshape(tail + np.shape(theta))
