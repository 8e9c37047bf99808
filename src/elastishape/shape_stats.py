"""Statistics on registered surface cohorts.

Linear geodesic interpolation between registered surfaces, the iterative
mean-shape algorithm, principal component analysis of surface deviations
with scores, reconstruction, cumulative variance, and deformation paths
along principal directions.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grids import Surface
from .registration import RegistrationOpts, register

logger = logging.getLogger(__name__)

KARCHER_OUTER_ITERS = 5

__all__ = [
    "ShapeModel",
    "KarcherResult",
    "geodesic",
    "register_cohort",
    "karcher_mean",
    "shape_pca",
    "pc_scores",
    "reconstruct",
    "cumulative_variance",
    "pc_path",
    "diff_field",
]


@dataclass
class ShapeModel:
    """PCA model of a registered cohort.

    directions[d] is the d-th unit direction in flattened surface space
    (length 3 * n_u * n_v); singulars are the matching data-matrix
    singular values, non-increasing.
    """

    mean: Surface
    directions: np.ndarray
    singulars: np.ndarray
    n_train: int

    @property
    def n_directions(self) -> int:
        return len(self.singulars)


@dataclass
class KarcherResult:
    mean: Surface
    registered: list
    init_index: int
    variance_trace: list = field(default_factory=list)


def geodesic(f1: Surface, f2_star: Surface, tau: float) -> Surface:
    """Point on the linear path between registered surfaces at time tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if not f1.grid.same_dims(f2_star.grid):
        raise ValueError("surfaces must share grid dimensions")
    return Surface(
        grid=f1.grid, points=(1.0 - tau) * f1.points + tau * f2_star.points
    )


def register_cohort(
    template: Surface, surfaces: list, opts=None, threads: int = 1
) -> list:
    """Register every surface to a common template, optionally threaded."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda f: register(template, f, opts), surfaces))
    return [register(template, f, opts) for f in surfaces]


def karcher_mean(
    surfaces: list,
    opts: RegistrationOpts | None = None,
    init_index: int = 0,
    seed: int | None = None,
    threads: int = 1,
) -> KarcherResult:
    """Iterative mean shape of a cohort.

    Starts from a designated surface (init_index, or a seeded random pick
    when seed is given), then runs a fixed number of outer iterations,
    each registering every surface to the current mean and replacing the
    mean with the arithmetic mean of the registered surfaces.  A final
    registration pass aligns all inputs to the converged mean.  The
    summed squared distances per iteration are logged and returned.
    """
    if len(surfaces) < 1:
        raise ValueError("need at least one surface")
    grid = surfaces[0].grid
    if not all(f.grid.same_dims(grid) for f in surfaces):
        raise ValueError("all surfaces must share grid dimensions")
    if seed is not None:
        init_index = int(np.random.default_rng(seed).integers(len(surfaces)))
    mean = surfaces[init_index]

    variance_trace = []
    for it in range(KARCHER_OUTER_ITERS):
        results = register_cohort(mean, surfaces, opts, threads)
        variance = float(sum(r.distance**2 for r in results))
        variance_trace.append(variance)
        logger.info("mean-shape iteration %d: variance %.6e", it + 1, variance)
        stacked = np.stack([r.aligned.points for r in results])
        mean = Surface(grid=grid, points=stacked.mean(axis=0))

    final = register_cohort(mean, surfaces, opts, threads)
    variance = float(sum(r.distance**2 for r in final))
    variance_trace.append(variance)
    logger.info("mean-shape final pass: variance %.6e", variance)
    return KarcherResult(
        mean=mean,
        registered=[r.aligned for r in final],
        init_index=init_index,
        variance_trace=variance_trace,
    )


def _principal_axes(samples: list, mean: np.ndarray):
    """Unit principal directions (rows) and singular values of samples about mean.

    The covariance is the plain sum of outer products of the deviation
    vectors; directions and singular values come from the economy SVD of
    the stacked data matrix, which is the numerically preferred route to
    the same eigenvectors.  `baseline.vertex_pca` uses it too.
    """
    data = np.stack([x - mean for x in samples], axis=1)
    u, s, _ = np.linalg.svd(data, full_matrices=False)
    return u.T.copy(), s


def shape_pca(registered: list, mean: Surface) -> ShapeModel:
    """PCA of flattened deviations from the mean (see `_principal_axes`)."""
    if len(registered) < 2:
        raise ValueError("need at least two surfaces for PCA")
    if not all(f.grid.same_dims(mean.grid) for f in registered):
        raise ValueError("all surfaces must share the mean's grid dimensions")
    directions, singulars = _principal_axes([f.flat() for f in registered], mean.flat())
    return ShapeModel(
        mean=mean, directions=directions, singulars=singulars, n_train=len(registered)
    )


def pc_scores(f: Surface, model: ShapeModel, d: int) -> np.ndarray:
    """First d principal scores of a registered surface."""
    if not 0 <= d <= model.n_directions:
        raise ValueError(f"d={d} out of range (0..{model.n_directions})")
    deviation = f.flat() - model.mean.flat()
    return model.directions[:d] @ deviation


def reconstruct(z: np.ndarray, model: ShapeModel) -> Surface:
    """Mean plus score-weighted principal directions."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or len(z) > model.n_directions:
        raise ValueError("score vector longer than stored directions")
    flat = model.mean.flat() + z @ model.directions[: len(z)]
    grid = model.mean.grid
    return Surface(grid=grid, points=flat.reshape(grid.n_v, grid.n_u, 3))


def cumulative_variance(model, use_squared: bool = False) -> np.ndarray:
    """Running fraction of total singular value captured by the first d.

    model is a ShapeModel or a vertex-wise `baseline.PointModel`.  The
    default follows the singular-value proportion convention; set
    use_squared for the eigenvalue (variance) convention.
    """
    if len(model.singulars) == 0:
        raise ValueError("model has no singular values")
    vals = model.singulars**2 if use_squared else model.singulars
    total = float(vals.sum())
    if total <= 0.0:
        return np.ones(len(vals))
    return np.cumsum(vals) / total


def pc_path(model: ShapeModel, d: int, t_values) -> list:
    """Deformation path mean + t * sigma_d * direction_d (d zero-based)."""
    if not 0 <= d < model.n_directions:
        raise ValueError(f"direction {d} out of range (0..{model.n_directions - 1})")
    grid = model.mean.grid
    step = model.singulars[d] * model.directions[d]
    return [
        Surface(
            grid=grid,
            points=(model.mean.flat() + float(t) * step).reshape(
                grid.n_v, grid.n_u, 3
            ),
        )
        for t in t_values
    ]


def diff_field(f_hat: Surface, f: Surface) -> np.ndarray:
    """Per-node Euclidean distance between two surfaces, shape (n_v, n_u)."""
    if not f_hat.grid.same_dims(f.grid):
        raise ValueError("surfaces must share grid dimensions")
    delta = f_hat.points - f.points
    return np.sqrt((delta * delta).sum(axis=-1))
