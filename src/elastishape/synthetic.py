"""Seeded generators for analytic shapes and the two synthetic study cohorts.

Everything here is deterministic given the seed.  The shape-line cohort
of `simulate` and `compare` (`shape_line_cohort`) puts two classes on one
seeded radial direction around a seeded bumpy mean.  The regression
cohort (`gen_regression_cohort`) gives surfaces, covariates and planted
responses from a recipe, `CohortSpec`, that is built in code; no command
reads one from a file.  Its random streams are split per subject with
:class:`numpy.random.SeedSequence`, so growing a cohort never reshuffles
the subjects already generated.  The regression names are imported
where the regression cohort uses them, so `simulate` and `compare` do
not load `regression`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, NumericalError
from .grids import Surface, SphericalGrid, make_grid
from .shape_stats import ShapeModel
from .sphharm import harmonic_values

if TYPE_CHECKING:
    from .regression import CovariateTable

FAMILIES = ("sphere", "bumpy-sphere")

# Distributions of the regression cohort's scores and covariates.
SCORE_SCALE = 0.2
AGE_RANGE = (20.0, 60.0)
BDI_RANGE = (0.0, 40.0)
ICV_MEAN = 1.5e6
ICV_SD = 1.0e5

# Harmonic degree of the shape-line cohort's bumps, in its mean and its
# direction; below half of the smallest grid side (MIN_GRID_DIM 8), so
# the bumps do not alias on any allowed grid.
BUMP_DEGREE = 3

# Successive mean-shape seeds tried before a bump amplitude is rejected.
_MEAN_SEED_ATTEMPTS = 8

__all__ = [
    "CohortSpec",
    "PcaCohort",
    "RegressionCohort",
    "TrueModel",
    "gen_surface",
    "gen_regression_cohort",
    "radial_bump",
    "shape_line_cohort",
]


@dataclass(frozen=True)
class CohortSpec:
    """Recipe for a synthetic regression cohort.

    Covers the grid, the number of shape directions, the linear response
    rule with its noise level, and the seed, which fixes every random
    draw.  The base shape is the unit sphere, scores and covariates follow
    the module constants, and a subject's label is the sign of its first
    score.
    """

    n_subjects: int = 40
    n_u: int = 32
    n_v: int = 32
    n_directions: int = 3
    structure: str = "shape"
    response: str = "pss"
    true_terms: tuple = ("age", "ps(shape,1)")
    true_coefficients: tuple = (0.1, 5.0)
    intercept: float = 20.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        from .regression import RESPONSES

        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be at least 1")
        if self.response not in RESPONSES:
            raise ConfigError(f"response must be one of {RESPONSES}")
        if len(self.true_coefficients) != len(self.true_terms):
            raise ConfigError("true_coefficients and true_terms lengths differ")
        if self.n_directions < 1:
            raise ConfigError("n_directions must be at least 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if not np.all(np.isfinite([self.intercept, self.noise_sigma,
                                   *self.true_coefficients])):
            raise ConfigError("all distribution parameters must be finite")


@dataclass
class PcaCohort:
    """Surfaces on a line through shape space plus their coefficients."""

    surfaces: list
    coefficients: np.ndarray
    labels: np.ndarray


@dataclass
class TrueModel:
    """Ground truth behind a generated regression cohort."""

    response: str
    terms: list
    coefficients: np.ndarray
    noise_sigma: float
    shape_model: ShapeModel
    scores: dict


@dataclass
class RegressionCohort:
    surfaces: list
    covariates: CovariateTable
    truth: TrueModel


def radial_bump(grid: SphericalGrid, degree: int, rng=None) -> np.ndarray:
    """Sum of the real harmonics of degrees 1..degree on the grid nodes,
    (n_v, n_u).

    With an rng the harmonics are weighted by one standard_normal draw of
    their count, in `harmonic_orders` order (the same numbers as one
    scalar draw per harmonic); without one the sum is unweighted.
    """
    values = harmonic_values(grid.nodes(), degree)
    n = values.shape[0]
    weights = np.ones(n) if rng is None else rng.standard_normal(n)
    return (weights @ values.reshape(n, -1)).reshape(values.shape[1:])


def gen_surface(
    family: str,
    grid: SphericalGrid,
    amplitude: float = 0.1,
    degree: int = 2,
    seed: int | None = None,
) -> Surface:
    """Analytic surface sampled on the grid.

    Parameters
    ----------
    family : str
        "sphere" or "bumpy-sphere" (unit sphere with radial harmonic bumps
        r = 1 + amplitude * sum of the degree-1..degree harmonics).
    seed : int or None
        With a seed the bump harmonics get standard normal coefficients
        instead of the plain unweighted sum, giving seeded shape variety.
    """
    nodes = grid.nodes()
    if family == "sphere":
        return Surface(grid=grid, points=nodes)
    if family == "bumpy-sphere":
        if amplitude < 0:
            raise ConfigError("bump amplitude must be nonnegative")
        if degree < 1:
            raise ConfigError(f"bump degree must be at least 1, got {degree}")
        rng = None if seed is None else np.random.default_rng(seed)
        r = 1.0 + amplitude * radial_bump(grid, degree, rng)
        if np.any(r <= 0):
            raise ConfigError(
                f"bump amplitude {amplitude} makes the radius nonpositive"
            )
        return Surface(grid=grid, points=r[..., None] * nodes)
    raise ConfigError(f"unknown family '{family}' (one of {FAMILIES})")


def shape_line_cohort(grid: SphericalGrid, seed: int, n: int, displacement: float,
                      mean_amplitude: float):
    """Two-class cohort f_i = mean + x_i * v on one shape line, and its mean.

    The mean is a bumpy sphere of the given amplitude, with bumps of
    degree BUMP_DEGREE; it takes the first of the successive
    SeedSequence([seed, 5]) states whose bumps keep the radius positive,
    and after _MEAN_SEED_ATTEMPTS states the last ConfigError is raised.
    The bumpy mean pins the registration frame, which a rotationally
    symmetric one would leave free.  The direction v is the unit field of
    seeded harmonic bumps of the same degree along the radius
    (SeedSequence([seed, 7])).  The first (n + 1) // 2 subjects get x > 0
    (label 1), the rest x < 0 (label 0), with magnitudes drawn in
    [displacement/2, displacement] (SeedSequence([seed, 9])) so no
    subject sits on the class boundary closer than the registration
    residual can resolve.
    """
    for mean_seed in np.random.SeedSequence([seed, 5]).generate_state(_MEAN_SEED_ATTEMPTS):
        try:
            mean = gen_surface(
                "bumpy-sphere", grid, amplitude=mean_amplitude, degree=BUMP_DEGREE,
                seed=int(mean_seed),
            )
            break
        except ConfigError as exc:
            error = exc
    else:
        raise error
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    v = (radial_bump(grid, BUMP_DEGREE, rng)[..., None] * grid.nodes()).reshape(-1)
    nn = float(np.linalg.norm(v))
    if nn <= 0:
        raise NumericalError("degenerate perturbation direction")
    direction = v / nn
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    mags = (0.5 + 0.5 * rng.random(n)) * displacement
    x = np.where(np.arange(n) < (n + 1) // 2, mags, -mags)
    base = mean.flat()
    shape = mean.points.shape
    surfaces = [mean.with_points((base + xi * direction).reshape(shape)) for xi in x]
    return mean, PcaCohort(surfaces=surfaces, coefficients=x, labels=(x > 0).astype(int))


def gen_regression_cohort(spec: CohortSpec) -> RegressionCohort:
    """Cohort of surfaces, covariates, and responses with known truth.

    Surfaces are built from a seeded orthonormal set of shape directions
    around the unit sphere; responses follow the declared linear rule over
    the listed terms plus Gaussian noise, clipped into the response's
    declared range as a bounded instrument reads it, so a strict
    `regress` accepts every cohort.  The returned record carries the
    generating model so a fit can be scored against it.
    """
    from .regression import _RANGES, CovariateTable, ModelSpec, design_matrix

    grid = make_grid(spec.n_u, spec.n_v)
    mean = Surface(grid=grid, points=grid.nodes())
    n = spec.n_subjects
    k = spec.n_directions
    dim = mean.flat().shape[0]
    streams = np.random.SeedSequence(spec.seed).spawn(1 + n)

    q, _ = np.linalg.qr(
        np.random.default_rng(streams[0]).standard_normal((dim, k))
    )
    directions = q.T.copy()

    z = np.empty((n, k))
    age = np.empty(n)
    bdi = np.empty(n)
    icv = np.empty(n)
    eps = np.empty(n)
    other = np.empty(n)
    other_name = "ctqtot" if spec.response == "pss" else "pss"
    for i in range(n):
        rng = np.random.default_rng(streams[1 + i])
        z[i] = rng.standard_normal(k) * SCORE_SCALE
        age[i] = rng.uniform(*AGE_RANGE)
        bdi[i] = rng.uniform(*BDI_RANGE)
        icv[i] = rng.normal(ICV_MEAN, ICV_SD)
        eps[i] = rng.standard_normal()
        other[i] = rng.uniform(*_RANGES[other_name])

    surfaces = [
        mean.with_points((mean.flat() + directions.T @ z[i]).reshape(mean.points.shape))
        for i in range(n)
    ]
    scores = {spec.structure: z}

    table = CovariateTable(
        ids=[f"s{i:03d}" for i in range(n)],
        age=age,
        bdi=bdi,
        icv=icv,
        pss=np.zeros(n),
        ctqtot=np.zeros(n),
        label=(z[:, 0] > 0).astype(float),
    )
    try:
        tspec = ModelSpec(spec.response, ["intercept"] + list(spec.true_terms))
        x, names = design_matrix(tspec, table, scores)
    except ValueError as exc:
        raise ConfigError(f"true_terms invalid: {exc}") from exc
    beta = np.concatenate([[spec.intercept], np.asarray(spec.true_coefficients)])
    y = np.clip(x @ beta + spec.noise_sigma * eps, *_RANGES[spec.response])
    setattr(table, spec.response, y)
    setattr(table, other_name, other)

    singulars = np.sqrt((z * z).sum(axis=0))
    truth = TrueModel(
        response=spec.response,
        terms=names,
        coefficients=beta,
        noise_sigma=spec.noise_sigma,
        shape_model=ShapeModel(
            mean=mean, directions=directions, singulars=singulars, n_train=n
        ),
        scores=scores,
    )
    return RegressionCohort(surfaces=surfaces, covariates=table, truth=truth)
