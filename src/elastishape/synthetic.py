"""Seeded generators for analytic shapes and synthetic study cohorts.

Everything here is deterministic given the seed.  Random streams are
split per subject with :class:`numpy.random.SeedSequence`, so growing a
cohort never reshuffles the subjects already generated.  A cohort's
recipe, `CohortSpec`, is built in code; no command reads one from a file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import Surface, SphericalGrid, make_grid
from .regression import _RANGES, RESPONSES, CovariateTable, ModelSpec, design_matrix
from .shape_stats import ShapeModel
from .sphharm import harmonic_values

FAMILIES = ("sphere", "ellipsoid", "bumpy-sphere")
LABEL_RULES = ("score-sign", "half-split")

__all__ = [
    "CohortSpec",
    "PcaCohort",
    "RegressionCohort",
    "TrueModel",
    "gen_surface",
    "gen_pca_cohort",
    "gen_regression_cohort",
    "radial_bump",
]


@dataclass(frozen=True)
class CohortSpec:
    """Full recipe for a synthetic cohort.

    Covers the base shape family, the perturbation model (number of
    directions and the score scale), the labeling rule, the covariate
    distributions, and the linear response rule with its noise level.
    The seed fixes every random draw.
    """

    n_subjects: int = 40
    n_u: int = 32
    n_v: int = 32
    family: str = "sphere"
    axes: tuple = (1.0, 1.0, 1.0)
    amplitude: float = 0.1
    bump_degree: int = 2
    shape_seed: int | None = None
    n_directions: int = 3
    score_scale: float = 0.2
    structure: str = "shape"
    label_rule: str = "score-sign"
    response: str = "pss"
    true_terms: tuple = ("age", "ps(shape,1)")
    true_coefficients: tuple = (0.1, 5.0)
    intercept: float = 20.0
    noise_sigma: float = 1.0
    age_range: tuple = (20.0, 60.0)
    bdi_range: tuple = (0.0, 40.0)
    icv_mean: float = 1.5e6
    icv_sd: float = 1.0e5
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be at least 1")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family '{self.family}' (one of {FAMILIES})")
        if self.label_rule not in LABEL_RULES:
            raise ConfigError(
                f"unknown label_rule '{self.label_rule}' (one of {LABEL_RULES})"
            )
        if self.response not in RESPONSES:
            raise ConfigError(f"response must be one of {RESPONSES}")
        if len(self.true_coefficients) != len(self.true_terms):
            raise ConfigError("true_coefficients and true_terms lengths differ")
        if self.n_directions < 1:
            raise ConfigError("n_directions must be at least 1")
        if self.score_scale <= 0:
            raise ConfigError("score_scale must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        for name in ("age_range", "bdi_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"{name} must be (low, high) with low < high")
        numeric = [
            self.amplitude, self.score_scale, self.intercept, self.noise_sigma,
            self.icv_mean, self.icv_sd, *self.axes, *self.true_coefficients,
            *self.age_range, *self.bdi_range,
        ]
        if not np.all(np.isfinite(numeric)):
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
    """Sum of the real harmonics of degrees 1..max(degree, 1) on the grid
    nodes, (n_v, n_u).

    With an rng the harmonics are weighted by one standard_normal draw of
    their count, in `harmonic_orders` order (the same numbers as one
    scalar draw per harmonic); without one the sum is unweighted.
    """
    values = harmonic_values(grid.nodes(), max(degree, 1))
    n = values.shape[0]
    weights = np.ones(n) if rng is None else rng.standard_normal(n)
    return (weights @ values.reshape(n, -1)).reshape(values.shape[1:])


def gen_surface(
    family: str,
    grid: SphericalGrid,
    axes=(1.0, 1.0, 1.0),
    amplitude: float = 0.1,
    degree: int = 2,
    seed: int | None = None,
) -> Surface:
    """Analytic surface sampled on the grid.

    Parameters
    ----------
    family : str
        "sphere", "ellipsoid" (axis-aligned, semi-axes from ``axes``), or
        "bumpy-sphere" (unit sphere with radial harmonic bumps
        r = 1 + amplitude * sum of the degree-1..degree harmonics).
    seed : int or None
        With a seed the bump harmonics get standard normal coefficients
        instead of the plain unweighted sum, giving seeded shape variety.
    """
    nodes = grid.nodes()
    if family == "sphere":
        return Surface(grid=grid, points=nodes)
    if family == "ellipsoid":
        a = np.asarray(axes, dtype=float)
        if a.shape != (3,) or np.any(a <= 0):
            raise ConfigError(f"ellipsoid axes must be 3 positive values, got {axes}")
        return Surface(grid=grid, points=nodes * a)
    if family == "bumpy-sphere":
        if amplitude < 0:
            raise ConfigError("bump amplitude must be nonnegative")
        rng = None if seed is None else np.random.default_rng(seed)
        r = 1.0 + amplitude * radial_bump(grid, degree, rng)
        if np.any(r <= 0):
            raise ConfigError(
                f"bump amplitude {amplitude} makes the radius nonpositive"
            )
        return Surface(grid=grid, points=r[..., None] * nodes)
    raise ConfigError(f"unknown family '{family}' (one of {FAMILIES})")


def gen_pca_cohort(mean: Surface, direction: np.ndarray, coefficients) -> PcaCohort:
    """Cohort on a single principal line: f_i = mean + x_i * direction.

    One subject per coefficient x_i, in order, with direction a unit
    vector; labels record the side (1 for x > 0 else 0).
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != mean.flat().shape:
        raise ValueError(
            f"direction length {direction.shape} does not match surface "
            f"({mean.flat().shape[0]})"
        )
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"direction must be unit length (norm {nrm:.3e})")
    x = np.asarray(coefficients, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"coefficients must be one-dimensional, got shape {x.shape}")
    base = mean.flat()
    shape = mean.points.shape
    surfaces = [
        mean.with_points((base + xi * direction).reshape(shape)) for xi in x
    ]
    return PcaCohort(
        surfaces=surfaces, coefficients=x, labels=(x > 0).astype(int)
    )


def _subject_labels(spec: CohortSpec, scores: np.ndarray) -> np.ndarray:
    if spec.label_rule == "score-sign":
        return (scores[:, 0] > 0).astype(float)
    half = (spec.n_subjects + 1) // 2
    return (np.arange(spec.n_subjects) >= half).astype(float)


def gen_regression_cohort(spec: CohortSpec) -> RegressionCohort:
    """Cohort of surfaces, covariates, and responses with known truth.

    Surfaces are built from a seeded orthonormal set of shape directions
    around the base shape; responses follow the declared linear rule over
    the listed terms plus Gaussian noise, clipped into the response's
    declared range as a bounded instrument reads it, so a strict
    `regress` accepts every cohort.  The returned record carries the
    generating model so a fit can be scored against it.
    """
    grid = make_grid(spec.n_u, spec.n_v)
    mean = gen_surface(
        spec.family,
        grid,
        axes=spec.axes,
        amplitude=spec.amplitude,
        degree=spec.bump_degree,
        seed=spec.shape_seed,
    )
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
        z[i] = rng.standard_normal(k) * spec.score_scale
        age[i] = rng.uniform(*spec.age_range)
        bdi[i] = rng.uniform(*spec.bdi_range)
        icv[i] = rng.normal(spec.icv_mean, spec.icv_sd)
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
        label=_subject_labels(spec, z),
    )
    try:
        tspec = ModelSpec(
            response=spec.response,
            terms=["intercept"] + list(spec.true_terms),
            n_ps=k,
            n_interact_ps=k,
        )
    except ValueError as exc:
        raise ConfigError(f"true_terms invalid: {exc}") from exc
    x, names = design_matrix(tspec, table, scores)
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
