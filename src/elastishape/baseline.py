"""Vertex-wise baseline pipeline: ICP alignment, class-separation
distances, and classical multidimensional scaling.

This is the comparison arm: surfaces treated as plain point clouds with
index correspondence, rigidly aligned by iterative closest point (Besl &
McKay, IEEE TPAMI 1992) with the elastic pipeline's Procrustes step.
The aligned clouds go back onto the cohort grid as `Surface`s, so the
distances here and `shape_stats.shape_pca` serve both arms.

ICP's nearest-neighbour search is an exact sweep in numpy (`_XSweep`):
the fixed cloud is sorted by x once, and each block of x-sorted queries
compares itself only with the fixed points whose x lies within the
block's distance bound.  The bounds come from the previous iteration's
matches, so after the first iteration the slabs are narrow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .registration import _proper_rotation
from .shape_stats import diff_field

logger = logging.getLogger(__name__)

__all__ = [
    "IcpResult",
    "MdsResult",
    "icp_register",
    "class_distances",
    "classical_mds",
    "knn_accuracy",
]

ICP_MAX_ITERS = 50
ICP_TOL = 1e-8
# Queries per block of the nearest-neighbour sweep, and the stride of the
# fixed-cloud subsample whose nearest point bounds the first iteration's
# distances.
SWEEP_BLOCK = 64
SWEEP_STRIDE = 16


def _as_cloud(points, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} point cloud must have shape (m, 3)")
    if len(pts) == 0:
        raise ValueError(f"{name} point cloud has no points")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} point cloud contains non-finite values")
    return pts


class _XSweep:
    """Exact nearest neighbours in a fixed cloud, by a sweep along x.

    The cloud is sorted by x once; `points` holds it in that order, and
    every index this class takes or returns is a row of `points`.  A
    query's nearest point lies within its bound r of it, so within the
    x-slab [x - r, x + r].  Queries go in x order, SWEEP_BLOCK at a
    time; each block takes one argmin of |f|^2 - 2 q.f over the slab of
    its x range widened by its largest bound.  That score is one matmul
    of the lifted query (q, 1) with the stacked rows (-2 F^T, |f|^2).
    Points at one distance (duplicates) may be told apart either way,
    and so may points whose distances differ by rounding of the score.
    """

    def __init__(self, cloud: np.ndarray):
        self.points = cloud[np.argsort(cloud[:, 0], kind="stable")]
        self.x = np.ascontiguousarray(self.points[:, 0])
        self.lifted = np.vstack([-2.0 * self.points.T,
                                 (self.points * self.points).sum(axis=1)])

    def nearest(self, queries: np.ndarray, bound_sq: np.ndarray | None = None) -> np.ndarray:
        """Index of each query's nearest point.

        bound_sq, if given, is for each query the squared distance to
        some point of the cloud.  Without it the bounds come from the
        nearest point of every SWEEP_STRIDE-th point.
        """
        order = np.argsort(queries[:, 0], kind="stable")
        q = np.ones((len(queries), 4))
        q[:, :3] = queries[order]
        if bound_sq is None:
            sub = slice(None, None, SWEEP_STRIDE)
            diff = q[:, :3] - self.points[sub][(q @ self.lifted[:, sub]).argmin(axis=1)]
            bound_sq = (diff * diff).sum(axis=1)
        else:
            bound_sq = bound_sq[order]
        starts = np.arange(0, len(q), SWEEP_BLOCK)
        ends = np.minimum(starts + SWEEP_BLOCK, len(q))
        x_lo, x_hi = q[starts, 0], q[ends - 1, 0]
        reach = np.sqrt(np.maximum.reduceat(bound_sq, starts))
        # A few ulps more, so that rounding cannot leave out of the slab a
        # point at distance r: without them, a query at x = 1.5 bounded by
        # a point at x = -1e-20 gets r = 1.5 and the empty slab [0, 3].
        reach += 4 * np.finfo(float).eps * (reach + np.abs(x_lo) + np.abs(x_hi))
        lo = np.searchsorted(self.x, x_lo - reach, side="left")
        hi = np.searchsorted(self.x, x_hi + reach, side="right")
        idx = np.empty(len(q), dtype=np.intp)
        for s, e, a, b in zip(starts, ends, lo, hi):
            idx[order[s:e]] = a + (q[s:e] @ self.lifted[:, a:b]).argmin(axis=1)
        return idx


def _best_rigid(source: np.ndarray, target: np.ndarray):
    """Least-squares rigid transform mapping source onto target."""
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    rot = _proper_rotation((target - mu_t).T @ (source - mu_s))
    trans = mu_t - rot @ mu_s
    return rot, trans


@dataclass
class IcpResult:
    aligned: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    rms_trace: list = field(default_factory=list)


def icp_register(fixed, moving) -> IcpResult:
    """Iterative closest point: rigidly align moving onto fixed.

    Both clouds are pre-centered on their means before iteration starts,
    which removes the bulk translation and keeps the nearest-neighbor
    correspondences sane for well-separated inputs.  Each iteration
    matches every moving point to its nearest fixed point, solves the
    best rigid transform for those pairs, and applies it.  The matches
    come from an exact sweep over the x-sorted fixed cloud (`_XSweep`),
    where each point's distance to its previous match bounds the search.
    Stops when the RMS change drops below ICP_TOL or after ICP_MAX_ITERS;
    a stop at the limit is logged at INFO with the last RMS change.
    Raises ValueError for a cloud that is not (m, 3), is empty or holds
    non-finite values.
    """
    fixed = _as_cloud(fixed, "fixed")
    moving = _as_cloud(moving, "moving")
    mu_f = fixed.mean(axis=0)
    mu_m = moving.mean(axis=0)
    sweep = _XSweep(fixed - mu_f)

    current = moving - mu_m
    rotation = np.eye(3)
    rms_trace = []
    bound_sq = None
    for _ in range(ICP_MAX_ITERS):
        idx = sweep.nearest(current, bound_sq)
        targets = sweep.points[idx]
        rot, trans = _best_rigid(current, targets)
        current = current @ rot.T + trans
        rotation = rot @ rotation
        resid = current - targets
        bound_sq = (resid * resid).sum(axis=1)
        rms = float(np.sqrt(bound_sq.mean()))
        rms_trace.append(rms)
        if len(rms_trace) > 1 and abs(rms_trace[-2] - rms) < ICP_TOL:
            break
    else:
        logger.info("ICP stopped at the limit of %d iterations, the RMS still moving "
                    "%.3g per iteration", ICP_MAX_ITERS, abs(rms_trace[-2] - rms_trace[-1]))

    aligned = current + mu_f
    translation = aligned.mean(axis=0) - rotation @ moving.mean(axis=0)
    return IcpResult(
        aligned=aligned, rotation=rotation, translation=translation, rms_trace=rms_trace
    )


def class_distances(surfaces: list, labels) -> tuple[float, float]:
    """Average inter-class and intra-class total point-wise distances.

    For each unordered pair of subjects the distance is the sum over
    grid nodes of the Euclidean point distance (`diff_field`); pairs are
    averaged separately across mixed-label and same-label index sets.
    Surfaces on different grids raise ValueError.

    Returns (d_inter, d_intra).
    """
    labels = np.asarray(labels)
    if len(surfaces) != len(labels):
        raise ValueError("surfaces and labels length mismatch")

    inter, n_inter = 0.0, 0
    intra, n_intra = 0.0, 0
    for i in range(len(surfaces)):
        for j in range(i + 1, len(surfaces)):
            total = float(diff_field(surfaces[i], surfaces[j]).sum())
            if labels[i] == labels[j]:
                intra += total
                n_intra += 1
            else:
                inter += total
                n_inter += 1
    if n_inter == 0:
        raise InputError("no mixed-label pair: need both label values present")
    if n_intra == 0:
        raise InputError("no same-label pair present")
    return inter / n_inter, intra / n_intra


@dataclass
class MdsResult:
    coords: np.ndarray
    eigenvalues: np.ndarray
    clipped: bool


def classical_mds(dist: np.ndarray, k: int) -> MdsResult:
    """Classical (Torgerson) multidimensional scaling.

    Double-centers the squared distance matrix, takes the top-k
    eigenpairs, and scales eigenvectors by the square roots of the
    eigenvalues.  Each eigenvector's sign is fixed so its largest-magnitude
    entry is positive (ties go to the first), so rounding-level changes of
    the distances cannot flip an axis.  Negative eigenvalues are clamped
    to zero; if fewer than k positive eigenvalues exist (k > n included)
    the remaining columns are zero and the result is flagged as clipped.
    coords always has shape (n, k) and eigenvalues length k.
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.abs(d - d.T).max() > 1e-10 or np.abs(np.diag(d)).max() > 1e-10:
        raise ValueError("distance matrix must be symmetric with zero diagonal")

    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (d * d) @ j
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1][:k]
    evals = np.zeros(k)
    evals[: len(order)] = vals[order]
    evecs = np.zeros((n, k))
    evecs[:, : len(order)] = vecs[:, order]
    peak = evecs[np.abs(evecs).argmax(axis=0), np.arange(k)]
    evecs[:, peak < 0.0] *= -1.0
    clipped = bool((evals <= 0).any())
    coords = evecs * np.sqrt(np.maximum(evals, 0.0))[None, :]
    return MdsResult(coords=coords, eigenvalues=evals, clipped=clipped)


def knn_accuracy(dist: np.ndarray, labels) -> float:
    """Leave-one-out 1-nearest-neighbor classification accuracy."""
    d = np.asarray(dist, dtype=float).copy()
    labels = np.asarray(labels)
    n = d.shape[0]
    np.fill_diagonal(d, np.inf)
    nearest = np.argmin(d, axis=1)
    return float((labels[nearest] == labels).mean())
