"""Vertex-wise baseline pipeline: ICP alignment, class-separation
distances, and classical multidimensional scaling.

This is the comparison arm: surfaces treated as plain point clouds with
index correspondence, rigidly aligned by iterative closest point with
the elastic pipeline's Procrustes step.  The aligned clouds go back onto
the cohort grid as `Surface`s, so the distances here and
`shape_stats.shape_pca` serve both arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .registration import _proper_rotation
from .shape_stats import diff_field

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


def _as_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("point cloud must have shape (m, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite values")
    return pts


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
    matches every moving point to its nearest fixed point (k-d tree),
    solves the best rigid transform for those pairs, and applies it.
    Stops when the RMS change drops below ICP_TOL or after ICP_MAX_ITERS.
    """
    from scipy.spatial import cKDTree  # imported here: only ICP needs scipy

    fixed = _as_cloud(fixed)
    moving = _as_cloud(moving)
    mu_f = fixed.mean(axis=0)
    mu_m = moving.mean(axis=0)
    tree = cKDTree(fixed - mu_f)

    current = moving - mu_m
    rotation = np.eye(3)
    rms_trace = []
    prev_rms = None
    for _ in range(ICP_MAX_ITERS):
        _, idx = tree.query(current)
        targets = (fixed - mu_f)[idx]
        rot, trans = _best_rigid(current, targets)
        current = current @ rot.T + trans
        rotation = rot @ rotation
        resid = current - targets
        rms = float(np.sqrt((resid * resid).sum(axis=1).mean()))
        rms_trace.append(rms)
        if prev_rms is not None and abs(prev_rms - rms) < ICP_TOL:
            break
        prev_rms = rms

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
