"""Surface registration: rotation alignment and reparameterization search.

The shape distance between two sampled surfaces is the field norm
``|q1 - O (q2 * gamma)|`` minimized over rotations O and sphere
diffeomorphisms gamma.  Rotations have a closed-form Procrustes solution;
the diffeomorphism is found by gradient descent over the coefficients of
a tangent-field basis, accumulating one small flow per accepted step so
every iterate remains a valid diffeomorphism.  The basis holds the
surface gradients of the real harmonics of degree 1 to basis_degree and
their rotations s x grad Y (`sphharm.tangent_basis`), evaluated at the
current image once per iteration from one cached polynomial table.
The pole-smoothed target field is padded for sampling once per search
(`srnf._sampled_field`).

The gradient is a centered finite-difference stencil: two objective
evaluations per basis field.  Those maps are evaluated as stacks of shape
(maps, n_v, n_u, 3): the flow step, the image angles, the orientation
check, the sampled action and the residual sums each take one numpy call
per stack instead of one per map, while the area Jacobian, from
Cartesian differences of each image (`diffeos.jacobian_from_angles`),
runs map by map.  The one Jacobian serves both the orientation check
and the action's sqrt(J sin phi_grid) factor.  Every product of a
per-node factor with the 3-vector field multiplies by the factor
repeated per component (`grids._per_component`), not by a broadcast
along the short last axis.  A stack holds the +h and -h maps of as many
fields as fit in STENCIL_STACK_BYTES per image array, and always at
least one pair.  At 32x32 that is 4 maps, the fastest on one thread in
3 of 4 sweeps of 2, 4, 6 and 8 maps; 6 maps was the fastest on two
concurrent threads, so no stack size won both.  Stacking changes no
arithmetic, so the gradient is bit for bit the per-field one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffeos import Diffeo, flow_step, jacobian_from_angles, pullback
from .grids import SphericalGrid, Surface, sphere_to_angles
from .sphharm import tangent_basis
from .srnf import SrnfField, _action_values, _sampled_field, norm, srnf, srnf_action

__all__ = [
    "RegistrationOpts",
    "RegistrationResult",
    "optimal_rotation",
    "optimize_reparam",
    "register",
    "rotate_surface",
    "reparam_objective",
    "reparam_gradient",
]

# Byte budget of one (maps, n_v, n_u, 3) float array in a gradient's stacked
# stencil: 4 maps at 32x32, 16 at 16x16, and the one +/- pair at 64x64.
STENCIL_STACK_BYTES = 96 * 1024


@dataclass
class RegistrationOpts:
    """Tuning knobs for the reparameterization search and alternation.

    Raises ValueError for values that would silently disable or break the
    search: basis_degree < 1, negative max_iters, rounds or tol_rel,
    grad_step <= 0, or steps outside 0 < step_floor <= step_init <= step_max.
    """

    max_iters: int = 100
    tol_rel: float = 1e-5
    basis_degree: int = 3
    rounds: int = 3
    grad_step: float = 1e-4
    step_init: float = 0.1
    step_max: float = 0.8
    step_floor: float = 1e-8

    def __post_init__(self):
        if self.basis_degree < 1:
            raise ValueError(f"basis_degree must be >= 1, got {self.basis_degree}")
        if self.max_iters < 0 or self.rounds < 0:
            raise ValueError(
                f"max_iters and rounds must be >= 0, got {self.max_iters} and {self.rounds}"
            )
        if not self.tol_rel >= 0.0:
            raise ValueError(f"tol_rel must be >= 0, got {self.tol_rel}")
        if not self.grad_step > 0.0:
            raise ValueError(f"grad_step must be > 0, got {self.grad_step}")
        if not 0.0 < self.step_floor <= self.step_init <= self.step_max:
            raise ValueError(
                "steps must satisfy 0 < step_floor <= step_init <= step_max, got "
                f"{self.step_floor}, {self.step_init}, {self.step_max}"
            )


@dataclass
class RegistrationResult:
    aligned: Surface
    rotation: np.ndarray
    reparam: Diffeo
    distance: float
    objective_trace: list = field(default_factory=list)


def rotate_surface(f: Surface, rotation: np.ndarray) -> Surface:
    return Surface(grid=f.grid, points=f.points @ np.asarray(rotation).T)


def _proper_rotation(cross: np.ndarray) -> np.ndarray:
    """Procrustes rotation for a 3x3 cross-covariance sum_k a_k b_k^T.

    Returns the R minimizing sum_k |a_k - R b_k|^2.  The sign-corrected
    SVD solution is always a proper rotation (determinant +1), even for
    degenerate cross-covariance.
    """
    u, _, vt = np.linalg.svd(cross)
    sign = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, sign]) @ vt


def optimal_rotation(q1: SrnfField, q2: SrnfField) -> np.ndarray:
    """Best rotation O minimizing |q1 - O q2|, by the Procrustes method."""
    if not q1.grid.same_dims(q2.grid):
        raise ValueError("fields must share grid dimensions")
    return _proper_rotation(np.einsum("vui,vuj->ij", q1.q, q2.q) * q1.grid.cell_measure)


def _stacked_objective(
    grid: SphericalGrid, q1: np.ndarray, padded2: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """E(gamma) = |q1 - (q2 * gamma)|^2 for a stack of images (maps, n_v, n_u, 3).

    padded2 is q2 as `srnf._sampled_field` prepares it.  Returns the
    energies and a boolean mask of the admissible maps; a False entry
    marks an orientation violation (non-positive Jacobian) and its
    energy is meaningless.  The angles, the orientation check, the
    sampled action and the residual sums run over the whole stack; the
    Jacobian runs map by map.
    """
    maps = images.shape[0]
    theta, phi = sphere_to_angles(images)
    jac = np.empty(theta.shape)
    for m in range(maps):
        jac[m] = jacobian_from_angles(grid, images[m])
    admissible = jac.reshape(maps, -1).min(axis=1) > 0.0
    diff = _action_values(grid, padded2, theta, phi, jac)
    np.subtract(q1, diff, out=diff)
    diff *= diff
    energy = diff.reshape(maps, -1).sum(axis=1)
    energy *= grid.cell_measure
    return energy, admissible


def _action_objective(
    grid: SphericalGrid, q1: np.ndarray, padded2: np.ndarray, image: np.ndarray
):
    """E(gamma) for one explicit image, or None on an orientation violation,
    which the caller treats as an inadmissible step."""
    energy, admissible = _stacked_objective(grid, q1, padded2, image[None])
    return float(energy[0]) if admissible[0] else None


def reparam_objective(q1: SrnfField, q2: SrnfField, image: np.ndarray) -> float:
    """Public evaluation of the reparameterization objective at an image."""
    val = _action_objective(q1.grid, q1.q, _sampled_field(q2.grid, q2.q), image)
    if val is None:
        raise ValueError("image is not orientation preserving")
    return val


def _basis_gradient(grid, q1, padded2, image, fields, h, e_center):
    """Centered directional finite differences along every basis field.

    The +h and -h maps of consecutive fields are evaluated as one stack
    of at most STENCIL_STACK_BYTES per image array (at least one pair).
    A field with one inadmissible side falls back to the one-sided
    difference from e_center; with both sides inadmissible its entry is 0.
    """
    n_fields = fields.shape[0]
    per_stack = max(1, STENCIL_STACK_BYTES // (2 * image.nbytes))
    energy = np.empty((n_fields, 2))
    admissible = np.empty((n_fields, 2), dtype=bool)
    for start in range(0, n_fields, per_stack):
        block = fields[start:start + per_stack]
        velocity = np.empty((len(block), 2) + image.shape)
        np.multiply(block, h, out=velocity[:, 0])
        np.negative(velocity[:, 0], out=velocity[:, 1])
        images = flow_step(image, velocity.reshape((-1,) + image.shape))
        e, ok = _stacked_objective(grid, q1, padded2, images)
        energy[start:start + len(block)] = e.reshape(-1, 2)
        admissible[start:start + len(block)] = ok.reshape(-1, 2)

    e_plus, e_minus = energy.T
    ok_plus, ok_minus = admissible.T
    grad = np.zeros(n_fields)
    both = ok_plus & ok_minus
    grad[both] = (e_plus[both] - e_minus[both]) / (2.0 * h)
    plus_only = ok_plus & ~ok_minus
    grad[plus_only] = (e_plus[plus_only] - e_center) / h
    minus_only = ok_minus & ~ok_plus
    grad[minus_only] = (e_center - e_minus[minus_only]) / h
    return grad


def reparam_gradient(
    q1: SrnfField,
    q2: SrnfField,
    image: np.ndarray,
    basis_degree: int = 3,
    grad_step: float = 1e-4,
) -> np.ndarray:
    """The optimizer's gradient of E over basis coefficients at an image."""
    grid = q1.grid
    padded2 = _sampled_field(q2.grid, q2.q)
    e0 = _action_objective(grid, q1.q, padded2, image)
    if e0 is None:
        raise ValueError("image is not orientation preserving")
    fields = tangent_basis(image, basis_degree)
    return _basis_gradient(grid, q1.q, padded2, image, fields, grad_step, e0)


def optimize_reparam(
    q1: SrnfField,
    q2: SrnfField,
    opts: RegistrationOpts | None = None,
    init: Diffeo | None = None,
) -> tuple[Diffeo, list]:
    """Gradient descent over sphere diffeomorphisms minimizing |q1 - q2*gamma|^2.

    Each iteration evaluates directional finite differences of the
    objective along every tangent-basis field (two evaluations per field,
    issued in stacks of at most STENCIL_STACK_BYTES per image array, see
    the module docstring), then backtracks a step of the normalized
    descent direction until the objective decreases and the stepped map
    stays orientation preserving.  Accepted flows accumulate
    multiplicatively on the current diffeomorphism.

    Returns the accumulated diffeomorphism and the non-increasing trace of
    accepted objective values.
    """
    if not q1.grid.same_dims(q2.grid):
        raise ValueError("fields must share grid dimensions")
    opts = opts or RegistrationOpts()
    grid = q1.grid
    padded2 = _sampled_field(q2.grid, q2.q)
    image = np.array(init.image if init is not None else grid.nodes())

    energy = _action_objective(grid, q1.q, padded2, image)
    if energy is None:
        raise ValueError("initial diffeo is not orientation preserving")
    trace = [energy]
    scale = max(float((q1.q * q1.q).sum() * grid.cell_measure), 1.0)
    if energy <= 1e-20 * scale:
        return Diffeo(grid=grid, image=image), trace

    step = opts.step_init
    for _ in range(opts.max_iters):
        fields = tangent_basis(image, opts.basis_degree)
        grad = _basis_gradient(
            grid, q1.q, padded2, image, fields, opts.grad_step, energy
        )
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        direction = -grad / gnorm

        candidate = None
        cand_energy = None
        while step >= opts.step_floor:
            velocity = np.tensordot(step * direction, fields, axes=1)
            moved = flow_step(image, velocity)
            e_cand = _action_objective(grid, q1.q, padded2, moved)
            if e_cand is not None and e_cand < energy:
                candidate, cand_energy = moved, e_cand
                break
            step *= 0.5
        if candidate is None:
            break

        rel = (energy - cand_energy) / max(energy, 1e-300)
        image, energy = candidate, cand_energy
        trace.append(energy)
        step = min(step * 2.0, opts.step_max)
        if rel < opts.tol_rel:
            break

    return Diffeo(grid=grid, image=image), trace


def register(
    f1: Surface, f2: Surface, opts: RegistrationOpts | None = None
) -> RegistrationResult:
    """Full alignment of f2 to f1 over rotations and reparameterizations.

    Alternates the closed-form rotation update with the gradient-based
    reparameterization search for ``opts.rounds`` rounds.  The reported
    distance is the field norm between q1 and the transform of the final
    aligned surface, and the objective trace holds that same quantity
    after the initial rotation and after each accepted round, so the
    trace is non-increasing and ends at the distance.
    """
    if not f1.grid.same_dims(f2.grid):
        raise ValueError("surfaces must share grid dimensions")
    opts = opts or RegistrationOpts()
    grid = f1.grid
    q1 = srnf(f1)
    q2 = srnf(f2)

    rotation = optimal_rotation(q1, q2)
    gamma = Diffeo(grid=grid, image=grid.nodes())
    aligned = rotate_surface(pullback(f2, gamma), rotation)
    distance = norm(SrnfField(grid=grid, q=q1.q - srnf(aligned).q))
    trace = [distance]

    for _ in range(opts.rounds):
        q2_rot = SrnfField(grid=grid, q=q2.q @ rotation.T)
        cand_gamma, _ = optimize_reparam(q1, q2_rot, opts, init=gamma)
        cand_rot = optimal_rotation(q1, srnf_action(q2, cand_gamma))
        cand_aligned = rotate_surface(pullback(f2, cand_gamma), cand_rot)
        cand_dist = norm(SrnfField(grid=grid, q=q1.q - srnf(cand_aligned).q))
        if cand_dist < distance:
            gamma, rotation, aligned, distance = (
                cand_gamma,
                cand_rot,
                cand_aligned,
                cand_dist,
            )
            trace.append(distance)
        else:
            break

    return RegistrationResult(
        aligned=aligned,
        rotation=rotation,
        reparam=gamma,
        distance=distance,
        objective_trace=trace,
    )
