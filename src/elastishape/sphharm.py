"""Real spherical harmonics and tangent vector-field bases on S².

The tangent basis pairs the surface gradients of the real harmonics with
their rotated counterparts (s x grad Y), giving a standard complete
low-frequency family of smooth vector fields used both to generate random
sphere diffeomorphisms and to parameterize reparameterization steps
during registration.  `harmonic_values` gives the harmonics themselves,
of degree 1 and up, for the bumps of the synthetic shapes.

Values, gradients and tangent fields all come from one Cartesian table,
evaluated at unit vectors with no angles and no trig.  For a real orthonormal Y_lm, the solid
harmonic R_lm = r^l Y_lm is a homogeneous harmonic polynomial of degree
l in (x, y, z), and at a unit vector s:

- the value is Y_lm = (s . grad R_lm) / l for l >= 1, by Euler's
  identity for homogeneous functions (s . grad R = l R); Y_00 is the
  constant 1 / sqrt(4 pi);
- the gradient field is grad R - (s . grad R) s, the tangential part of
  the ambient gradient;
- the rotated field is s x grad R.

Each grad R_lm is a polynomial of degree l - 1, so every field of degree
at most L is a fixed coefficient table times the monomials x^a y^b z^c
with a + b + c <= L - 1.  The table is built once per degree, on first
use, by polynomial algebra on coefficient arrays (no fitting), from the
associated Legendre recurrence in solid form.  The complex harmonics
R_l^a of order a >= 0 (Condon-Shortley phase) start from
R_0^0 = 1 / sqrt(4 pi), and:

- R_a^a = -sqrt((2a+1)/(2a)) (x + iy) R_{a-1}^{a-1};
- R_{a+1}^a = sqrt(2a+3) z R_a^a;
- R_k^a = sqrt((4k^2-1)/(k^2-a^2))
  [z R_{k-1}^a - sqrt(((k-1)^2-a^2)/(4(k-1)^2-1)) r^2 R_{k-2}^a].

Every factor is at most a few units, so nothing overflows.  The real
harmonic of order m != 0 is sqrt(2) (-1)^m times the real part (m > 0)
or the imaginary part (m < 0) of R_l^|m|.  One evaluation is then power
tables, three gathers for the monomials and one matmul; the values,
projection and cross product that follow divide by no coordinate, so
they stay exact at the poles.  The tests check the values against an
independent implementation to a few ulp.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "harmonic_orders",
    "harmonic_values",
    "tangent_basis",
]

_SQRT2 = np.sqrt(2.0)
_Y00 = np.sqrt(1.0 / (4.0 * np.pi))


def harmonic_orders(max_degree: int) -> list[tuple[int, int]]:
    """All (l, m) pairs with 1 <= l <= max_degree."""
    return [(l, m) for l in range(1, max_degree + 1) for m in range(-l, l + 1)]


def _realize(m: int, values: np.ndarray) -> np.ndarray:
    if m > 0:
        return _SQRT2 * (-1.0) ** m * values.real
    if m < 0:
        return _SQRT2 * (-1.0) ** m * values.imag
    return values.real


def _solid_harmonics(max_degree: int) -> dict:
    """(l, a) -> r^l Y_l^a for 0 <= a <= l <= max_degree, as coefficients.

    Entry [i, j, k] of each complex array is the coefficient of
    x^i y^j z^k, from the recurrence in the module docstring.  A product
    with x, y or z rolls the array along that axis; no term passes
    max_degree, so the roll wraps zeros.
    """
    n = max_degree + 1
    solid = {}
    diag = np.zeros((n, n, n), dtype=complex)
    diag[0, 0, 0] = _Y00
    for a in range(n):
        if a:
            x_iy = np.roll(diag, 1, axis=0) + 1j * np.roll(diag, 1, axis=1)
            diag = -np.sqrt((2 * a + 1) / (2 * a)) * x_iy
        solid[a, a] = diag
        for k in range(a + 1, n):
            z_prev = np.roll(solid[k - 1, a], 1, axis=2)
            if k == a + 1:
                solid[k, a] = np.sqrt(2 * a + 3) * z_prev
            else:
                r2_prev = sum(np.roll(solid[k - 2, a], 2, axis=axis) for axis in range(3))
                c = np.sqrt(((k - 1) ** 2 - a * a) / (4 * (k - 1) ** 2 - 1))
                solid[k, a] = np.sqrt((4 * k * k - 1) / (k * k - a * a)) * (z_prev - c * r2_prev)
    return solid


def _build_gradient_table(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial gathers and coefficients of grad R_lm, 1 <= l <= max_degree.

    Returns (gathers, table).  gathers is (3, n_mono): the rows of a
    (max_degree, 3, n) power table, flattened, whose product is each
    monomial x^a y^b z^c with a + b + c <= max_degree - 1, lowest degree
    first.  table is (3 * n_fields, n_mono): row 3 k + c holds the
    coefficients of d R / d x_c for the k-th (l, m) of `harmonic_orders`.
    """
    exps = np.array([(a, b, d - a - b) for d in range(max_degree)
                     for a in range(d, -1, -1) for b in range(d - a, -1, -1)])
    solid = _solid_harmonics(max_degree)
    weights = np.arange(1, max_degree + 1)
    orders = harmonic_orders(max_degree)
    table = np.empty((len(orders), 3, len(exps)))
    a, b, c = exps.T
    for k, (l, m) in enumerate(orders):
        r = _realize(m, solid[l, abs(m)])
        table[k, 0] = (r[1:] * weights[:, None, None])[a, b, c]
        table[k, 1] = (r[:, 1:] * weights[None, :, None])[a, b, c]
        table[k, 2] = (r[:, :, 1:] * weights[None, None, :])[a, b, c]
    gathers = 3 * exps + np.arange(3)
    return gathers.T.copy(), table.reshape(3 * len(orders), len(exps))


# Gradient tables by degree, built on first use, not at import.  Threads
# racing on a first use each store an equal table.
_GRADIENT_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _harmonic_gradients(s: np.ndarray, max_degree: int) -> np.ndarray:
    """grad R_lm at the columns of s (3, n), for every (l, m) of
    `harmonic_orders(max_degree)`: shape (n_fields, 3, n)."""
    tables = _GRADIENT_TABLES.get(max_degree)
    if tables is None:
        tables = _GRADIENT_TABLES[max_degree] = _build_gradient_table(max_degree)
    gathers, table = tables
    n = s.shape[1]
    powers = np.empty((max_degree, 3, n))
    powers[0] = 1.0
    for e in range(1, max_degree):
        np.multiply(powers[e - 1], s, out=powers[e])
    flat = powers.reshape(3 * max_degree, n)
    monomials = flat.take(gathers[0], axis=0)
    monomials *= flat.take(gathers[1], axis=0)
    monomials *= flat.take(gathers[2], axis=0)
    return (table @ monomials).reshape(-1, 3, n)


def harmonic_values(points: np.ndarray, max_degree: int) -> np.ndarray:
    """Every real orthonormal Y_lm of degree 1..max_degree at unit vectors.

    The value counterpart of `tangent_basis`: points (..., 3) give shape
    (n_fields, ...), in `harmonic_orders(max_degree)` order, each value
    (s . grad R_lm) / l by Euler's identity (module docstring).
    ValueError for max_degree < 1.
    """
    if max_degree < 1:
        raise ValueError(f"harmonic values need max_degree >= 1, got {max_degree}")
    pts = np.asarray(points, dtype=float)
    s = pts.reshape(-1, 3).T
    grad = _harmonic_gradients(s, max_degree)
    values = grad[:, 0] * s[0]
    values += grad[:, 1] * s[1]
    values += grad[:, 2] * s[2]
    degrees = np.arange(1, max_degree + 1)
    values /= np.repeat(degrees, 2 * degrees + 1)[:, None]
    return values.reshape(values.shape[:1] + pts.shape[:-1])


def tangent_basis(points: np.ndarray, max_degree: int) -> np.ndarray:
    """Evaluate the tangent-field basis at arbitrary points on S².

    Parameters
    ----------
    points : ndarray, shape (..., 3)
        Unit vectors.
    max_degree : int
        Highest harmonic degree, at least 1 (degree 0 has no tangent field
        and is skipped); ValueError otherwise.

    Returns
    -------
    ndarray, shape (n_fields, ..., 3)
        First the gradient-type fields for every (l, m) in order, then the
        rotated fields s x grad Y in the same order.
    """
    if max_degree < 1:
        raise ValueError(f"tangent basis needs max_degree >= 1, got {max_degree}")
    pts = np.asarray(points, dtype=float)
    s = pts.reshape(-1, 3).T.copy()
    grad = _harmonic_gradients(s, max_degree)
    n_grads = grad.shape[0]
    out = np.empty((2, n_grads, s.shape[1], 3))
    grads, rots = out
    # The radial part s . grad R, projected out of the gradient fields.
    radial = grad[:, 0] * s[0]
    part = grad[:, 1] * s[1]
    radial += part
    np.multiply(grad[:, 2], s[2], out=part)
    radial += part
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(radial, s[c], out=part)
        np.subtract(grad[:, c], part, out=grads[..., c])
        # (s x grad R)_c = s_i dR/dx_j - s_j dR/dx_i
        np.multiply(grad[:, j], s[i], out=rots[..., c])
        np.multiply(grad[:, i], s[j], out=part)
        rots[..., c] -= part
    return out.reshape((2 * n_grads,) + pts.shape)
