"""Real spherical harmonics and tangent vector-field bases on S².

The tangent basis pairs the surface gradients of the real harmonics with
their rotated counterparts (s x grad Y), giving a standard complete
low-frequency family of smooth vector fields used both to generate random
sphere diffeomorphisms and to parameterize reparameterization steps
during registration.

The basis is computed in Cartesian form, with no angles and no trig.
For a real orthonormal Y_lm, the solid harmonic R_lm = r^l Y_lm is a
homogeneous harmonic polynomial of degree l in (x, y, z), and at a unit
vector s:

- the gradient field is grad R - (s . grad R) s, the tangential part of
  the ambient gradient (s . grad R = l R by Euler's identity);
- the rotated field is s x grad R.

Each grad R_lm is a polynomial of degree l - 1, so every field of degree
at most L is a fixed coefficient table times the monomials x^a y^b z^c
with a + b + c <= L - 1.  The table is built once per degree, on first
use, by polynomial algebra on coefficient arrays (no fitting), from the
solid form of the recurrence below: sin(phi) e^{i theta} becomes x + iy,
cos(phi) becomes z, and the two-step term gains a factor r^2.  One basis
evaluation is then power tables, three gathers for the monomials, one
matmul, the projection and the cross product, with no division, so the
fields stay exact at the poles.  `real_harmonic_grad` takes its angular
derivatives from the same table: d/dtheta = grad R . (-y, x, 0) and
d/dphi = grad R . (cos phi cos theta, cos phi sin theta, -sin phi).

Harmonic values (`real_harmonic`) come from ``sph_harm_y``, a numpy
recurrence for the orthonormal associated Legendre functions
P_l^a(cos phi) (Condon-Shortley phase), in place of
``scipy.special.sph_harm_y``: importing scipy costs a process about
0.3 s and 30 MB, and the registration path needs nothing else from it.
With x = cos(phi), starting from P_0^0 = 1 / sqrt(4 pi):

- P_a^a = -sqrt((2a+1)/(2a)) sin(phi) P_{a-1}^{a-1};
- P_{a+1}^a = sqrt(2a+3) x P_a^a;
- P_k^a = sqrt((4k^2-1)/(k^2-a^2))
  [x P_{k-1}^a - sqrt(((k-1)^2-a^2)/(4(k-1)^2-1)) P_{k-2}^a].

Every factor is at most a few units, so nothing overflows and the values
agree with scipy's to a few ulp.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sph_harm_y",
    "real_harmonic",
    "real_harmonic_grad",
    "harmonic_orders",
    "tangent_basis",
    "n_tangent_fields",
]

_SQRT2 = np.sqrt(2.0)
_Y00 = np.sqrt(1.0 / (4.0 * np.pi))


def _check_order(l: int, m: int) -> None:
    if l < 0 or abs(m) > l:
        raise ValueError(f"no spherical harmonic of degree {l} and order {m}")


def sph_harm_y(l: int, m: int, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Complex orthonormal Y_l^m at polar angle phi and azimuth theta.

    Condon-Shortley phase, the argument order of scipy.special.sph_harm_y;
    the associated Legendre recurrence is in the module docstring.
    Y_l^{-a} = (-1)^a conj(Y_l^a).  Raises ValueError for l < 0 or |m| > l.
    """
    _check_order(l, m)
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    a = abs(m)
    p = np.full(phi.shape, _Y00)
    if a:
        s = np.sin(phi)
        for k in range(1, a + 1):
            p *= s
            p *= -np.sqrt((2 * k + 1) / (2 * k))
    if l > a:
        x = np.cos(phi)
        prev, p = p, x * p
        p *= np.sqrt(2 * a + 3)
        for k in range(a + 2, l + 1):
            nxt = x * p
            prev *= np.sqrt(((k - 1) ** 2 - a * a) / (4 * (k - 1) ** 2 - 1))
            nxt -= prev
            nxt *= np.sqrt((4 * k * k - 1) / (k * k - a * a))
            prev, p = p, nxt
    y = np.empty(phi.shape, dtype=complex)
    if a:
        arg = a * theta
        np.multiply(p, np.cos(arg), out=y.real)
        np.multiply(p, np.sin(arg), out=y.imag)
    else:
        y.real, y.imag = p, 0.0
    return (-1.0) ** a * np.conj(y) if m < 0 else y


def harmonic_orders(max_degree: int, min_degree: int = 1) -> list[tuple[int, int]]:
    """All (l, m) pairs with min_degree <= l <= max_degree."""
    return [(l, m) for l in range(min_degree, max_degree + 1) for m in range(-l, l + 1)]


def _realize(m: int, values: np.ndarray) -> np.ndarray:
    if m > 0:
        return _SQRT2 * (-1.0) ** m * values.real
    if m < 0:
        return _SQRT2 * (-1.0) ** m * values.imag
    return values.real


def _solid_harmonics(max_degree: int) -> dict:
    """(l, a) -> r^l Y_l^a for 0 <= a <= l <= max_degree, as coefficients.

    Entry [i, j, k] of each complex array is the coefficient of
    x^i y^j z^k.  The recurrence is the one of `sph_harm_y` in solid
    form (module docstring).  A product with x, y or z rolls the array
    along that axis; no term passes max_degree, so the roll wraps zeros.
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


def real_harmonic(l: int, m: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonic at azimuth theta, polar angle phi.

    Raises ValueError for l < 0 or |m| > l.
    """
    return _realize(m, sph_harm_y(l, abs(m), np.asarray(phi, dtype=float),
                                  np.asarray(theta, dtype=float)))


def real_harmonic_grad(
    l: int, m: int, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value plus partial derivatives (d/dtheta, d/dphi) of the real harmonic.

    The derivatives are grad R . (-y, x, 0) and
    grad R . (cos phi cos theta, cos phi sin theta, -sin phi) with the
    Cartesian gradient of `tangent_basis` (module docstring).
    Raises ValueError for l < 0 or |m| > l.
    """
    value = real_harmonic(l, m, theta, phi)
    if l == 0:
        return value, np.zeros_like(value), np.zeros_like(value)
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    sin_t, cos_t, sin_p, cos_p = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    x, y = sin_p * cos_t, sin_p * sin_t
    s = np.stack([x, y, cos_p]).reshape(3, -1)
    # (l, m) is entry l^2 + l + m - 1 of harmonic_orders(l).
    gx, gy, gz = _harmonic_gradients(s, l)[l * l + l + m - 1].reshape((3,) + theta.shape)
    d_theta = x * gy - y * gx
    d_phi = cos_p * (cos_t * gx + sin_t * gy) - sin_p * gz
    return value, d_theta, d_phi


def n_tangent_fields(max_degree: int) -> int:
    return 2 * (max_degree * max_degree + 2 * max_degree)


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
