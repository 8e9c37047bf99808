"""Real spherical harmonics and tangent vector-field bases on S².

The tangent basis pairs the surface gradients of the real harmonics with
their rotated counterparts (s x grad Y), giving a standard complete
low-frequency family of smooth vector fields used both to generate random
sphere diffeomorphisms and to parameterize reparameterization steps
during registration.

Derivatives come from the complex values alone, one value call of
``sph_harm_y`` per Y_l^a with 0 <= a <= l, Y_l^{-a} = (-1)^a conj(Y_l^a)
and the ladder identities (theta azimuth, phi polar):

- dY_l^a/dtheta = i a Y_l^a;
- dY_l^a/dphi = 1/2 [sqrt((l-a)(l+a+1)) e^{-i theta} Y_l^{a+1}
  - sqrt((l+a)(l-a+1)) e^{i theta} Y_l^{a-1}];
- a Y_l^a / sin(phi) = -1/2 sqrt((2l+1)/(2l-1))
  [sqrt((l+a)(l+a-1)) e^{i theta} Y_{l-1}^{a-1}
  + sqrt((l-a)(l-a-1)) e^{-i theta} Y_{l-1}^{a+1}].

The last one gives the azimuthal component of a gradient without a
division by sin(phi), so the fields stay exact at the poles.

The complex values themselves come from ``sph_harm_y``, a numpy
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

from .grids import _per_component, sphere_to_angles

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


def _degree_row(l: int, theta: np.ndarray, phi: np.ndarray) -> list:
    """Complex [Y_l^0, ..., Y_l^l] at azimuth theta, polar phi."""
    return [sph_harm_y(l, a, phi, theta) for a in range(l + 1)]


def _order(row: list, b: int):
    """Y_l^b from a degree row: (-1)^b conj(Y_l^-b) for b < 0, zero for |b| > l."""
    if abs(b) >= len(row):
        return 0.0
    if b < 0:
        return (-1.0) ** b * np.conj(row[-b])
    return row[b]


def _d_polar(row: list, a: int, e_it: np.ndarray) -> np.ndarray:
    """dY_l^a/dphi from the degree-l row by the polar ladder identity."""
    l = len(row) - 1
    up = np.sqrt((l - a) * (l + a + 1)) * np.conj(e_it) * _order(row, a + 1)
    down = np.sqrt((l + a) * (l - a + 1)) * e_it * _order(row, a - 1)
    return 0.5 * (up - down)


def _over_sin(lower: list, a: int, e_it: np.ndarray) -> np.ndarray:
    """a Y_l^a / sin(phi) from the degree-(l-1) row, with no division."""
    l = len(lower)
    left = np.sqrt((l + a) * (l + a - 1)) * e_it * _order(lower, a - 1)
    right = np.sqrt((l - a) * (l - a - 1)) * np.conj(e_it) * _order(lower, a + 1)
    return -0.5 * np.sqrt((2 * l + 1) / (2 * l - 1)) * (left + right)


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

    Both derivatives come from the complex values of degree l, a = |m|:
    dY_l^a/dtheta = i a Y_l^a, and by the ladder identity
    dY_l^a/dphi = 1/2 [sqrt((l-a)(l+a+1)) e^{-i theta} Y_l^{a+1}
    - sqrt((l+a)(l-a+1)) e^{i theta} Y_l^{a-1}].  `tangent_basis` uses the
    same ones plus a Y_l^a / sin(phi) = -1/2 sqrt((2l+1)/(2l-1))
    [sqrt((l+a)(l+a-1)) e^{i theta} Y_{l-1}^{a-1}
    + sqrt((l-a)(l-a-1)) e^{-i theta} Y_{l-1}^{a+1}].
    Raises ValueError for l < 0 or |m| > l.
    """
    _check_order(l, m)
    theta = np.asarray(theta, dtype=float)
    a = abs(m)
    row = _degree_row(l, theta, np.asarray(phi, dtype=float))
    y = row[a]
    d_phi = _d_polar(row, a, np.exp(1j * theta))
    return _realize(m, y), _realize(m, 1j * a * y), _realize(m, d_phi)


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
    theta, phi = sphere_to_angles(pts)
    e_it = np.exp(1j * theta)
    rows = [_degree_row(l, theta, phi) for l in range(max_degree + 1)]

    sin_t, cos_t, cos_p = np.sin(theta), np.cos(theta), np.cos(phi)
    e_theta = np.stack([-sin_t, cos_t, np.zeros_like(theta)], axis=-1)
    e_phi = np.stack([cos_p * cos_t, cos_p * sin_t, -np.sin(phi)], axis=-1)

    n_grads = len(harmonic_orders(max_degree))
    out = np.empty((2 * n_grads,) + pts.shape)
    grads, rots = out[:n_grads], out[n_grads:]
    k = 0
    for l in range(1, max_degree + 1):
        # dY_l^a/dphi, and dY_l^a/dtheta over sin(phi) (zero for a = 0)
        parts = [
            (_d_polar(rows[l], a, e_it), 1j * _over_sin(rows[l - 1], a, e_it) if a else None)
            for a in range(l + 1)
        ]
        for m in range(-l, l + 1):
            d_phi, az = parts[abs(m)]
            # Coefficients repeated over the three components, so each
            # product is elementwise; s x e_theta = -e_phi, s x e_phi = e_theta.
            c_phi = _per_component(_realize(m, d_phi), 3)
            np.multiply(c_phi, e_phi, out=grads[k])
            np.multiply(c_phi, e_theta, out=rots[k])
            if m:
                c_theta = _per_component(_realize(m, az), 3)
                grads[k] += c_theta * e_theta
                c_theta *= e_phi
                rots[k] -= c_theta
            k += 1
    return out
