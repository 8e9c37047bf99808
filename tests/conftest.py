import numpy as np
import pytest
from hypothesis import settings

from elastishape.grids import make_grid
from elastishape.synthetic import gen_surface

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces and nothing is written to the tree.
settings.register_profile(
    "elastishape", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("elastishape")


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 16)


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 32)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 64)


@pytest.fixture(scope="session")
def bumpy32(grid32):
    """A fixed asymmetric closed surface used across registration tests."""
    return gen_surface("bumpy-sphere", grid32, amplitude=0.25, degree=3, seed=11)


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == "z":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    raise ValueError(axis)


def random_rotation(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
