"""Registration probes for the traced run, using public functions only.

Usage: python bench/probes.py --seed N --out FIGURES.json

Writes one JSON object of per-layer figures:

- the planted-reparameterization probe: a bumpy 32x32 sphere pulled
  back by ``random_diffeo(magnitude=0.5)`` and registered back with
  ``max_iters=50, rounds=3, tol_rel=1e-4``, giving the starting SRNF
  distance (``planted_d0``), the registered distance (``planted_d``) and
  the time taken (``planted_s``);
- micro-timings (median ms per call) of ``reparam_objective``,
  ``reparam_gradient``, ``tangent_basis`` and ``srnf`` on 16x16, 32x32
  and 64x64 grids, evaluated at the identity map.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from elastishape import (
    RegistrationOpts,
    gen_surface,
    make_grid,
    norm,
    pullback,
    random_diffeo,
    register,
    srnf,
)
from elastishape.registration import reparam_gradient, reparam_objective
from elastishape.sphharm import tangent_basis
from elastishape.srnf import SrnfField

PLANTED_OPTS = RegistrationOpts(max_iters=50, rounds=3, tol_rel=1e-4)
# Timed calls per micro-timing; each figure is the median of its calls.
MICRO_REPEATS = {16: 9, 32: 7, 64: 5}
GRADIENT_REPEATS = {16: 5, 32: 3, 64: 3}


def _pair(n: int, seed: int):
    grid = make_grid(n, n)
    f1 = gen_surface("bumpy-sphere", grid, amplitude=0.1, degree=3, seed=seed)
    f2 = pullback(f1, random_diffeo(grid, seed + 1, 0.5))
    return grid, f1, f2


def planted(seed: int) -> dict:
    _, f1, f2 = _pair(32, seed)
    q1, q2 = srnf(f1), srnf(f2)
    d0 = norm(SrnfField(grid=q1.grid, q=q1.q - q2.q))
    start = time.perf_counter()
    result = register(f1, f2, PLANTED_OPTS)
    seconds = time.perf_counter() - start
    return {
        "registration.planted_d0": d0,
        "registration.planted_d": result.distance,
        "registration.planted_s": seconds,
    }


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def micro(seed: int) -> dict:
    out = {}
    for n in (16, 32, 64):
        grid, f1, f2 = _pair(n, seed)
        q1, q2 = srnf(f1), srnf(f2)
        image = grid.nodes()
        tag = f"g{n}"
        reps = MICRO_REPEATS[n]
        out[f"registration.reparam_objective.ms.{tag}"] = _median_ms(
            lambda: reparam_objective(q1, q2, image), reps)
        out[f"registration.reparam_gradient.ms.{tag}"] = _median_ms(
            lambda: reparam_gradient(q1, q2, image), GRADIENT_REPEATS[n])
        out[f"sphharm.tangent_basis.ms.{tag}"] = _median_ms(
            lambda: tangent_basis(image, 3), reps)
        out[f"srnf.srnf.ms.{tag}"] = _median_ms(lambda: srnf(f1), reps)
    if not all(np.isfinite(v) for v in out.values()):
        raise RuntimeError("non-finite micro-timing")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps({**planted(args.seed), **micro(args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
