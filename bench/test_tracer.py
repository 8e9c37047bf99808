"""Tests of the benchmark's tracer and layer metrics.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from traced_cli import package_modules  # noqa: E402
from tracer import Tracer  # noqa: E402

import elastishape  # noqa: E402
from elastishape import (  # noqa: E402
    RegistrationOpts,
    gen_surface,
    make_grid,
    pullback,
    random_diffeo,
    srnf,
)
from elastishape import registration, shape_stats  # noqa: E402

# Self times may differ from the wall time around the traced call by at
# most this fraction (the wrapper's own bookkeeping outside any span).
SELF_TIME_TOLERANCE = 0.01


def _snapshot(mods):
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


@pytest.fixture(scope="module")
def pair16():
    grid = make_grid(16, 16)
    f1 = gen_surface("bumpy-sphere", grid, amplitude=0.1, degree=3, seed=4)
    f2 = pullback(f1, random_diffeo(grid, 5, 0.5))
    return f1, f2


def test_wrapping_restores_the_original_functions():
    mods = package_modules()
    before = _snapshot(mods)
    with Tracer(mods):
        assert registration.tangent_basis is not before[
            ("elastishape.registration", "tangent_basis")]
        assert elastishape.register is not before[("elastishape", "register")]
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_register_spans_nest_under_register_cohort_on_worker_threads(pair16):
    f1, f2 = pair16
    seen = []

    def record(call, tracer):
        seen.append((call.frame.parent.name if call.frame.parent else None,
                     threading.get_ident()))

    opts = RegistrationOpts(max_iters=2, rounds=1, tol_rel=0.0)
    with Tracer(package_modules(), {"registration.register": record}):
        shape_stats.register_cohort(f1, [f2, f1, f2, f1], opts, threads=2)
    assert len(seen) == 4
    assert all(parent == "shape_stats.register_cohort" for parent, _ in seen)
    assert any(ident != threading.get_ident() for _, ident in seen)


def test_self_times_sum_to_the_traced_wall_time(pair16):
    f1, f2 = pair16
    tracer = Tracer(package_modules())
    with tracer:
        start = time.perf_counter()
        elastishape.register(f1, f2, RegistrationOpts(max_iters=3, rounds=1, tol_rel=0.0))
        wall = time.perf_counter() - start
    self_total = sum(tracer.self_s.values())
    assert tracer.calls["registration.register"] == 1
    assert self_total == pytest.approx(tracer.root_s, rel=1e-9)
    assert abs(self_total - wall) <= SELF_TIME_TOLERANCE * wall


def test_loop_counts_match_the_search(pair16):
    f1, f2 = pair16
    q1, q2 = srnf(f1), srnf(f2)
    tracer = Tracer(package_modules(), layers.LayerHooks().hooks())
    with tracer:
        _, trace = registration.optimize_reparam(
            q1, q2, RegistrationOpts(max_iters=4, tol_rel=0.0))
    summary = tracer.summary()
    metrics = layers.per_layer_metrics(summary, {}, 0.0, 0.0)
    # Every step of a short search from a perturbed start is accepted.
    assert len(trace) - 1 == 4
    assert metrics["registration.iters"] == 4
    assert metrics["registration.accepted_steps"] == len(trace) - 1


def test_loop_counts_through_register(pair16):
    f1, f2 = pair16
    tracer = Tracer(package_modules(), layers.LayerHooks().hooks())
    with tracer:
        elastishape.register(f1, f2, RegistrationOpts(max_iters=3, rounds=2, tol_rel=0.0))
    metrics = layers.per_layer_metrics(tracer.summary(), {}, 0.0, 0.0)
    searches = metrics["registration.optimize_reparam.calls"]
    assert searches >= 1
    assert metrics["registration.iters"] == 3 * searches
    assert metrics["registration.accepted_steps"] == 3 * searches
    assert metrics["registration.objective_evals"] >= 61 * 3 * searches


def test_metrics_cover_the_declared_table_and_mark_unobserved_layers():
    summary = layers.merge([])
    summary["spans"]["shape_stats.register_cohort"] = {
        "calls": 1, "raised": 0, "total_s": 1.0, "self_s": 1.0, "durations_s": []}
    names = [name for name, _, _ in layers.PER_LAYER]
    probes = {n: 1.0 for n in names if ".ms.g" in n or ".planted_" in n}
    metrics = layers.per_layer_metrics(summary, probes, 0.0, 0.0)
    assert set(metrics) == set(names)
    assert metrics["registration.register.calls"] == layers.NOT_OBSERVED
    assert metrics["regression.ols_fit.calls"] == 0


def test_benchmark_json_lists_the_metrics_run_reports():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER]
    assert [m["name"] for m in doc["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", *run.QUALITY]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
