"""Per-layer metrics: the hooks the tracer runs and the derived figures.

`LayerHooks` reads loop counts and quantities from the arguments and
results of public calls.  `per_layer_metrics` turns the merged tracer
summaries of one workload run, the probe figures and the run's own
timings into the metric table `PER_LAYER` declares; BENCHMARK.json lists
the same table.

A layer a workload does not exercise reads 0 (zero calls, zero time).
A layer whose spans ran where the tracer cannot see them (in worker
processes) reads NOT_OBSERVED instead, see `not_observed`.
"""

from __future__ import annotations

import statistics
from pathlib import Path

NOT_OBSERVED = -1.0

_DIFFEOS = ("jacobian_from_angles", "coord_jacobian_from_angles", "flow_step",
            "random_diffeo", "pullback")
_GRIDS = ("bilinear_sample", "normal_field", "sphere_to_angles")
_BASELINE_SELF = ("class_distances", "vertex_pca", "classical_mds", "knn_accuracy")
_FILEIO = ("write_matrix_csv",)
_PROBE_GRIDS = ("g16", "g32", "g64")


def _spec() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    rows = [
        ("registration.register.calls", "count", "lower"),
        ("registration.register.self_ms", "ms", "lower"),
        ("registration.register.p50_ms", "ms", "lower"),
        ("registration.optimize_reparam.calls", "count", "lower"),
        ("registration.optimize_reparam.self_ms", "ms", "lower"),
        ("registration.iters", "count", "lower"),
        ("registration.accepted_steps", "count", "lower"),
        ("registration.objective_evals", "count", "lower"),
        ("registration.evals_per_iter", "1", "lower"),
        ("registration.ms_per_iter", "ms", "lower"),
        ("registration.optimal_rotation.calls", "count", "lower"),
        ("registration.optimal_rotation.self_ms", "ms", "lower"),
        ("registration.excess_dist", "1", "lower"),
    ]
    for fn in ("reparam_objective", "reparam_gradient"):
        rows += [(f"registration.{fn}.ms.{g}", "ms", "lower") for g in _PROBE_GRIDS]
    rows += [
        ("registration.planted_d0", "1", "lower"),
        ("registration.planted_d", "1", "lower"),
        ("registration.planted_s", "s", "lower"),
        ("sphharm.tangent_basis.calls", "count", "lower"),
        ("sphharm.tangent_basis.self_ms", "ms", "lower"),
        ("sphharm.tangent_basis.share", "1", "lower"),
    ]
    rows += [(f"sphharm.tangent_basis.ms.{g}", "ms", "lower") for g in _PROBE_GRIDS]
    for module, names in (("diffeos", _DIFFEOS), ("grids", _GRIDS)):
        for fn in names:
            rows += [(f"{module}.{fn}.calls", "count", "lower"),
                     (f"{module}.{fn}.self_ms", "ms", "lower")]
    rows += [("srnf.srnf.calls", "count", "lower"), ("srnf.srnf.self_ms", "ms", "lower")]
    rows += [(f"srnf.srnf.ms.{g}", "ms", "lower") for g in _PROBE_GRIDS]
    rows += [
        ("shape_stats.register_cohort.wall_ms", "ms", "lower"),
        ("shape_stats.register_cohort.busy_ms", "ms", "lower"),
        ("shape_stats.register_cohort.parallel_eff", "1", "higher"),
        ("shape_stats.register_cohort.speedup", "1", "higher"),
        ("shape_stats.shape_pca.self_ms", "ms", "lower"),
        ("regression.run_model_suite.self_ms", "ms", "lower"),
        ("regression.stepwise_bidirectional.calls", "count", "lower"),
        ("regression.stepwise_bidirectional.self_ms", "ms", "lower"),
        ("regression.stepwise_bidirectional.moves", "count", "lower"),
        ("regression.ols_fit.calls", "count", "lower"),
        ("regression.ols_fit.self_ms", "ms", "lower"),
        ("regression.ols_fit.p50_us", "us", "lower"),
        ("regression.ols_fit.fail_frac", "1", "lower"),
        ("regression.design_matrix.calls", "count", "lower"),
        ("regression.design_matrix.self_ms", "ms", "lower"),
        ("baseline.icp_register.calls", "count", "lower"),
        ("baseline.icp_register.self_ms", "ms", "lower"),
        ("baseline.icp_register.iters", "count", "lower"),
    ]
    rows += [(f"baseline.{fn}.self_ms", "ms", "lower") for fn in _BASELINE_SELF]
    for fn in _FILEIO:
        rows += [(f"fileio.{fn}.calls", "count", "lower"),
                 (f"fileio.{fn}.self_ms", "ms", "lower")]
    rows += [
        ("fileio.bytes_written", "B", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("trace.overhead_frac", "1", "lower"),
    ]
    return rows


PER_LAYER = _spec()

# Durations kept per call, for the percentiles above.
KEEP_DURATIONS = ("registration.register", "regression.ols_fit")

# Counts that become NOT_OBSERVED when registration ran out of sight.
_REGISTRATION_LAYERS = ("registration.", "sphharm.", "diffeos.", "grids.", "srnf.")


class LayerHooks:
    """Tracer hooks; one instance per traced process (holds the truth map)."""

    def __init__(self):
        # id(reparameterized surface) -> (that surface, the surface before).
        self._truth: dict = {}

    def hooks(self) -> dict:
        table = {
            "diffeos.pullback": self._pullback,
            "registration.register": self._register,
            "registration.optimize_reparam": self._optimize_reparam,
            "shape_stats.register_cohort": self._register_cohort,
            "regression.stepwise_bidirectional": self._stepwise,
            "baseline.icp_register": self._icp,
        }
        for fn in _FILEIO:
            table[f"fileio.{fn}"] = self._bytes_written
        return table

    def _pullback(self, call, tracer):
        self._truth[id(call.result)] = (call.result, call.arg("f"))

    def _register(self, call, tracer):
        parent = call.frame.parent
        if parent is not None and parent.name == "shape_stats.register_cohort":
            tracer.add("register_cohort.busy_s", call.seconds)
        f1, f2 = call.arg("f1"), call.arg("f2")
        known = self._truth.get(id(f2))
        if known is None or known[0] is not f2:
            return
        srnf = tracer.originals["srnf.srnf"]
        norm = tracer.originals["srnf.norm"]
        q1, q_true = srnf(f1), srnf(known[1])
        true_dist = norm(type(q1)(grid=q1.grid, q=q1.q - q_true.q))
        tracer.add("excess_dist.sum", call.result.distance - true_dist)
        tracer.add("excess_dist.n", 1)

    @staticmethod
    def _optimize_reparam(call, tracer):
        tracer.add("accepted_steps", len(call.result[1]) - 1)

    @staticmethod
    def _register_cohort(call, tracer):
        tracer.add("register_cohort.capacity_s", call.seconds * call.arg("threads"))

    @staticmethod
    def _stepwise(call, tracer):
        tracer.add("stepwise.moves", len(call.result.trace) - 1)

    @staticmethod
    def _icp(call, tracer):
        tracer.add("icp.iters", len(call.result.rms_trace))

    @staticmethod
    def _bytes_written(call, tracer):
        tracer.add("bytes_written", Path(call.arg("path")).stat().st_size)


def merge(summaries: list) -> dict:
    """Sum tracer summaries of several processes into one."""
    out = {"root_s": 0.0, "spans": {}, "via": {}, "quantities": {}}
    for s in summaries:
        out["root_s"] += s["root_s"]
        for name, st in s["spans"].items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0,
                       "durations_s": []})
            for key in ("calls", "raised", "total_s", "self_s"):
                acc[key] += st[key]
            acc["durations_s"] += st["durations_s"]
        for key, st in s["via"].items():
            acc = out["via"].setdefault(key, {"calls": 0, "total_s": 0.0})
            acc["calls"] += st["calls"]
            acc["total_s"] += st["total_s"]
        for key, value in s["quantities"].items():
            out["quantities"][key] = out["quantities"].get(key, 0.0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def not_observed(summary: dict) -> bool:
    """True when cohorts were registered but no register span was seen.

    That happens once registration runs in worker processes, which the
    tracer (installed in the CLI process only) cannot reach.
    """
    spans = summary["spans"]
    return ("shape_stats.register_cohort" in spans
            and "registration.register" not in spans)


def cohort_wall_ms(summary: dict) -> float:
    """Inclusive register_cohort time of a merged summary."""
    return 1e3 * summary["spans"].get("shape_stats.register_cohort", {}).get("total_s", 0.0)


def per_layer_metrics(summary: dict, probes: dict, serial_cohort_ms: float,
                      overhead_frac: float) -> dict:
    """name -> value for every row of PER_LAYER.

    summary: merged tracer summary of the workload's traced CLI commands.
    probes: figures from probes.py (planted probe and micro-timings).
    serial_cohort_ms: register_cohort wall time of the same cohort with
    one worker (the workload's own figure when it runs serially).
    """
    spans, via, qty = summary["spans"], summary["via"], summary["quantities"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_ms(name):
        return 1e3 * spans.get(name, {}).get("self_s", 0.0)

    def total_ms(name):
        return 1e3 * spans.get(name, {}).get("total_s", 0.0)

    def p50_ms(name):
        d = spans.get(name, {}).get("durations_s", [])
        return 1e3 * statistics.median(d) if d else 0.0

    def through(name, namespace):
        return via.get(f"{name}@{namespace}", {"calls": 0, "total_s": 0.0})

    iters = through("sphharm.tangent_basis", "registration")["calls"]
    evals = through("diffeos.jacobian_from_angles", "registration")["calls"]
    cohort_ms = cohort_wall_ms(summary)

    m = {
        "registration.register.calls": calls("registration.register"),
        "registration.register.self_ms": self_ms("registration.register"),
        "registration.register.p50_ms": p50_ms("registration.register"),
        "registration.optimize_reparam.calls": calls("registration.optimize_reparam"),
        "registration.optimize_reparam.self_ms": self_ms("registration.optimize_reparam"),
        "registration.iters": iters,
        "registration.accepted_steps": qty.get("accepted_steps", 0.0),
        "registration.objective_evals": evals,
        "registration.evals_per_iter": _ratio(evals, iters),
        "registration.ms_per_iter": _ratio(total_ms("registration.optimize_reparam"), iters),
        "registration.optimal_rotation.calls": calls("registration.optimal_rotation"),
        "registration.optimal_rotation.self_ms": self_ms("registration.optimal_rotation"),
        "registration.excess_dist": _ratio(qty.get("excess_dist.sum", 0.0),
                                           qty.get("excess_dist.n", 0.0)),
        "sphharm.tangent_basis.calls": calls("sphharm.tangent_basis"),
        "sphharm.tangent_basis.self_ms": self_ms("sphharm.tangent_basis"),
        "sphharm.tangent_basis.share": _ratio(
            1e3 * through("sphharm.tangent_basis", "registration")["total_s"],
            total_ms("registration.register")),
        "srnf.srnf.calls": calls("srnf.srnf"),
        "srnf.srnf.self_ms": self_ms("srnf.srnf"),
        "shape_stats.register_cohort.wall_ms": cohort_ms,
        "shape_stats.register_cohort.busy_ms": 1e3 * qty.get("register_cohort.busy_s", 0.0),
        "shape_stats.register_cohort.parallel_eff": _ratio(
            qty.get("register_cohort.busy_s", 0.0),
            qty.get("register_cohort.capacity_s", 0.0)),
        "shape_stats.register_cohort.speedup": _ratio(serial_cohort_ms, cohort_ms),
        "shape_stats.shape_pca.self_ms": self_ms("shape_stats.shape_pca"),
        "regression.run_model_suite.self_ms": self_ms("regression.run_model_suite"),
        "regression.stepwise_bidirectional.calls": calls("regression.stepwise_bidirectional"),
        "regression.stepwise_bidirectional.self_ms": self_ms(
            "regression.stepwise_bidirectional"),
        "regression.stepwise_bidirectional.moves": qty.get("stepwise.moves", 0.0),
        "regression.ols_fit.calls": calls("regression.ols_fit"),
        "regression.ols_fit.self_ms": self_ms("regression.ols_fit"),
        "regression.ols_fit.p50_us": 1e3 * p50_ms("regression.ols_fit"),
        "regression.ols_fit.fail_frac": _ratio(
            spans.get("regression.ols_fit", {}).get("raised", 0),
            calls("regression.ols_fit")),
        "regression.design_matrix.calls": calls("regression.design_matrix"),
        "regression.design_matrix.self_ms": self_ms("regression.design_matrix"),
        "baseline.icp_register.calls": calls("baseline.icp_register"),
        "baseline.icp_register.self_ms": self_ms("baseline.icp_register"),
        "baseline.icp_register.iters": qty.get("icp.iters", 0.0),
        "fileio.bytes_written": qty.get("bytes_written", 0.0),
        "cli.self_ms": sum(1e3 * st["self_s"] for name, st in spans.items()
                           if name.startswith("cli.")),
        "trace.overhead_frac": overhead_frac,
    }
    for module, names in (("diffeos", _DIFFEOS), ("grids", _GRIDS)):
        for fn in names:
            m[f"{module}.{fn}.calls"] = calls(f"{module}.{fn}")
            m[f"{module}.{fn}.self_ms"] = self_ms(f"{module}.{fn}")
    for fn in _BASELINE_SELF:
        m[f"baseline.{fn}.self_ms"] = self_ms(f"baseline.{fn}")
    for fn in _FILEIO:
        m[f"fileio.{fn}.calls"] = calls(f"fileio.{fn}")
        m[f"fileio.{fn}.self_ms"] = self_ms(f"fileio.{fn}")
    m.update(probes)

    if not_observed(summary):
        for name, unit, _ in PER_LAYER:
            if name.startswith(_REGISTRATION_LAYERS) and unit == "count":
                m[name] = NOT_OBSERVED
    return m
