"""Command line pipeline driver.

Every subcommand runs through one runner: it reads the command's
defaults and the optional JSON config over them, resolves the
registration options, runs the command's body, and writes the files the
body returns plus a manifest.json with the fully resolved configuration,
the command's other arguments, and exactly the files written.  The
manifest's "config" holds only keys the command's --config accepts, so
fed back it reproduces the run; flags and the values a body resolves
(--threads, a model path, regress's --n-ps) are under "arguments".  A
body validates and computes before anything is written, so a run that
fails leaves no output directory.

Each setting has one source.  A command's defaults table is the only
declaration of its config keys: a config may hold no other key, and
each value must have the kind of its default (an integer or a number).
Every command takes --out and --verbose.  simulate, compare and mean
also take --config and --threads; register takes --config; pca, scores,
export-path and regress take only their own arguments.

simulate and compare take their seeded two-class cohort from
`synthetic.shape_line_cohort` and reparameterize each subject at
random; this module builds no cohort of its own.

Exit codes: 0 success, 2 configuration error, 3 input error (a missing,
malformed or inconsistent input file: surface, model or CSV table), 4
numerical failure.

At import the module loads only the standard library, numpy, `errors`
and `fileio`, whose CSV and JSON readers load no geometry.  Each command
body imports what it runs, so `--version` loads no other package module
and `regress` adds `regression` alone, not the registration stack.  The
imports are function-local, not module globals set on first use, so
code that wraps module functions for the length of a run (a tracer)
leaves none of its wrappers behind in this module.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .errors import ConfigError, InputError, NumericalError
from .fileio import (
    check_keys,
    export_obj,
    load_json_object,
    load_model,
    load_surface,
    read_numeric_table,
    save_model,
    save_surface,
    write_csv,
    write_matrix_csv,
)

if TYPE_CHECKING:
    from .regression import CovariateTable
    from .registration import RegistrationOpts

logger = logging.getLogger(__name__)

__all__ = ["main"]

# A "registration" entry holds the command's default registration
# options; a config's registration entries override them one by one.
_SIM_DEFAULTS = {
    "n_subjects": 40,
    "displacement": 1.2,
    "mean_amplitude": 0.3,
    "perturb_magnitude": 0.5,
    "seed": 0,
    "grid": "32x32",
    "registration": {"max_iters": 50, "rounds": 2, "tol_rel": 1e-4},
}

_CMP_DEFAULTS = {
    "n_per_class": 8,
    "displacement": 0.5,
    "mean_amplitude": 0.3,
    "perturb_magnitude": 0.5,
    "seed": 0,
    "grid": "32x32",
    "registration": {"max_iters": 40, "rounds": 2, "tol_rel": 1e-4},
}

# Shape-line cohort keys that must be positive, and those that must not be negative.
_POSITIVE_KEYS = ("displacement",)
_NONNEGATIVE_KEYS = ("seed", "mean_amplitude", "perturb_magnitude")


def _parse_grid(text: str) -> tuple[int, int]:
    from .grids import MIN_GRID_DIM

    m = re.fullmatch(r"(\d+)x(\d+)", str(text).strip().lower())
    if not m:
        raise ConfigError(f"bad grid '{text}', expected N_UxN_V like 32x32")
    dims = int(m.group(1)), int(m.group(2))
    if min(dims) < MIN_GRID_DIM:
        raise ConfigError(f"bad grid '{text}': each dimension must be at least {MIN_GRID_DIM}")
    return dims


def _reg_opts(overrides: dict) -> RegistrationOpts:
    from .registration import RegistrationOpts

    allowed = {f.name for f in dataclass_fields(RegistrationOpts)}
    check_keys(overrides, allowed, "registration options")
    try:
        return RegistrationOpts(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"registration options: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else f"{args.command}-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, config: dict, inputs, outputs) -> None:
    """The run's record: its config (a --config file that reproduces it),
    its other arguments as the body resolved them, and the files it read
    and wrote."""
    arguments = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "out", "verbose")}
    payload = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "arguments": arguments,
        "inputs": [str(p) for p in inputs],
        "outputs": sorted(outputs),
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    (out / "manifest.json").write_text(text + "\n", encoding="utf-8")


def _ids(n: int) -> list:
    return [f"s{i:03d}" for i in range(n)]


def _load_surfaces(paths) -> list:
    """Surface files that must share one grid; InputError names the first
    file whose grid differs from the first file's."""
    surfaces = [load_surface(p) for p in paths]
    first = surfaces[0].grid
    for p, f in zip(paths, surfaces):
        if not f.grid.same_dims(first):
            raise InputError(
                f"{p}: grid {f.grid.n_u}x{f.grid.n_v} does not match "
                f"{paths[0]} ({first.n_u}x{first.n_v})"
            )
    return surfaces


def _pairwise_field_dist(fields: list) -> np.ndarray:
    """Pairwise L2 distances between transform fields on a shared grid."""
    cell = fields[0].grid.cell_measure
    flat = np.stack([f.q.reshape(-1) for f in fields])
    gram = flat @ flat.T * cell
    sq = np.diag(gram)
    d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0, None)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def _perturbed_cohort(cfg: dict, n: int, salt: int):
    """The shape-line cohort of a simulate or compare config, and each of
    its subjects reparameterized by a seeded random diffeomorphism."""
    from .diffeos import pullback, random_diffeo
    from .grids import make_grid
    from .synthetic import shape_line_cohort

    grid = make_grid(*_parse_grid(cfg["grid"]))
    mean, cohort = shape_line_cohort(
        grid, cfg["seed"], n, float(cfg["displacement"]), float(cfg["mean_amplitude"])
    )
    seeds = np.random.SeedSequence([cfg["seed"], salt]).generate_state(n)
    magnitude = float(cfg["perturb_magnitude"])
    perturbed = [
        pullback(f, random_diffeo(grid, int(s), magnitude))
        for f, s in zip(cohort.surfaces, seeds)
    ]
    return mean, cohort, perturbed


def _table(matrix, header):
    """Writer of a numeric matrix with a header row (see `_run`)."""
    return partial(write_matrix_csv, matrix=matrix, header=header)


def _rows(header, rows):
    """Writer of mixed-type rows with a header row (see `_run`)."""
    return partial(write_csv, header=header, rows=rows)


def _cumvar_table(cv):
    """Writer of a cumulative-variance table: depth d and its fraction."""
    return _table(np.column_stack([np.arange(1, len(cv) + 1), cv]), ["d", "fraction"])


def _labels_table(cohort):
    """Writer of a shape-line cohort's labels.csv: id, label, coefficient."""
    ids = _ids(len(cohort.labels))
    return _rows(["id", "label", "coefficient"], zip(ids, cohort.labels, cohort.coefficients))


def cmd_simulate(args, cfg):
    """Cohort on one shape line: distances and cluster accuracy at three stages.

    Stage one scores the cohort as constructed (already in vertex
    correspondence), stage two after seeded random reparameterizations,
    stage three after registering every perturbed surface to the known
    mean.  Writes a distance matrix and MDS coordinates per stage plus
    the 1-NN accuracy summary.
    """
    from .baseline import classical_mds, knn_accuracy
    from .registration import RegistrationOpts
    from .shape_stats import register_cohort
    from .srnf import srnf

    n = cfg["n_subjects"]
    if n < 4:
        raise ConfigError("n_subjects must be at least 4")

    mean, cohort, perturbed = _perturbed_cohort(cfg, n, 1)
    ids = _ids(n)

    stages = {}
    stages["registered"] = _pairwise_field_dist([srnf(f) for f in cohort.surfaces])
    stages["perturbed"] = _pairwise_field_dist([srnf(f) for f in perturbed])

    opts = RegistrationOpts(**cfg["registration"])
    results = register_cohort(mean, perturbed, opts, threads=args.threads)
    stages["reregistered"] = _pairwise_field_dist([srnf(r.aligned) for r in results])

    artifacts = {}
    accuracy = {}
    for stage, dist in stages.items():
        artifacts[f"dist_{stage}.csv"] = _table(dist, ids)
        artifacts[f"mds_{stage}.csv"] = _rows(["x1", "x2"], classical_mds(dist, 2).coords)
        accuracy[stage] = knn_accuracy(dist, cohort.labels)
    artifacts["labels.csv"] = _labels_table(cohort)
    artifacts["accuracy.csv"] = _rows(["stage", "accuracy"], accuracy.items())
    summary = [f"{stage} 1-NN accuracy: {acc:.3f}" for stage, acc in accuracy.items()]
    return [], artifacts, summary


def cmd_register(args, cfg):
    """Align one surface to another; write the aligned surface, rotation,
    reparameterization Jacobian field, and objective trace."""
    from .diffeos import jacobian_det
    from .registration import RegistrationOpts, register

    f1, f2 = _load_surfaces([args.fixed, args.moving])

    res = register(f1, f2, RegistrationOpts(**cfg["registration"]))
    u_names = [f"u{i}" for i in range(f1.grid.n_u)]
    artifacts = {
        "aligned.surf": partial(save_surface, res.aligned),
        "rotation.csv": _table(res.rotation, ["c1", "c2", "c3"]),
        "jacobian.csv": _table(jacobian_det(res.reparam), u_names),
        "trace.csv": _table(np.asarray(res.objective_trace)[:, None], ["objective"]),
    }
    return [args.fixed, args.moving], artifacts, [f"distance: {res.distance:.8g}"]


def cmd_mean(args, cfg):
    """Iterative mean shape of the input surfaces plus the registered set."""
    from .registration import RegistrationOpts
    from .shape_stats import karcher_mean

    surfaces = _load_surfaces(args.surfaces)
    result = karcher_mean(
        surfaces, RegistrationOpts(**cfg["registration"]), threads=args.threads
    )
    artifacts = {"mean.surf": partial(save_surface, result.mean)}
    for i, f in enumerate(result.registered):
        artifacts[f"registered_{i:03d}.surf"] = partial(save_surface, f)
    artifacts["variance.csv"] = _table(
        np.asarray(result.variance_trace)[:, None], ["variance"]
    )
    return args.surfaces, artifacts, [f"final variance: {result.variance_trace[-1]:.8g}"]


def cmd_pca(args, cfg):
    """Principal component model of registered surfaces about a mean."""
    from .shape_stats import cumulative_variance, shape_pca

    mean, *surfaces = _load_surfaces([args.mean, *args.surfaces])
    model = shape_pca(surfaces, mean)
    cv = cumulative_variance(model)
    artifacts = {
        "model.eshm": partial(save_model, model),
        "cumvar.csv": _cumvar_table(cv),
    }
    summary = [
        f"directions: {model.n_directions}; "
        f"first cumulative fraction: {cv[0]:.4f}"
    ]
    return [args.mean, *args.surfaces], artifacts, summary


def cmd_scores(args, cfg):
    """Principal scores of surfaces under a saved model, with the
    reconstruction error at the chosen depth."""
    from .shape_stats import pc_scores, reconstruct

    model = load_model(args.model)
    depth = args.depth if args.depth else model.n_directions
    if not 1 <= depth <= model.n_directions:
        raise ConfigError(
            f"depth {depth} out of range 1..{model.n_directions}"
        )
    args.depth = depth

    ids, score_rows, err_rows = [], [], []
    worst = 0.0
    for p in args.surfaces:
        f = load_surface(p)
        if not f.grid.same_dims(model.mean.grid):
            raise InputError(f"{p}: grid does not match the model")
        z = pc_scores(f, model, depth)
        rebuilt = reconstruct(z, model)
        scale = max(float(np.linalg.norm(f.flat())), 1e-300)
        rel = float(np.linalg.norm(rebuilt.flat() - f.flat())) / scale
        worst = max(worst, rel)
        name = Path(p).stem
        while name in ids:
            name += "_"
        ids.append(name)
        score_rows.append([name, *z])
        err_rows.append([name, rel])

    header = ["id"] + [f"z{k}" for k in range(1, depth + 1)]
    artifacts = {
        "scores.csv": _rows(header, score_rows),
        "recon_error.csv": _rows(["id", "rel_error"], err_rows),
    }
    summary = [f"max reconstruction relative error at depth {depth}: {worst:.3e}"]
    return [args.model, *args.surfaces], artifacts, summary


def cmd_export_path(args, cfg):
    """Mesh frames along one principal direction with per-node difference
    fields against the mean."""
    from .shape_stats import diff_field, pc_path

    model = load_model(args.model)
    k = args.component
    if k < 1:
        raise ConfigError("component must be at least 1")
    if k > model.n_directions:
        raise InputError(
            f"component {k} out of range: model has {model.n_directions}"
        )
    if args.frames < 2:
        raise ConfigError("frames must be at least 2")
    if not np.isfinite(args.t_max) or args.t_max <= 0:
        raise ConfigError(f"t-max must be a positive finite number, got {args.t_max}")

    u_names = [f"u{i}" for i in range(model.mean.grid.n_u)]
    # A t-max that is finite but so large that the t values, a frame or a
    # squared difference overflows is a configuration error.
    try:
        with np.errstate(over="raise"):
            t_values = np.linspace(-args.t_max, args.t_max, args.frames)
            frames = pc_path(model, k - 1, t_values)
            diffs = [diff_field(fr, model.mean) for fr in frames]
    except FloatingPointError:
        raise ConfigError(f"t-max {args.t_max} is too large: the path overflows") from None
    artifacts = {"t_values.csv": _table(t_values[:, None], ["t"])}
    for j, (fr, diff) in enumerate(zip(frames, diffs)):
        artifacts[f"frame_{j:03d}.obj"] = partial(export_obj, fr)
        artifacts[f"diff_{j:03d}.csv"] = _table(diff, u_names)
    return [args.model], artifacts, [f"wrote {args.frames} frames along component {k}"]


def _read_scores_csv(path, cov: CovariateTable) -> np.ndarray:
    """Score table for one structure, reordered to the covariate subjects.

    With an id column, rows are matched by id; otherwise row order must
    match the covariate file and the row count must agree.  Every score
    must be a finite number.
    """
    path = Path(path)

    def columns(header):
        first = 1 if header[0].strip().lower() == "id" else 0
        if len(header) == first:
            raise InputError(f"{path}: no score columns")
        return (0 if first else None), range(first, len(header))

    ids, mat = read_numeric_table(path, columns)
    if ids is not None:
        row_of = {s: i for i, s in enumerate(ids)}
        missing = [s for s in cov.ids if s not in row_of]
        if missing:
            raise InputError(
                f"{path}: missing scores for subjects: {', '.join(missing[:5])}"
            )
        mat = mat[[row_of[s] for s in cov.ids]]
    if mat.shape[0] != cov.n_subjects:
        raise InputError(
            f"{path}: {mat.shape[0]} rows for {cov.n_subjects} subjects"
        )
    return mat


def cmd_regress(args, cfg):
    """Stepwise model suite over covariates and per-structure scores."""
    from .regression import (SUITE_N_INTERACT_PS, SUITE_N_PS, CovariateTable,
                             run_model_suite)

    scores_map = {}
    for entry in args.scores or []:
        struct, eq, path = entry.partition("=")
        if not eq:
            raise ConfigError(f"--scores needs STRUCT=PATH, got '{entry}'")
        if struct in scores_map:
            raise ConfigError(f"--scores given twice for structure '{struct}'")
        if not struct or any(c in struct for c in ",()"):  # as in ps(shape,1)
            raise ConfigError(f"--scores '{entry}': structure name must be nonempty, "
                              "without ',', '(' or ')'")
        if not path:
            raise ConfigError(f"--scores '{entry}': the path must name a file")
        scores_map[struct] = path
    if not scores_map:
        raise ConfigError("no score tables (use --scores STRUCT=PATH)")

    strict = not args.lenient
    cov = CovariateTable.from_csv(args.covariates, strict=strict)
    scores = {s: _read_scores_csv(p, cov) for s, p in sorted(scores_map.items())}
    available = min(m.shape[1] for m in scores.values())
    n_ps = min(SUITE_N_PS, available) if args.n_ps is None else args.n_ps
    if n_ps < 1:
        raise ConfigError(f"n_ps must be at least 1, got {n_ps}")
    if n_ps > available:
        raise InputError(
            f"n_ps {n_ps} exceeds available score columns ({available})"
        )
    n_interact = (min(SUITE_N_INTERACT_PS, n_ps) if args.n_interact_ps is None
                  else args.n_interact_ps)
    if not 0 <= n_interact <= n_ps:
        raise ConfigError(f"n_interact_ps must lie in 0..n_ps, got {n_interact}")
    args.n_ps, args.n_interact_ps = n_ps, n_interact

    suite = run_model_suite(
        cov, scores, n_ps=n_ps, n_interact_ps=n_interact, criterion=args.criterion
    )
    model_rows, term_rows, summary = [], [], []
    for model_id, (spec, result) in suite.items():
        fit = result.fit
        model_rows.append([model_id, spec.response, fit.adj_r_squared, len(fit.terms)])
        term_rows += [[model_id, term, coef, "+" if coef >= 0 else "-", p_value]
                      for term, coef, p_value in zip(fit.terms, fit.coefficients,
                                                     fit.p_values)
                      if term != "intercept"]
        summary.append(f"model {model_id} ({spec.response}): "
                       f"adj R2 {fit.adj_r_squared:.4f}, {len(fit.terms)} terms")
    artifacts = {
        "models.csv": _rows(
            ["model_id", "response", "adj_r_squared", "n_terms"], model_rows
        ),
        "selected_terms.csv": _rows(
            ["model_id", "term", "coefficient", "sign", "p_value"], term_rows
        ),
    }
    return [args.covariates, *scores_map.values()], artifacts, summary


def cmd_compare(args, cfg):
    """Elastic vs vertex-wise pipeline on a mis-parameterized two-class cohort.

    Builds two shape classes on one direction and perturbs every surface
    by a seeded random reparameterization.  The elastic arm registers
    each surface to the cohort mean; the vertex arm ICP-aligns each to
    the first subject and puts the cloud back on the grid.  Each arm is
    then scored the same way: the inter/intra class distances, and the
    cumulative variance of `shape_pca` about the arm's arithmetic mean.
    """
    from .baseline import class_distances, icp_register
    from .registration import RegistrationOpts
    from .shape_stats import cumulative_variance, register_cohort, shape_pca

    m = cfg["n_per_class"]
    if m < 2:
        raise ConfigError("n_per_class must be at least 2")
    n = 2 * m

    mean, cohort, perturbed = _perturbed_cohort(cfg, n, 2)
    labels = cohort.labels

    opts = RegistrationOpts(**cfg["registration"])
    reference = perturbed[0].points.reshape(-1, 3)
    arms = {
        "elastic": [r.aligned for r in
                    register_cohort(mean, perturbed, opts, threads=args.threads)],
        "vertex": [mean.with_points(icp_register(reference, f.points.reshape(-1, 3))
                                    .aligned.reshape(mean.points.shape)) for f in perturbed],
    }
    rows, cumvars = [], {}
    for name, surfaces in arms.items():
        d_inter, d_intra = class_distances(surfaces, labels)
        rows.append([name, d_inter, d_intra, d_inter - d_intra])
        stacked = np.stack([f.points for f in surfaces])
        cv = cumulative_variance(shape_pca(surfaces, mean.with_points(stacked.mean(axis=0))))
        cumvars[f"cumvar_{name}.csv"] = _cumvar_table(cv)
    artifacts = {
        "class_distances.csv": _rows(["pipeline", "d_inter", "d_intra", "margin"], rows),
        **cumvars,
        "labels.csv": _labels_table(cohort),
    }
    summary = [f"{name + ':':<8} d_inter {d_inter:.6g}, d_intra {d_intra:.6g}"
               for name, d_inter, d_intra, _ in rows]
    return [], artifacts, summary


def _arg(*names, **kwargs):
    """One argparse argument, as add_argument takes it."""
    return names, kwargs


@dataclass(frozen=True)
class _Command:
    """A subcommand: its body (see `_run`), help text, its config keys
    with their defaults (a command without any takes no --config),
    whether it takes --threads, and its own arguments."""

    body: Callable
    help: str
    defaults: dict = field(default_factory=dict)
    threads: bool = False
    arguments: tuple = ()


_MODEL = _arg("--model", required=True, help="model file")
_COMMANDS = {
    "simulate": _Command(
        cmd_simulate, "distance/accuracy study across reparameterization stages",
        _SIM_DEFAULTS, threads=True),
    "register": _Command(
        cmd_register, "align one surface to another", {"registration": {}},
        arguments=(_arg("fixed", help="target surface file"),
                   _arg("moving", help="surface to align"))),
    "mean": _Command(
        cmd_mean, "iterative mean shape of a cohort", {"registration": {}}, threads=True,
        arguments=(_arg("surfaces", nargs="+", help="surface files"),)),
    "pca": _Command(
        cmd_pca, "principal components of registered surfaces",
        arguments=(_arg("--mean", required=True, help="mean surface file"),
                   _arg("surfaces", nargs="+", help="registered surface files"))),
    "scores": _Command(
        cmd_scores, "principal scores under a saved model",
        arguments=(_MODEL,
                   _arg("--depth", type=int, default=0, help="score count (0 = all)"),
                   _arg("surfaces", nargs="+", help="surface files"))),
    "export-path": _Command(
        cmd_export_path, "mesh frames along a principal direction",
        arguments=(_MODEL,
                   _arg("--component", type=int, default=1, help="direction, 1-based"),
                   _arg("--frames", type=int, default=7, help="frame count"),
                   _arg("--t-max", type=float, default=2.0, dest="t_max",
                        help="path endpoint in singular-value units"))),
    "regress": _Command(
        cmd_regress, "stepwise covariate/score model suite",
        arguments=(_arg("--covariates", required=True, help="covariate CSV"),
                   _arg("--scores", action="append", default=None, metavar="STRUCT=PATH",
                        help="score table for one structure"),
                   _arg("--criterion", choices=("aic", "bic"), default="aic"),
                   _arg("--n-ps", type=int, default=None, dest="n_ps"),
                   _arg("--n-interact-ps", type=int, default=None, dest="n_interact_ps"),
                   _arg("--lenient", action="store_true",
                        help="log range violations instead of failing"))),
    "compare": _Command(
        cmd_compare, "elastic vs vertex-wise pipeline comparison",
        _CMP_DEFAULTS, threads=True),
}


def _resolve(cmd: _Command, args) -> dict:
    """The command's config: its defaults, then the --config file over them.

    A value must have its default's kind: an integer for an int, any
    number (finite, as the JSON reader checks) for a float; a bool is
    neither.
    """
    if cmd.threads and args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    if not cmd.defaults:
        return {}
    loaded = {} if args.config is None else load_json_object(args.config)
    cfg = {**cmd.defaults, **loaded}
    check_keys(cfg, cmd.defaults, f"{args.command} config")
    for key, default in cmd.defaults.items():
        value = cfg[key]
        if not isinstance(default, (int, float)):
            continue
        kind, types = (("an integer", int) if isinstance(default, int)
                       else ("a number", (int, float)))
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"{args.command} config: {key} must be {kind}, got {value!r}")
        if (key in _POSITIVE_KEYS and value <= 0) or (key in _NONNEGATIVE_KEYS and value < 0):
            bound = "positive" if key in _POSITIVE_KEYS else "nonnegative"
            raise ConfigError(f"{args.command} config: {key} must be {bound}, got {value!r}")
    if "grid" in cfg:
        cfg["grid"] = "{}x{}".format(*_parse_grid(cfg["grid"]))
    if "registration" in cfg:
        if not isinstance(cfg["registration"], dict):
            raise ConfigError("registration options must be a JSON object")
        reg = {**cmd.defaults["registration"], **cfg["registration"]}
        cfg["registration"] = asdict(_reg_opts(reg))
    return cfg


def _run(cmd: _Command, args) -> int:
    """Resolve the config, run the body, write its files and the manifest.

    The body returns (inputs, artifacts, summary): the input paths, output
    file name -> function writing that file to a path, and lines to print.
    An argument whose value the body resolves (a default of "all", say) it
    sets on `args`, which the manifest records beside the config.
    """
    cfg = _resolve(cmd, args)
    inputs, artifacts, summary = cmd.body(args, cfg)
    out = _out_dir(args)
    for name, write in artifacts.items():
        write(out / name)
    _write_manifest(out, args, cfg, inputs, artifacts)
    for line in summary:
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastishape",
        description="Elastic shape analysis pipeline for closed surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.defaults:
            p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory (default <command>-out)")
        if cmd.threads:
            p.add_argument("--threads", type=int, default=1,
                           help="registration threads (1 registers serially)")
        p.add_argument("--verbose", action="store_true", help="info logging")
        for names, kwargs in cmd.arguments:
            p.add_argument(*names, **kwargs)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _run(_COMMANDS[args.command], args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        name = exc.filename if exc.filename else str(exc)
        if isinstance(exc, IsADirectoryError):
            print(f"error: input path is a directory: {name}", file=sys.stderr)
        else:
            print(f"error: missing input file: {name}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
