"""Command line pipeline driver.

Every subcommand runs through one runner: it reads the command's
defaults and the optional JSON config over them (unknown keys are
rejected), overlays the common flags the command reads, resolves the
registration options, runs the command's body, and writes the files the
body returns plus a manifest.json with the fully resolved configuration
and exactly the files written.  A body validates and computes before
anything is written, so a run that fails leaves no output directory.

Every command takes --out and --verbose.  simulate and compare also
take --config --seed --threads --grid; mean takes --config --seed
--threads; register, pca and regress take --config; scores and
export-path take no other common flag.

Exit codes: 0 success, 2 configuration error, 3 input error (a missing,
malformed or inconsistent input file: surface, model or CSV table), 4
numerical failure.
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
from typing import Callable

import numpy as np

from . import __version__
from .baseline import (
    class_distances,
    classical_mds,
    icp_register,
    knn_accuracy,
    vertex_pca,
)
from .diffeos import jacobian_det, pullback, random_diffeo
from .errors import ConfigError, InputError, NumericalError
from .fileio import (
    check_keys,
    export_obj,
    id_column,
    load_json_object,
    load_model,
    load_surface,
    numeric_columns,
    read_csv,
    save_model,
    save_surface,
    write_csv,
    write_matrix_csv,
)
from .grids import make_grid
from .regression import CovariateTable, run_model_suite
from .registration import RegistrationOpts, register
from .shape_stats import (
    cumulative_variance,
    diff_field,
    karcher_mean,
    pc_path,
    pc_scores,
    reconstruct,
    register_cohort,
    shape_pca,
)
from .srnf import srnf
from .synthetic import gen_pca_cohort, gen_surface, radial_bump

logger = logging.getLogger(__name__)

__all__ = ["main"]

# A "registration" entry holds the command's default registration
# options; a config's registration entries override them one by one.
_SIM_DEFAULTS = {
    "n_subjects": 40,
    "displacement": 1.2,
    "mean_amplitude": 0.3,
    "perturb_magnitude": 0.5,
    "flow_degree": 3,
    "seed": 0,
    "grid": "32x32",
    "registration": {"max_iters": 50, "rounds": 2, "tol_rel": 1e-4},
}

_CMP_DEFAULTS = {
    "n_per_class": 8,
    "amplitude": 0.5,
    "mean_amplitude": 0.3,
    "perturb_magnitude": 0.5,
    "flow_degree": 3,
    "seed": 0,
    "grid": "32x32",
    "registration": {"max_iters": 40, "rounds": 2, "tol_rel": 1e-4},
}

# Successive mean-shape seeds tried before a bump amplitude is rejected.
_MEAN_SEED_ATTEMPTS = 8


def _pick(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _parse_grid(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", str(text).strip().lower())
    if not m:
        raise ConfigError(f"bad grid '{text}', expected N_UxN_V like 32x32")
    return int(m.group(1)), int(m.group(2))


def _reg_opts(overrides: dict) -> RegistrationOpts:
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


def _write_manifest(out: Path, command: str, config: dict, inputs, outputs) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": sorted(outputs),
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    (out / "manifest.json").write_text(text + "\n")


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


def _radial_direction(grid, seed: int, degree: int) -> np.ndarray:
    """Unit flattened direction field: seeded harmonic bumps along the radius."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    bump = radial_bump(grid, degree, rng)
    v = (bump[..., None] * grid.nodes()).reshape(-1)
    nn = float(np.linalg.norm(v))
    if nn <= 0:
        raise NumericalError("degenerate perturbation direction")
    return v / nn


def _shape_line_cohort(grid, seed: int, n: int, displacement: float,
                       mean_amplitude: float, degree: int):
    """Two-class cohort mean + x*v around a seeded bumpy mean.

    Coefficient magnitudes stay in [displacement/2, displacement] so no
    subject sits on the class boundary closer than the registration
    residual can resolve, and the bumpy mean pins the registration
    frame, which a rotationally symmetric template would leave free.
    The mean takes the first of the successive SeedSequence([seed, 5])
    states whose bumps keep the radius positive; after
    _MEAN_SEED_ATTEMPTS states the last ConfigError is raised.
    """
    for mean_seed in np.random.SeedSequence([seed, 5]).generate_state(_MEAN_SEED_ATTEMPTS):
        try:
            mean = gen_surface(
                "bumpy-sphere", grid, amplitude=mean_amplitude, degree=degree,
                seed=int(mean_seed),
            )
            break
        except ConfigError as exc:
            error = exc
    else:
        raise error
    direction = _radial_direction(grid, seed, degree)
    half = (n + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    mags = (0.5 + 0.5 * rng.random(n)) * displacement
    coeffs = np.where(np.arange(n) < half, mags, -mags)
    return mean, gen_pca_cohort(mean, direction, n, seed, coefficients=coeffs)


def _pairwise_field_dist(fields: list) -> np.ndarray:
    """Pairwise L2 distances between transform fields on a shared grid."""
    cell = fields[0].grid.cell_measure
    flat = np.stack([f.q.reshape(-1) for f in fields])
    gram = flat @ flat.T * cell
    sq = np.diag(gram)
    d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0, None)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def _perturbed_cohort(cfg: dict, n: int, displacement: float, salt: int):
    """The shape-line cohort of a simulate or compare config, and each of
    its subjects reparameterized by a seeded random diffeomorphism."""
    grid = make_grid(*_parse_grid(cfg["grid"]))
    mean, cohort = _shape_line_cohort(
        grid, cfg["seed"], n, displacement,
        float(cfg["mean_amplitude"]), int(cfg["flow_degree"]),
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


def cmd_simulate(args, cfg):
    """Cohort on one shape line: distances and cluster accuracy at three stages.

    Stage one scores the cohort as constructed (already in vertex
    correspondence), stage two after seeded random reparameterizations,
    stage three after registering every perturbed surface to the known
    mean.  Writes a distance matrix and MDS coordinates per stage plus
    the 1-NN accuracy summary.
    """
    n = int(cfg["n_subjects"])
    if n < 4:
        raise ConfigError("n_subjects must be at least 4")

    mean, cohort, perturbed = _perturbed_cohort(cfg, n, float(cfg["displacement"]), 1)
    ids = _ids(n)
    labels = cohort.labels

    stages = {}
    stages["registered"] = _pairwise_field_dist([srnf(f) for f in cohort.surfaces])
    stages["perturbed"] = _pairwise_field_dist([srnf(f) for f in perturbed])

    opts = RegistrationOpts(**cfg["registration"])
    results = register_cohort(mean, perturbed, opts, threads=cfg["threads"])
    stages["reregistered"] = _pairwise_field_dist([srnf(r.aligned) for r in results])

    artifacts = {}
    accuracy = {}
    for stage, dist in stages.items():
        artifacts[f"dist_{stage}.csv"] = _table(dist, ids)
        artifacts[f"mds_{stage}.csv"] = _rows(["x1", "x2"], classical_mds(dist, 2).coords)
        accuracy[stage] = knn_accuracy(dist, labels)
    artifacts["labels.csv"] = _rows(
        ["id", "label", "coefficient"], zip(ids, labels, cohort.coefficients)
    )
    artifacts["accuracy.csv"] = _rows(["stage", "accuracy"], accuracy.items())
    summary = [f"{stage} 1-NN accuracy: {acc:.3f}" for stage, acc in accuracy.items()]
    return [], artifacts, summary


def cmd_register(args, cfg):
    """Align one surface to another; write the aligned surface, rotation,
    reparameterization Jacobian field, and objective trace."""
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
    surfaces = _load_surfaces(args.surfaces)
    init_index = int(cfg["init_index"])
    if not 0 <= init_index < len(surfaces):
        raise ConfigError(
            f"init_index {init_index} out of range for {len(surfaces)} surfaces"
        )

    result = karcher_mean(
        surfaces, RegistrationOpts(**cfg["registration"]), init_index=init_index,
        seed=cfg["seed"], threads=cfg["threads"],
    )
    cfg["init_index"] = result.init_index
    artifacts = {"mean.surf": partial(save_surface, result.mean)}
    for i, f in enumerate(result.registered):
        artifacts[f"registered_{i:03d}.surf"] = partial(save_surface, f)
    artifacts["variance.csv"] = _table(
        np.asarray(result.variance_trace)[:, None], ["variance"]
    )
    return args.surfaces, artifacts, [f"final variance: {result.variance_trace[-1]:.8g}"]


def cmd_pca(args, cfg):
    """Principal component model of registered surfaces about a mean."""
    mean, *surfaces = _load_surfaces([args.mean, *args.surfaces])
    cfg.update(use_squared=bool(cfg["use_squared"]), mean=str(args.mean))

    model = shape_pca(surfaces, mean)
    cv = cumulative_variance(model, use_squared=cfg["use_squared"])
    table = np.column_stack([np.arange(1, len(cv) + 1), cv])
    artifacts = {
        "model.eshm": partial(save_model, model),
        "cumvar.csv": _table(table, ["d", "fraction"]),
    }
    summary = [
        f"directions: {model.n_directions}; "
        f"first cumulative fraction: {cv[0]:.4f}"
    ]
    return [args.mean, *args.surfaces], artifacts, summary


def cmd_scores(args, cfg):
    """Principal scores of surfaces under a saved model, with the
    reconstruction error at the chosen depth."""
    model = load_model(args.model)
    depth = args.depth if args.depth else model.n_directions
    if not 1 <= depth <= model.n_directions:
        raise ConfigError(
            f"depth {depth} out of range 1..{model.n_directions}"
        )
    cfg.update(depth=depth, model=str(args.model))

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
    if args.t_max <= 0:
        raise ConfigError("t-max must be positive")
    cfg.update(component=k, frames=args.frames, t_max=args.t_max, model=str(args.model))

    t_values = np.linspace(-args.t_max, args.t_max, args.frames)
    frames = pc_path(model, k - 1, t_values)
    u_names = [f"u{i}" for i in range(model.mean.grid.n_u)]
    artifacts = {"t_values.csv": _table(t_values[:, None], ["t"])}
    for j, fr in enumerate(frames):
        artifacts[f"frame_{j:03d}.obj"] = partial(export_obj, fr)
        artifacts[f"diff_{j:03d}.csv"] = _table(diff_field(fr, model.mean), u_names)
    return [args.model], artifacts, [f"wrote {args.frames} frames along component {k}"]


def _read_scores_csv(path, cov: CovariateTable) -> np.ndarray:
    """Score table for one structure, reordered to the covariate subjects.

    With an id column, rows are matched by id; otherwise row order must
    match the covariate file and the row count must agree.  Every score
    must be a finite number.
    """
    table = read_csv(path)
    first = 1 if table.header[0].strip().lower() == "id" else 0
    if len(table.header) == first:
        raise InputError(f"{table.path}: no score columns")
    mat = np.column_stack(numeric_columns(table, range(first, len(table.header))))
    if first:
        row_of = {s: i for i, s in enumerate(id_column(table, 0))}
        missing = [s for s in cov.ids if s not in row_of]
        if missing:
            raise InputError(
                f"{table.path}: missing scores for subjects: {', '.join(missing[:5])}"
            )
        mat = mat[[row_of[s] for s in cov.ids]]
    if mat.shape[0] != cov.n_subjects:
        raise InputError(
            f"{table.path}: {mat.shape[0]} rows for {cov.n_subjects} subjects"
        )
    return mat


def cmd_regress(args, cfg):
    """Stepwise model suite over covariates and per-structure scores."""
    scores_map = dict(cfg["scores"])
    for entry in args.scores or []:
        if "=" not in entry:
            raise ConfigError(f"--scores needs STRUCT=PATH, got '{entry}'")
        struct, path = entry.split("=", 1)
        scores_map[struct] = path
    if not scores_map:
        raise ConfigError("no score tables (use --scores STRUCT=PATH or config)")
    criterion = _pick(args.criterion, cfg["criterion"])
    strict = bool(cfg["strict"]) and not args.lenient

    cov = CovariateTable.from_csv(args.covariates, strict=strict)
    scores = {s: _read_scores_csv(p, cov) for s, p in sorted(scores_map.items())}
    available = min(m.shape[1] for m in scores.values())
    n_ps = int(_pick(args.n_ps, cfg["n_ps"], min(15, available)))
    if n_ps < 1:
        raise ConfigError(f"n_ps must be at least 1, got {n_ps}")
    if n_ps > available:
        raise InputError(
            f"n_ps {n_ps} exceeds available score columns ({available})"
        )
    n_interact = int(_pick(args.n_interact_ps, cfg["n_interact_ps"], min(5, n_ps)))
    if not 0 <= n_interact <= n_ps:
        raise ConfigError(f"n_interact_ps must lie in 0..n_ps, got {n_interact}")
    cfg.update(scores={s: str(p) for s, p in scores_map.items()}, criterion=criterion,
               n_ps=n_ps, n_interact_ps=n_interact, strict=strict,
               covariates=str(args.covariates))

    report = run_model_suite(
        cov, scores, n_ps=n_ps, n_interact_ps=n_interact, criterion=criterion
    )
    model_rows, term_rows = [], []
    for row in report:
        model_rows.append(
            [row["model_id"], row["response"], row["adj_r_squared"], row["n_terms"]]
        )
        for sel in row["selected"]:
            term_rows.append(
                [row["model_id"], sel["term"], sel["coefficient"], sel["sign"],
                 sel["p_value"]]
            )
    artifacts = {
        "models.csv": _rows(
            ["model_id", "response", "adj_r_squared", "n_terms"], model_rows
        ),
        "selected_terms.csv": _rows(
            ["model_id", "term", "coefficient", "sign", "p_value"], term_rows
        ),
    }
    summary = [
        f"model {row['model_id']} ({row['response']}): "
        f"adj R2 {row['adj_r_squared']:.4f}, {row['n_terms']} terms"
        for row in report
    ]
    return [args.covariates, *scores_map.values()], artifacts, summary


def cmd_compare(args, cfg):
    """Elastic vs vertex-wise pipeline on a mis-parameterized two-class cohort.

    Builds two shape classes on one direction, perturbs every surface by
    a seeded random reparameterization, then scores both pipelines with
    the inter/intra class distances and cumulative variance curves.
    """
    m = int(cfg["n_per_class"])
    if m < 2:
        raise ConfigError("n_per_class must be at least 2")
    n = 2 * m

    mean, cohort, perturbed = _perturbed_cohort(cfg, n, float(cfg["amplitude"]), 2)
    labels = cohort.labels

    opts = RegistrationOpts(**cfg["registration"])
    results = register_cohort(mean, perturbed, opts, threads=cfg["threads"])
    aligned = [r.aligned for r in results]
    clouds_elastic = [f.points.reshape(-1, 3) for f in aligned]
    e_inter, e_intra = class_distances(clouds_elastic, labels)
    stacked = np.stack([f.points for f in aligned])
    model_elastic = shape_pca(aligned, mean.with_points(stacked.mean(axis=0)))

    reference = perturbed[0].points.reshape(-1, 3)
    clouds_vertex = [
        icp_register(reference, f.points.reshape(-1, 3)).aligned for f in perturbed
    ]
    v_inter, v_intra = class_distances(clouds_vertex, labels)
    model_vertex = vertex_pca(clouds_vertex)

    artifacts = {
        "class_distances.csv": _rows(
            ["pipeline", "d_inter", "d_intra", "margin"],
            [
                ["elastic", e_inter, e_intra, e_inter - e_intra],
                ["vertex", v_inter, v_intra, v_inter - v_intra],
            ],
        ),
    }
    for name, model in (("elastic", model_elastic), ("vertex", model_vertex)):
        cv = cumulative_variance(model)
        table = np.column_stack([np.arange(1, len(cv) + 1), cv])
        artifacts[f"cumvar_{name}.csv"] = _table(table, ["d", "fraction"])
    artifacts["labels.csv"] = _rows(
        ["id", "label", "coefficient"], zip(_ids(n), labels, cohort.coefficients)
    )
    summary = [
        f"elastic: d_inter {e_inter:.6g}, d_intra {e_intra:.6g}",
        f"vertex:  d_inter {v_inter:.6g}, d_intra {v_intra:.6g}",
    ]
    return [], artifacts, summary


def _arg(*names, **kwargs):
    """One argparse argument, as add_argument takes it."""
    return names, kwargs


# Common flags, in help order.  Every command takes --out and --verbose.
_COMMON = {
    "config": _arg("--config", default=None, help="JSON config file"),
    "seed": _arg("--seed", type=int, default=None, help="master seed"),
    "out": _arg("--out", default=None, help="output directory (default <command>-out)"),
    "threads": _arg("--threads", type=int, default=1,
                    help="registration threads (1 registers serially)"),
    "grid": _arg("--grid", default=None, help="grid dims as N_UxN_V"),
    "verbose": _arg("--verbose", action="store_true", help="info logging"),
}


@dataclass(frozen=True)
class _Command:
    """A subcommand: its body (see `_run`), help text, the common flags
    it reads besides --out and --verbose, its config keys with their
    defaults, and its own arguments."""

    body: Callable
    help: str
    flags: tuple = ()
    defaults: dict = field(default_factory=dict)
    arguments: tuple = ()


_MODEL = _arg("--model", required=True, help="model file")
_COMMANDS = {
    "simulate": _Command(
        cmd_simulate, "distance/accuracy study across reparameterization stages",
        ("config", "seed", "threads", "grid"), _SIM_DEFAULTS),
    "register": _Command(
        cmd_register, "align one surface to another", ("config",), {"registration": {}},
        (_arg("fixed", help="target surface file"),
         _arg("moving", help="surface to align"))),
    "mean": _Command(
        cmd_mean, "iterative mean shape of a cohort", ("config", "seed", "threads"),
        {"init_index": 0, "registration": {}},
        (_arg("surfaces", nargs="+", help="surface files"),)),
    "pca": _Command(
        cmd_pca, "principal components of registered surfaces", ("config",),
        {"use_squared": False},
        (_arg("--mean", required=True, help="mean surface file"),
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
        cmd_regress, "stepwise covariate/score model suite", ("config",),
        {"scores": {}, "criterion": "aic", "n_ps": None, "n_interact_ps": None,
         "strict": True},
        (_arg("--covariates", required=True, help="covariate CSV"),
         _arg("--scores", action="append", default=None, metavar="STRUCT=PATH",
              help="score table for one structure"),
         _arg("--criterion", choices=("aic", "bic"), default=None),
         _arg("--n-ps", type=int, default=None, dest="n_ps"),
         _arg("--n-interact-ps", type=int, default=None, dest="n_interact_ps"),
         _arg("--lenient", action="store_true",
              help="log range violations instead of failing"))),
    "compare": _Command(
        cmd_compare, "elastic vs vertex-wise pipeline comparison",
        ("config", "seed", "threads", "grid"), _CMP_DEFAULTS),
}


def _resolve(cmd: _Command, args) -> dict:
    """The command's config: defaults, the --config file, then the flags."""
    if "threads" in cmd.flags and args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    if "seed" in cmd.flags and args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if "config" not in cmd.flags:
        return {}
    loaded = {} if args.config is None else load_json_object(args.config)
    cfg = {**cmd.defaults, **loaded}
    check_keys(cfg, cmd.defaults, f"{args.command} config")
    if "seed" in cmd.flags:
        seed = _pick(args.seed, cfg.get("seed"))
        cfg["seed"] = None if seed is None else int(seed)
    if "threads" in cmd.flags:
        cfg["threads"] = args.threads
    if "grid" in cmd.flags:
        cfg["grid"] = "%dx%d" % _parse_grid(_pick(args.grid, cfg["grid"]))
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
    It adds the values it resolves itself to the config it is given, which
    the manifest records.
    """
    cfg = _resolve(cmd, args)
    inputs, artifacts, summary = cmd.body(args, cfg)
    out = _out_dir(args)
    for name, write in artifacts.items():
        write(out / name)
    _write_manifest(out, args.command, cfg, inputs, artifacts)
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
        wanted = {"out", "verbose", *cmd.flags}
        common = [spec for flag, spec in _COMMON.items() if flag in wanted]
        for names, kwargs in (*common, *cmd.arguments):
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
