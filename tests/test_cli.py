import csv
import json
import logging
import struct
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.cli import _shape_line_cohort, main
from elastishape.errors import ConfigError
from elastishape.fileio import MODEL_MAGIC, load_model, load_surface, read_csv, save_surface
from elastishape.grids import make_grid
from elastishape.registration import RegistrationOpts, rotate_surface
from elastishape.synthetic import CohortSpec, gen_regression_cohort, gen_surface

from conftest import rotation_matrix

FAST_REG = {"max_iters": 10, "rounds": 1, "tol_rel": 1e-3}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small surface files plus a fitted model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    grid = make_grid(16, 16)
    base = gen_surface("bumpy-sphere", grid, amplitude=0.2, degree=2, seed=1)
    save_surface(base, root / "base.surf")
    rotated = rotate_surface(base, rotation_matrix("z", 0.3))
    save_surface(rotated, root / "rotated.surf")
    rng = np.random.default_rng(0)
    members = []
    for i in range(4):
        jitter = 0.02 * rng.standard_normal(base.points.shape)
        f = base.with_points(base.points + jitter)
        save_surface(f, root / f"member_{i}.surf")
        members.append(str(root / f"member_{i}.surf"))
    cfg = root / "reg.json"
    cfg.write_text(json.dumps({"registration": FAST_REG}))
    code = main(
        ["pca", "--mean", str(root / "base.surf"), "--out", str(root / "pca-out")]
        + members
    )
    assert code == 0
    return root


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "elastishape" in capsys.readouterr().out


def test_register_round_trip(workspace, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"registration": FAST_REG})
    out = tmp_path / "reg-out"
    code = main(
        [
            "register",
            str(workspace / "base.surf"),
            str(workspace / "rotated.surf"),
            "--config",
            cfg,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "distance:" in captured
    for name in ("aligned.surf", "rotation.csv", "jacobian.csv", "trace.csv",
                 "manifest.json"):
        assert (out / name).exists()
    aligned = load_surface(out / "aligned.surf")
    base = load_surface(workspace / "base.surf")
    # a pure rotation is undone to numerical precision
    assert np.abs(aligned.points - base.points).max() < 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "register"
    assert manifest["config"]["registration"]["max_iters"] == 10


def test_register_missing_file_exits_3(tmp_path, capsys):
    code = main(
        ["register", str(tmp_path / "no.surf"), str(tmp_path / "no2.surf")]
    )
    assert code == 3
    assert "missing input file" in capsys.readouterr().err


def test_unknown_config_key_exits_2(workspace, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"registration": FAST_REG, "bogus": 1})
    code = main(
        [
            "register",
            str(workspace / "base.surf"),
            str(workspace / "rotated.surf"),
            "--config",
            cfg,
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "reg",
    [{"basis_degree": 0}, {"max_iters": -3, "rounds": -1, "grad_step": -1}],
)
def test_registration_options_that_disable_the_search_exit_2(tmp_path, capsys, reg):
    cfg = _write_config(tmp_path, {"n_subjects": 4, "registration": reg})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--grid", "16x16", "--out", str(out)]) == 2
    assert "registration options" in capsys.readouterr().err
    assert not out.exists()


def test_bad_thread_and_seed_values(workspace, capsys):
    assert main(["simulate", "--threads", "0"]) == 2
    assert main(["simulate", "--seed", "-1"]) == 2
    capsys.readouterr()


def test_mean_command(workspace, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"registration": FAST_REG, "init_index": 1})
    out = tmp_path / "mean-out"
    members = [str(workspace / f"member_{i}.surf") for i in range(3)]
    code = main(["mean", *members, "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "final variance:" in capsys.readouterr().out
    assert (out / "mean.surf").exists()
    assert (out / "variance.csv").exists()
    for i in range(3):
        assert (out / f"registered_{i:03d}.surf").exists()
    header, rows = _read_csv(out / "variance.csv")
    assert header == ["variance"]
    assert len(rows) == 6


def test_seeded_mean_records_the_start_surface_it_used(workspace, tmp_path):
    # with a seed the start is a seeded pick: default_rng(0).integers(3) == 2
    cfg = _write_config(tmp_path, {"registration": {"max_iters": 1, "rounds": 1}})
    out = tmp_path / "mean-out"
    members = [str(workspace / f"member_{i}.surf") for i in range(3)]
    assert main(["mean", *members, "--config", cfg, "--seed", "0",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["init_index"] == 2


def test_mean_init_index_out_of_range(workspace, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"init_index": 9})
    code = main(
        ["mean", str(workspace / "base.surf"), "--config", cfg,
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "init_index" in capsys.readouterr().err


def test_pca_outputs(workspace):
    out = workspace / "pca-out"
    assert (out / "model.eshm").exists()
    header, rows = _read_csv(out / "cumvar.csv")
    assert header == ["d", "fraction"]
    fractions = [float(r[1]) for r in rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    model = load_model(out / "model.eshm")
    assert model.n_train == 4


def test_scores_command(workspace, tmp_path, capsys):
    out = tmp_path / "scores-out"
    code = main(
        [
            "scores",
            "--model",
            str(workspace / "pca-out" / "model.eshm"),
            "--depth",
            "2",
            str(workspace / "member_0.surf"),
            str(workspace / "member_1.surf"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "reconstruction relative error" in capsys.readouterr().out
    header, rows = _read_csv(out / "scores.csv")
    assert header == ["id", "z1", "z2"]
    assert [r[0] for r in rows] == ["member_0", "member_1"]
    _, err_rows = _read_csv(out / "recon_error.csv")
    assert all(float(r[1]) >= 0 for r in err_rows)


def test_scores_grid_mismatch_exits_3(workspace, tmp_path, capsys):
    other = gen_surface("sphere", make_grid(8, 8))
    save_surface(other, tmp_path / "small.surf")
    code = main(
        [
            "scores",
            "--model",
            str(workspace / "pca-out" / "model.eshm"),
            str(tmp_path / "small.surf"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 3
    assert "grid does not match" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["register", "mean", "pca"])
def test_surfaces_on_different_grids_exit_3(workspace, tmp_path, capsys, command):
    small = tmp_path / "small.surf"
    save_surface(gen_surface("sphere", make_grid(8, 8)), small)
    base = str(workspace / "base.surf")
    args = {
        "register": [base, str(small)],
        "mean": [base, str(workspace / "member_0.surf"), str(small)],
        "pca": ["--mean", base, str(workspace / "member_0.surf"), str(small)],
    }[command]
    out = tmp_path / "o"
    assert main([command, *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{small}: grid 8x8 does not match" in err
    assert not out.exists()


def test_scores_depth_out_of_range_exits_2(workspace, tmp_path, capsys):
    code = main(
        [
            "scores",
            "--model",
            str(workspace / "pca-out" / "model.eshm"),
            "--depth",
            "9",
            str(workspace / "member_0.surf"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_export_path_command(workspace, tmp_path, capsys):
    out = tmp_path / "path-out"
    code = main(
        [
            "export-path",
            "--model",
            str(workspace / "pca-out" / "model.eshm"),
            "--component",
            "1",
            "--frames",
            "3",
            "--t-max",
            "1.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "wrote 3 frames" in capsys.readouterr().out
    for j in range(3):
        assert (out / f"frame_{j:03d}.obj").exists()
        assert (out / f"diff_{j:03d}.csv").exists()
    _, rows = _read_csv(out / "t_values.csv")
    assert [float(r[0]) for r in rows] == [-1.5, 0.0, 1.5]
    # middle frame sits at the mean, so its difference field vanishes
    _, mid = _read_csv(out / "diff_001.csv")
    assert max(abs(float(x)) for row in mid for x in row) < 1e-12


def test_export_path_validation(workspace, tmp_path, capsys):
    model = str(workspace / "pca-out" / "model.eshm")
    assert main(["export-path", "--model", model, "--frames", "1",
                 "--out", str(tmp_path / "a")]) == 2
    assert main(["export-path", "--model", model, "--component", "99",
                 "--out", str(tmp_path / "b")]) == 3
    assert main(["export-path", "--model", model, "--t-max", "-1.0",
                 "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def regress_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("regress")
    cohort = gen_regression_cohort(
        CohortSpec(n_subjects=30, n_u=16, n_v=16, noise_sigma=0.5, seed=9)
    )
    cohort.covariates.to_csv(root / "cov.csv")
    z = cohort.truth.scores["shape"]
    with (root / "scores.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"z{k}" for k in range(1, z.shape[1] + 1)])
        for sid, row in zip(cohort.covariates.ids, z):
            writer.writerow([sid, *row])
    return root


def test_regress_command(regress_inputs, tmp_path, capsys):
    out = tmp_path / "reg-out"
    code = main(
        [
            "regress",
            "--covariates",
            str(regress_inputs / "cov.csv"),
            "--scores",
            f"shape={regress_inputs / 'scores.csv'}",
            "--criterion",
            "bic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.count("model ") == 10
    header, rows = _read_csv(out / "models.csv")
    assert header == ["model_id", "response", "adj_r_squared", "n_terms"]
    assert [int(r[0]) for r in rows] == list(range(1, 11))
    assert (out / "selected_terms.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["criterion"] == "bic"


def test_regress_score_argument_validation(regress_inputs, tmp_path, capsys):
    cov = str(regress_inputs / "cov.csv")
    assert main(["regress", "--covariates", cov,
                 "--out", str(tmp_path / "a")]) == 2
    assert main(["regress", "--covariates", cov, "--scores", "nopath",
                 "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "no score tables" in err
    assert "STRUCT=PATH" in err
    scores = f"shape={regress_inputs / 'scores.csv'}"
    for flags in (["--n-ps", "-2"], ["--n-ps", "0"], ["--n-interact-ps", "-1"]):
        assert main(["regress", "--covariates", cov, "--scores", scores, *flags,
                     "--out", str(tmp_path / "c")]) == 2, flags
    cfg = _write_config(tmp_path, {"n_ps": 0})
    assert main(["regress", "--covariates", cov, "--scores", scores,
                 "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "n_ps must be at least 1" in err
    assert "n_interact_ps must lie in" in err
    assert not (tmp_path / "c").exists()


def test_directory_paths_exit_with_a_message(regress_inputs, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    scores = f"shape={regress_inputs / 'scores.csv'}"
    runs = {
        "covariates": (["regress", "--covariates", str(folder), "--scores", scores], 3),
        "scores": (["regress", "--covariates", str(regress_inputs / "cov.csv"),
                    "--scores", f"shape={folder}"], 3),
        "regress config": (["regress", "--covariates", str(regress_inputs / "cov.csv"),
                            "--scores", scores, "--config", str(folder)], 2),
        "simulate config": (["simulate", "--config", str(folder)], 2),
    }
    for name, (args, code) in runs.items():
        out = tmp_path / name.replace(" ", "-")
        assert main([*args, "--out", str(out)]) == code, name
        assert "is a directory" in capsys.readouterr().err, name
        assert not out.exists(), name


def test_regress_rank_deficiency_exits_4(regress_inputs, tmp_path, capsys):
    header, rows = _read_csv(regress_inputs / "cov.csv")
    age_idx = header.index("age")
    for row in rows:
        row[age_idx] = "30"
    bad = tmp_path / "const_age.csv"
    with bad.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    code = main(
        [
            "regress",
            "--covariates",
            str(bad),
            "--scores",
            f"shape={regress_inputs / 'scores.csv'}",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 4
    assert "columns" in capsys.readouterr().err


def test_regress_verbose_logs_stepwise_skips(regress_inputs, tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="elastishape.regression"):
        code = main(["regress", "--covariates", str(regress_inputs / "cov.csv"),
                     "--scores", f"shape={regress_inputs / 'scores.csv'}",
                     "--verbose", "--out", str(tmp_path / "o")])
    assert code == 0
    lines = [r.getMessage() for r in caplog.records]
    lines = [line for line in lines if "stepwise moves" in line]
    assert [line.split(":")[0] for line in lines] == [
        f"model {m}" for m in range(1, 11)
    ]
    assert all("rank-deficient and" in line and "underdetermined" in line
               for line in lines)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "skipped" not in json.dumps(manifest)


@pytest.mark.parametrize(
    "table, column, value",
    [("scores.csv", "z1", "nan"), ("cov.csv", "age", "inf")],
)
def test_regress_rejects_non_finite_inputs(
    regress_inputs, tmp_path, capsys, table, column, value
):
    paths = {"cov.csv": regress_inputs / "cov.csv",
             "scores.csv": regress_inputs / "scores.csv"}
    header, rows = _read_csv(paths[table])
    rows[4][header.index(column)] = value
    paths[table] = tmp_path / table
    with paths[table].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    out = tmp_path / "o"
    code = main(["regress", "--covariates", str(paths["cov.csv"]),
                 "--scores", f"shape={paths['scores.csv']}", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert str(paths[table]) in err
    assert f"line 6, field '{column}'" in err
    assert "not finite" in err
    assert not out.exists()


def _short_row(rows):
    rows[4].pop()


def _long_row(rows):
    rows[4].append("1")


def _text_cell(rows):
    rows[4][2] = "abc"


def _repeated_id(rows):
    rows[7][0] = rows[2][0]


@pytest.mark.parametrize(
    "table, edit, message",
    [
        ("scores.csv", _short_row, "line 6 has 3 fields, expected 4"),
        ("scores.csv", _long_row, "line 6 has 5 fields, expected 4"),
        ("scores.csv", _text_cell, "line 6, field 'z2': not numeric ('abc')"),
        ("scores.csv", _repeated_id, "repeated id 's002' on lines 4 and 9"),
        ("cov.csv", _long_row, "line 6 has 8 fields, expected 7"),
        ("cov.csv", _repeated_id, "repeated id 's002' on lines 4 and 9"),
    ],
)
def test_regress_rejects_malformed_tables(
    regress_inputs, tmp_path, capsys, table, edit, message
):
    paths = {"cov.csv": regress_inputs / "cov.csv",
             "scores.csv": regress_inputs / "scores.csv"}
    header, rows = _read_csv(paths[table])
    edit(rows)
    paths[table] = tmp_path / table
    with paths[table].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    out = tmp_path / "o"
    code = main(["regress", "--covariates", str(paths["cov.csv"]),
                 "--scores", f"shape={paths['scores.csv']}", "--out", str(out)])
    assert code == 3
    assert f"{paths[table]}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "head",
    [{"n_u": "8", "n_v": 8, "n_train": 4, "n_directions": 1},
     {"n_u": 4, "n_v": 4, "n_train": 4, "n_directions": 1}],
)
def test_scores_with_a_malformed_model_exits_3(workspace, tmp_path, capsys, head):
    header = json.dumps(head).encode()
    model = tmp_path / "bad.eshm"
    model.write_bytes(MODEL_MAGIC + struct.pack("<I", len(header)) + header)
    code = main(["scores", "--model", str(model), str(workspace / "member_0.surf"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert str(model) in capsys.readouterr().err


def test_simulate_small_run(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "n_subjects": 4,
            "displacement": 1.0,
            "perturb_magnitude": 0.3,
            "grid": "16x16",
            "registration": {"max_iters": 5, "rounds": 1, "tol_rel": 1e-3},
        },
    )
    out = tmp_path / "sim-out"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    for stage in ("registered", "perturbed", "reregistered"):
        assert f"{stage} 1-NN accuracy:" in captured
        assert (out / f"dist_{stage}.csv").exists()
        assert (out / f"mds_{stage}.csv").exists()
    assert (out / "labels.csv").exists()
    header, rows = _read_csv(out / "accuracy.csv")
    assert header == ["stage", "accuracy"]
    assert len(rows) == 3
    for _, acc in rows:
        assert 0.0 <= float(acc) <= 1.0


def test_simulate_rejects_tiny_cohort(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n_subjects": 2, "grid": "16x16"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "at least 4" in capsys.readouterr().err


def test_compare_small_run(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "n_per_class": 2,
            "grid": "16x16",
            "perturb_magnitude": 0.3,
            "registration": {"max_iters": 5, "rounds": 1, "tol_rel": 1e-3},
        },
    )
    out = tmp_path / "cmp-out"
    code = main(["compare", "--config", cfg, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "elastic: d_inter" in captured
    assert "vertex:  d_inter" in captured
    header, rows = _read_csv(out / "class_distances.csv")
    assert header == ["pipeline", "d_inter", "d_intra", "margin"]
    assert [r[0] for r in rows] == ["elastic", "vertex"]
    assert (out / "cumvar_elastic.csv").exists()
    assert (out / "cumvar_vertex.csv").exists()


def test_commands_reject_common_flags_they_do_not_read(workspace, tmp_path, capsys):
    model = str(workspace / "pca-out" / "model.eshm")
    for argv in (
        ["scores", "--model", model, "--config", "x.json",
         str(workspace / "member_0.surf"), "--out", str(tmp_path / "a")],
        ["regress", "--covariates", "cov.csv", "--scores", "shape=s.csv",
         "--grid", "16x16", "--out", str(tmp_path / "b")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_shape_line_cohort_skips_mean_seeds_that_make_the_radius_nonpositive():
    grid = make_grid(32, 32)
    for seed in (6, 205):
        first = int(np.random.SeedSequence([seed, 5]).generate_state(1)[0])
        with pytest.raises(ConfigError, match="nonpositive"):
            gen_surface("bumpy-sphere", grid, amplitude=0.3, degree=3, seed=first)
        mean, cohort = _shape_line_cohort(grid, seed, 4, 1.2, 0.3, 3)
        assert len(cohort.surfaces) == 4
    # A seed whose first state works keeps that mean.
    mean, _ = _shape_line_cohort(grid, 0, 4, 1.2, 0.3, 3)
    first = int(np.random.SeedSequence([0, 5]).generate_state(1)[0])
    expected = gen_surface("bumpy-sphere", grid, amplitude=0.3, degree=3, seed=first)
    assert np.array_equal(mean.points, expected.points)
    with pytest.raises(ConfigError, match="nonpositive"):
        _shape_line_cohort(grid, 0, 4, 1.2, 50.0, 3)


def _reg(**kwargs):
    return asdict(RegistrationOpts(**kwargs))


@pytest.fixture(scope="module")
def runs(workspace, regress_inputs, tmp_path_factory):
    """Every command once on tiny inputs (simulate twice), with the
    manifest config each should record."""
    root = tmp_path_factory.mktemp("runs")
    ws, model = str(workspace), str(workspace / "pca-out" / "model.eshm")
    members = [f"{ws}/member_{i}.surf" for i in range(2)]
    cov, scores = str(regress_inputs / "cov.csv"), str(regress_inputs / "scores.csv")
    fast = {"max_iters": 1, "rounds": 1}
    sim_cfg = _write_config(root, {"n_subjects": 4, "grid": "32x32", "perturb_magnitude": 0.3,
                                   "registration": {"max_iters": 2}}, "sim.json")
    cmp_cfg = _write_config(root, {"n_per_class": 2, "grid": "16x16",
                                   "registration": fast}, "cmp.json")
    reg_cfg = _write_config(root, {"registration": fast}, "reg.json")
    sim_expected = {
        "n_subjects": 4, "displacement": 1.2, "mean_amplitude": 0.3,
        "perturb_magnitude": 0.3, "flow_degree": 3, "seed": 3, "grid": "16x16",
        "threads": 1, "registration": _reg(max_iters=2, rounds=2, tol_rel=1e-4),
    }
    table = {
        "simulate": (["--config", sim_cfg, "--grid", "16x16", "--seed", "3"],
                     sim_expected, []),
        "simulate-again": (["--config", sim_cfg, "--grid", "16x16", "--seed", "3"],
                           sim_expected, []),
        "compare": (["--config", cmp_cfg, "--threads", "2"], {
            "n_per_class": 2, "amplitude": 0.5, "mean_amplitude": 0.3,
            "perturb_magnitude": 0.5, "flow_degree": 3, "seed": 0, "grid": "16x16",
            "threads": 2, "registration": _reg(**fast, tol_rel=1e-4)}, []),
        "register": ([f"{ws}/base.surf", f"{ws}/rotated.surf", "--config", reg_cfg],
                     {"registration": _reg(**fast)},
                     [f"{ws}/base.surf", f"{ws}/rotated.surf"]),
        "mean": ([*members, "--config", reg_cfg, "--seed", "1"],
                 {"init_index": 0, "registration": _reg(**fast), "seed": 1,
                  "threads": 1}, members),
        "scores": (["--model", model, "--depth", "2", *members],
                   {"depth": 2, "model": model}, [model, *members]),
        "export-path": (["--model", model, "--frames", "3"],
                        {"component": 1, "frames": 3, "t_max": 2.0, "model": model},
                        [model]),
        "regress": (["--covariates", cov, "--scores", f"shape={scores}",
                     "--criterion", "bic"],
                    {"scores": {"shape": scores}, "criterion": "bic", "n_ps": 3,
                     "n_interact_ps": 3, "strict": True, "covariates": cov},
                    [cov, scores]),
    }
    out = {}
    for name, (argv, config, inputs) in table.items():
        out[name] = (root / name, config, inputs)
        assert main([name.removesuffix("-again"), *argv, "--out", str(root / name)]) == 0
    # pca ran with its defaults when the workspace was built.
    out["pca"] = (workspace / "pca-out",
                  {"use_squared": False, "mean": f"{ws}/base.surf"},
                  [f"{ws}/base.surf", *(f"{ws}/member_{i}.surf" for i in range(4))])
    return out


def test_manifest_records_the_command_config_and_exactly_the_files_written(runs):
    assert len({name.removesuffix("-again") for name in runs}) == 8
    for name, (out, config, inputs) in runs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written, name
        assert manifest["command"] == name.removesuffix("-again")
        assert manifest["config"] == config, name
        assert manifest["inputs"] == inputs, name


def test_seeded_simulate_runs_are_byte_identical(runs):
    first, second = runs["simulate"][0], runs["simulate-again"][0]
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_csv_outputs_end_lines_in_lf_and_read_back(runs):
    for name in ("simulate", "compare", "regress", "scores"):
        for path in sorted(runs[name][0].glob("*.csv")):
            assert b"\r" not in path.read_bytes(), path
            read_csv(path)
    terms = read_csv(runs["regress"][0] / "selected_terms.csv")
    assert "ps(shape,1)" in [row[terms.header.index("term")] for row in terms.rows]
