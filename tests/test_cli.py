import csv
import hashlib
import json
import logging
import struct
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastishape.cli import _read_scores_csv, main
from elastishape.fileio import MODEL_MAGIC, load_model, load_surface, read_csv, save_surface
from elastishape.grids import make_grid
from elastishape.registration import RegistrationOpts, rotate_surface
from elastishape.regression import CovariateTable, run_model_suite
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
    # The basis degree and the gradient step are constants, not options.
    for payload in ({"registration": FAST_REG, "bogus": 1},
                    {"registration": {"grad_step": 1e-4}},
                    {"registration": {"basis_degree": 3}}):
        cfg = _write_config(tmp_path, payload)
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
        assert code == 2, payload
        assert "unknown keys" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "reg",
    [
        {"registration": {"basis_degree": 0}},
        {"registration": {"max_iters": -3, "rounds": -1}},
        {"registration": {"max_iters": 2.5}},
        {"registration": {"max_iters": True}},
        {"registration": {"rounds": 1.0}},
        {"n_subjects": 4.7},
        {"seed": True},
        {"seed": 1.5},
        {"seed": -1},
        {"perturb_magnitude": float("nan")},
        {"displacement": float("inf")},
        {"registration": {"tol_rel": float("inf")}},
        {"displacement": "abc"},
        {"mean_amplitude": True},
        {"perturb_magnitude": None},
        {"n_subjects": None},
        {"registration": {"tol_rel": True}},
        {"registration": {"tol_rel": "1e-4"}},
    ],
)
def test_registration_options_that_disable_the_search_exit_2(tmp_path, capsys, reg):
    # reg: top-level config entries; the error names the first bad key
    cfg = _write_config(tmp_path, {"n_subjects": 4, "grid": "16x16", **reg})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert next(iter(reg.get("registration", reg))) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, bound",
    [("simulate", "displacement", 0.0, "positive"),
     ("simulate", "displacement", -1.0, "positive"),
     ("simulate", "perturb_magnitude", -0.5, "nonnegative"),
     ("compare", "displacement", 0, "positive"),
     ("compare", "displacement", -0.5, "positive"),
     ("compare", "mean_amplitude", -0.1, "nonnegative"),
     ("compare", "seed", -1, "nonnegative")],
)
def test_shape_line_values_out_of_range_exit_2_naming_the_key(tmp_path, capsys, command,
                                                              key, value, bound):
    cfg = _write_config(tmp_path, {"grid": "8x8", key: value})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{command} config: {key} must be {bound}, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0x8", "8x0", "7x8"])
def test_a_grid_below_the_minimum_exits_2_naming_the_grid(tmp_path, capsys, grid):
    cfg = _write_config(tmp_path, {"grid": grid})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"bad grid '{grid}': each dimension must be at least 8" in capsys.readouterr().err
    assert not out.exists()


def test_bad_thread_and_seed_values(tmp_path, capsys):
    assert main(["simulate", "--threads", "0"]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    cfg = _write_config(tmp_path, {"seed": -1})
    assert main(["simulate", "--config", cfg]) == 2
    assert "simulate config: seed must be nonnegative, got -1" in capsys.readouterr().err


def test_mean_command(workspace, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"registration": FAST_REG})
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


def test_register_reads_a_json_config_with_a_bom(workspace, tmp_path):
    cfg = _write_config(tmp_path, {"registration": {"max_iters": 3, "rounds": 1}})
    bom_cfg = _with_bom(tmp_path / "cfg.json", tmp_path / "bom.json")
    argv = ["register", str(workspace / "base.surf"), str(workspace / "member_0.surf")]
    traces = []
    for name, path in (("a", cfg), ("b", bom_cfg)):
        assert main([*argv, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        traces.append((tmp_path / name / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"]["registration"]["max_iters"] == 3


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
    for value in ("nan", "inf"):
        out = tmp_path / value
        assert main(["export-path", "--model", model, "--t-max", value,
                     "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert f"t-max must be a positive finite number, got {value}" in err
        assert not out.exists()
    # Finite but too large: the t values overflow at 1e308, the squared
    # differences of this model's frames at 1e160.
    for value in ("1e308", "1e160"):
        out = tmp_path / value
        assert main(["export-path", "--model", model, "--t-max", value,
                     "--out", str(out)]) == 2, value
        assert f"t-max {float(value)} is too large" in capsys.readouterr().err
        assert not out.exists()


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
    assert manifest["config"] == {}
    assert manifest["arguments"]["criterion"] == "bic"


@pytest.fixture(scope="module")
def regress_two_structures(tmp_path_factory):
    """A cohort whose pss follows age, ps(shape,1) and bdi*ps(shape,2), with a
    second score table of noise."""
    root = tmp_path_factory.mktemp("regress2")
    n = 80
    cohort = gen_regression_cohort(CohortSpec(
        n_subjects=n, n_u=8, n_v=8, n_directions=4,
        true_terms=("age", "ps(shape,1)", "bdi*ps(shape,2)"),
        true_coefficients=(0.1, 5.0, 0.4), noise_sigma=0.5, seed=9))
    cohort.covariates.to_csv(root / "cov.csv")
    tables = {"shape": cohort.truth.scores["shape"],
              "noise": np.random.default_rng(9).standard_normal((n, 4))}
    for struct, z in tables.items():
        with (root / f"{struct}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id"] + [f"z{k}" for k in range(1, z.shape[1] + 1)])
            for sid, row in zip(cohort.covariates.ids, z):
                writer.writerow([sid, *row])
    return root, ["--covariates", str(root / "cov.csv"),
                  "--scores", f"shape={root / 'shape.csv'}",
                  "--scores", f"noise={root / 'noise.csv'}"]


@pytest.mark.parametrize("flags, digests", [
    (["--criterion", "aic"], (
        "c3f4e2c0110c6f70a0b59c483191e463ac7ab4e8b01ac89e88a7480fd8b5e53c",
        "31db99c21aa2e5c40549c798a00dec714f5266d811cb8553e28b20d9bd8ee233",
        "7bd8362c683cb1cd43d4573a22d5a099b6a70009eae806e2196e422187b6ce22")),
    (["--criterion", "bic"], (
        "cbe82b0add92a0e5f9f2abc55363ff72bb21a6f0dafb1bdd47c96b36098d77b4",
        "ac25e33e918aaf17ccd96f7408dd40bd7a9c1848990a7d9a3a8abef2bfc34a68",
        "2a7e26f1076db3ba9e646826f3348b38bd6ac7136653531d723ad5d1424eb1a7")),
    (["--criterion", "aic", "--n-ps", "3", "--n-interact-ps", "1"], (
        "3c3a9a0e73b103bff2f4e5fb2545c04e9097ac392e674d2fcb26c25793b193e8",
        "bcdae6fd318125c49439fb026c76d77c06ee79747a1c5180b50a9998abe12583",
        "b2b13a20b674c7f85fae28cc45011f88e006d9fe79c0b0bedcf59ed3ea4efd8e")),
])
def test_regress_outputs_are_pinned(regress_two_structures, tmp_path, capsys, flags,
                                    digests):
    # models.csv, selected_terms.csv and stdout, pinned byte for byte at this seed.
    out = tmp_path / "reg-out"
    assert main(["regress", *regress_two_structures[1], *flags, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    got = tuple(hashlib.sha256(data).hexdigest() for data in (
        (out / "models.csv").read_bytes(), (out / "selected_terms.csv").read_bytes(), stdout))
    assert got == digests


@pytest.mark.parametrize("criterion", ["aic", "bic"])
def test_regress_rows_are_the_suite_fits(regress_two_structures, tmp_path, criterion):
    # Every row reads back as the matching fit of run_model_suite on the same
    # tables: each term but the intercept, its sign from its coefficient, and
    # each number exactly through its .17g cell.
    root, argv = regress_two_structures
    out = tmp_path / "reg-out"
    assert main(["regress", *argv, "--criterion", criterion, "--out", str(out)]) == 0
    cov = CovariateTable.from_csv(root / "cov.csv")
    scores = {s: _read_scores_csv(root / f"{s}.csv", cov) for s in ("shape", "noise")}
    suite = run_model_suite(cov, scores, n_ps=4, n_interact_ps=4, criterion=criterion)
    _, models = _read_csv(out / "models.csv")
    assert [(int(m), r, float(adj), int(k)) for m, r, adj, k in models] == [
        (model_id, spec.response, result.fit.adj_r_squared, len(result.fit.terms))
        for model_id, (spec, result) in suite.items()]
    _, terms = _read_csv(out / "selected_terms.csv")
    signs = set()
    for model_id, (_, result) in suite.items():
        fit = result.fit
        rows = [row[1:] for row in terms if int(row[0]) == model_id]
        kept = [j for j, term in enumerate(fit.terms) if term != "intercept"]
        assert "intercept" in fit.terms and len(kept) == len(fit.terms) - 1
        assert [term for term, *_ in rows] == [fit.terms[j] for j in kept]
        for (_, coef, sign, p_value), j in zip(rows, kept):
            assert float(coef) == fit.coefficients[j]
            assert float(p_value) == fit.p_values[j]
            assert sign == ("-" if fit.coefficients[j] < 0 else "+")
            signs.add(sign)
    assert len(terms) == sum(len(result.fit.terms) - 1 for _, result in suite.values())
    assert signs == {"+", "-"}


def _regress_tables(cov, scores, out, *flags):
    """Runs regress; returns its exit code and the two tables it wrote."""
    code = main(["regress", "--covariates", str(cov), "--scores", f"shape={scores}",
                 "--out", str(out), *flags])
    if code:
        return code, None
    return code, [(out / name).read_bytes() for name in ("models.csv", "selected_terms.csv")]


def _with_bom(src, dst):
    """Copies a UTF-8 text file with a byte order mark in front, as Excel's
    "CSV UTF-8" format saves one."""
    dst.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    return dst


def test_regress_reads_a_covariate_table_with_a_bom(regress_inputs, tmp_path):
    cov, scores = regress_inputs / "cov.csv", regress_inputs / "scores.csv"
    expected = _regress_tables(cov, scores, tmp_path / "a")
    assert expected[0] == 0
    assert _regress_tables(_with_bom(cov, tmp_path / "cov.csv"), scores,
                           tmp_path / "b") == expected


def test_regress_reads_a_score_table_with_a_bom(regress_inputs, tmp_path):
    cov, scores = regress_inputs / "cov.csv", regress_inputs / "scores.csv"
    expected = _regress_tables(cov, scores, tmp_path / "a")
    assert expected[0] == 0
    assert _regress_tables(cov, _with_bom(scores, tmp_path / "scores.csv"),
                           tmp_path / "b") == expected


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
    err = capsys.readouterr().err
    assert "n_ps must be at least 1" in err
    assert "n_interact_ps must lie in" in err
    assert not (tmp_path / "c").exists()
    table = regress_inputs / "scores.csv"
    for entry in (f"={table}", f"a,b={table}", f"ps(x={table}", f"x)={table}"):
        assert main(["regress", "--covariates", cov, "--scores", entry,
                     "--out", str(tmp_path / "e")]) == 2, entry
        assert f"--scores '{entry}': structure name" in capsys.readouterr().err
    assert main(["regress", "--covariates", cov, "--scores", "shape=",
                 "--out", str(tmp_path / "e")]) == 2
    assert "--scores 'shape=': the path must name a file" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_regress_scores_flag_twice_for_one_structure_exits_2(regress_inputs, tmp_path,
                                                             capsys):
    cov, table = regress_inputs / "cov.csv", regress_inputs / "scores.csv"
    out = tmp_path / "twice"
    assert main(["regress", "--covariates", str(cov), "--scores", f"shape={table}",
                 "--scores", f"shape={tmp_path / 'other.csv'}", "--out", str(out)]) == 2
    assert "--scores given twice for structure 'shape'" in capsys.readouterr().err
    assert not out.exists()


def test_directory_paths_exit_with_a_message(regress_inputs, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    scores = f"shape={regress_inputs / 'scores.csv'}"
    runs = {
        "covariates": (["regress", "--covariates", str(folder), "--scores", scores], 3),
        "scores": (["regress", "--covariates", str(regress_inputs / "cov.csv"),
                    "--scores", f"shape={folder}"], 3),
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


def _with_nan(src, dst, offset):
    """A copy of a binary file with the float64 at offset set to NaN."""
    raw = bytearray(src.read_bytes())
    offset %= len(raw)
    raw[offset:offset + 8] = struct.pack("<d", float("nan"))
    dst.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "command, name, field",
    [("register", "nan.json", "points"), ("register", "nan.surf", "points"),
     ("pca", "nan.surf", "points"), ("scores", "nan.eshm", "directions"),
     ("export-path", "nan.eshm", "directions"), ("scores", "nan.eshm", "mean")],
)
def test_a_non_finite_number_in_an_input_file_exits_3(workspace, tmp_path, capsys,
                                                      command, name, field):
    base, member = workspace / "base.surf", str(workspace / "member_0.surf")
    bad = tmp_path / name
    if name == "nan.json":
        points = [float(x) for x in load_surface(base).flat()]
        points[5] = float("nan")
        bad.write_text(json.dumps({"n_u": 16, "n_v": 16, "points": points}))
    elif name == "nan.surf":
        _with_nan(base, bad, 16 + 8 * 5)
    else:
        model = workspace / "pca-out" / "model.eshm"
        (header_len,) = struct.unpack("<I", model.read_bytes()[8:12])
        _with_nan(model, bad, -8 if field == "directions" else 12 + header_len)
    args = {
        "register": [str(base), str(bad)],
        "pca": ["--mean", str(base), member, str(bad)],
        "scores": ["--model", str(bad), member],
        "export-path": ["--model", str(bad)],
    }[command]
    out = tmp_path / "o"
    assert main([command, *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{bad}: " in err and f"'{field}'" in err
    assert not out.exists()


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
    assert capsys.readouterr().out.splitlines() == [
        "elastic: d_inter 16.7, d_intra 13.7245",
        "vertex:  d_inter 28.1154, d_intra 28.1399",
    ]
    header, rows = _read_csv(out / "class_distances.csv")
    assert header == ["pipeline", "d_inter", "d_intra", "margin"]
    assert [r[0] for r in rows] == ["elastic", "vertex"]
    # Both arms' outputs, pinned byte for byte at this seed.
    digests = {
        "class_distances.csv":
            "3953c5301a67cac5af5e447ead672579de111736d5c0c1385b500dae3cda365b",
        "cumvar_elastic.csv":
            "e8d2e94f1abb0f707abe83841a4342e0760af9b3bfcab02f9a3e87d8034253fd",
        "cumvar_vertex.csv":
            "10b59bf86f6610fc98e25ffd9af057148fe9c75011dd8d6bcd0c37b36da37820",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_commands_reject_common_flags_they_do_not_read(workspace, tmp_path, capsys):
    model = str(workspace / "pca-out" / "model.eshm")
    member = str(workspace / "member_0.surf")
    regress = ["regress", "--covariates", "cov.csv", "--scores", "shape=s.csv"]
    for argv in (
        ["scores", "--model", model, "--config", "x.json", member],
        ["pca", "--mean", member, "--config", "x.json", member],
        [*regress, "--grid", "16x16"],
        [*regress, "--config", "x.json"],
        ["simulate", "--seed", "3"],
        ["compare", "--grid", "16x16"],
        ["mean", member, "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())


def _reg(**kwargs):
    return asdict(RegistrationOpts(**kwargs))


@pytest.fixture(scope="module")
def runs(workspace, regress_inputs, tmp_path_factory):
    """Every command once on tiny inputs (simulate twice), with the
    manifest config and arguments each should record."""
    root = tmp_path_factory.mktemp("runs")
    ws, model = str(workspace), str(workspace / "pca-out" / "model.eshm")
    members = [f"{ws}/member_{i}.surf" for i in range(2)]
    cov, scores = str(regress_inputs / "cov.csv"), str(regress_inputs / "scores.csv")
    fast = {"max_iters": 1, "rounds": 1}
    sim_cfg = _write_config(root, {"n_subjects": 4, "grid": "16x16", "seed": 3,
                                   "perturb_magnitude": 0.3,
                                   "registration": {"max_iters": 2}}, "sim.json")
    cmp_cfg = _write_config(root, {"n_per_class": 2, "grid": "16x16",
                                   "registration": fast}, "cmp.json")
    reg_cfg = _write_config(root, {"registration": fast}, "reg.json")
    sim_expected = {
        "n_subjects": 4, "displacement": 1.2, "mean_amplitude": 0.3,
        "perturb_magnitude": 0.3, "seed": 3, "grid": "16x16",
        "registration": _reg(max_iters=2, rounds=2, tol_rel=1e-4),
    }
    table = {
        "simulate": (["--config", sim_cfg], sim_expected, {"threads": 1}, []),
        "simulate-again": (["--config", sim_cfg], sim_expected, {"threads": 1}, []),
        "compare": (["--config", cmp_cfg, "--threads", "2"], {
            "n_per_class": 2, "displacement": 0.5, "mean_amplitude": 0.3,
            "perturb_magnitude": 0.5, "seed": 0, "grid": "16x16",
            "registration": _reg(**fast, tol_rel=1e-4)}, {"threads": 2}, []),
        "register": ([f"{ws}/base.surf", f"{ws}/rotated.surf", "--config", reg_cfg],
                     {"registration": _reg(**fast)},
                     {"fixed": f"{ws}/base.surf", "moving": f"{ws}/rotated.surf"},
                     [f"{ws}/base.surf", f"{ws}/rotated.surf"]),
        "mean": ([*members, "--config", reg_cfg],
                 {"registration": _reg(**fast)},
                 {"threads": 1, "surfaces": members}, members),
        "scores": (["--model", model, "--depth", "2", *members], {},
                   {"model": model, "depth": 2, "surfaces": members}, [model, *members]),
        "export-path": (["--model", model, "--frames", "3"], {},
                        {"model": model, "component": 1, "frames": 3, "t_max": 2.0},
                        [model]),
        "regress": (["--covariates", cov, "--scores", f"shape={scores}",
                     "--criterion", "bic"], {},
                    {"covariates": cov, "scores": [f"shape={scores}"], "criterion": "bic",
                     "n_ps": 3, "n_interact_ps": 3, "lenient": False},
                    [cov, scores]),
    }
    out = {}
    for name, (argv, config, arguments, inputs) in table.items():
        out[name] = (root / name, config, arguments, inputs)
        assert main([name.removesuffix("-again"), *argv, "--out", str(root / name)]) == 0
    # pca ran with its defaults when the workspace was built.
    pca_members = [f"{ws}/member_{i}.surf" for i in range(4)]
    out["pca"] = (workspace / "pca-out", {},
                  {"mean": f"{ws}/base.surf", "surfaces": pca_members},
                  [f"{ws}/base.surf", *pca_members])
    return out


def test_manifest_records_the_command_config_and_exactly_the_files_written(runs):
    assert len({name.removesuffix("-again") for name in runs}) == 8
    for name, (out, config, arguments, inputs) in runs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written, name
        assert manifest["command"] == name.removesuffix("-again")
        assert manifest["config"] == config, name
        assert manifest["arguments"] == arguments, name
        assert manifest["inputs"] == inputs, name


@pytest.mark.parametrize("name", ["simulate", "compare", "mean"])
def test_a_manifest_config_fed_back_reproduces_the_run(runs, tmp_path, name):
    out, _, arguments, inputs = runs[name]
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = _write_config(tmp_path, manifest["config"])
    again = tmp_path / "again"
    assert main([name, *inputs, "--config", cfg, "--threads", str(arguments["threads"]),
                 "--out", str(again)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for file in names:
        assert (again / file).read_bytes() == (out / file).read_bytes(), file


def _outputs_digest(folder):
    """sha256 over the sorted (name, bytes) of every file a run wrote but its manifest."""
    digest = hashlib.sha256()
    for path in sorted(folder.iterdir()):
        if path.name != "manifest.json":
            data = path.read_bytes()
            digest.update(f"{path.name}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


# Every output of each command's run in `runs`, pinned byte for byte.
_RUN_DIGESTS = {
    "simulate":
        "9c02829a1850a4706cff4110182c799552a46e49ed326256f7a4d6194058a7b6",
    "compare":
        "981d37d7d9b7ac01b5627d0b0eb0a7f9ba262828eb1b73430ccf633e3bf4f17f",
    "register":
        "82fa070b47d02656175ca55205b21a269d38950f8b84eaddd0f25e0ed98fb2ea",
    "mean":
        "6d98e6a199f391a068511414d92ba885aa83aeb76f869319a660a23e90e0082b",
    "pca":
        "3776a7e7e28d9bc484b340f7fec5ea51a2b6362e9bcea817a9ac2481c70a8b44",
    "scores":
        "4a5727ed9a10e451ce736b799cdd5dda7016373a66607f30908ed5fa552c24e6",
    "export-path":
        "45f68fdd575e42b8e155c178cc04a838522379fb2ae0f334671840f1a192c9a5",
    "regress":
        "2e8724db8b4f05ade922e7994a0ccb4273ae5d0abd27fd974502273fae21cc45",
}


def test_every_command_s_outputs_are_pinned(runs):
    got = {name: _outputs_digest(runs[name][0]) for name in _RUN_DIGESTS}
    assert got == _RUN_DIGESTS
    assert _outputs_digest(runs["simulate-again"][0]) == _RUN_DIGESTS["simulate"]


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
