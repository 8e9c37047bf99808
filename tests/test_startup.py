"""What a command process loads, and the package's lazy namespace.

`import elastishape` loads no submodule; the first access to a public
name loads them all.  `elastishape.cli` loads only `errors` and
`fileio` (the CSV and JSON readers, which load no geometry), and each
command imports what it runs: `--version` loads nothing more,
`regress` adds `regression` alone, and `simulate` and `compare` do not
load `regression`.  No command imports scipy: the
package is numpy and the standard library only, down to the ICP
baseline's nearest-neighbour search, and only the tests use scipy, as
an oracle.  Each check runs in a fresh interpreter.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from elastishape.synthetic import CohortSpec, gen_regression_cohort

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package, runs the CLI with the given arguments if there are
# any, then prints the scipy and elastishape modules loaded.
RUNNER = """
import json, sys
import elastishape
code = None
if sys.argv[1:]:
    from elastishape.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = lambda package: sorted(m for m in sys.modules if m.split(".")[0] == package)
print(json.dumps({"code": code, "scipy": loaded("scipy"),
                  "elastishape": loaded("elastishape")}))
"""

# The registration stack and the modules that build on it.
GEOMETRY = ("registration", "sphharm", "diffeos", "srnf", "grids", "shape_stats",
            "baseline", "synthetic")


def _python(args, cwd=None, code=RUNNER):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def _run(args, cwd):
    return json.loads(_python(args, cwd).strip().splitlines()[-1])


def test_import_version_simulate_and_compare_load_no_scipy(tmp_path):
    fast = {"max_iters": 1, "rounds": 1}
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"n_subjects": 4, "grid": "16x16", "registration": fast}))
    cmp_cfg = tmp_path / "cmp.json"
    cmp_cfg.write_text(json.dumps({"n_per_class": 2, "grid": "16x16", "registration": fast}))
    runs = {
        "import": [],
        "--version": ["--version"],
        "simulate": ["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")],
        "compare": ["compare", "--config", str(cmp_cfg), "--out", str(tmp_path / "cmp")],
    }
    for name, args in runs.items():
        result = _run(args, tmp_path)
        assert result["code"] in (None, 0), name
        assert result["scipy"] == [], name
        assert "elastishape.regression" not in result["elastishape"], name


def test_import_and_version_load_no_registration_stack(tmp_path):
    assert _run([], tmp_path)["elastishape"] == ["elastishape"]
    result = _run(["--version"], tmp_path)
    assert result["code"] == 0
    assert result["elastishape"] == ["elastishape", "elastishape.cli",
                                     "elastishape.errors", "elastishape.fileio"]


@pytest.fixture(scope="module")
def regress_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("regress")
    cohort = gen_regression_cohort(
        CohortSpec(n_subjects=30, n_u=8, n_v=8, noise_sigma=0.5, seed=3)
    )
    cohort.covariates.to_csv(root / "cov.csv")
    z = cohort.truth.scores["shape"]
    with (root / "scores.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"z{k}" for k in range(1, z.shape[1] + 1)])
        writer.writerows([sid, *row] for sid, row in zip(cohort.covariates.ids, z))
    result = _run(["regress", "--covariates", str(root / "cov.csv"),
                   "--scores", f"shape={root / 'scores.csv'}",
                   "--out", str(root / "reg")], root)
    assert result["code"] == 0
    assert (root / "reg" / "models.csv").exists()
    return result


def test_regress_loads_no_scipy(regress_run):
    assert regress_run["scipy"] == []


def test_regress_loads_no_registration_stack(regress_run):
    loaded = regress_run["elastishape"]
    assert not [m for m in loaded if m.split(".")[-1] in GEOMETRY]
    assert loaded == ["elastishape", "elastishape.cli", "elastishape.errors",
                      "elastishape.fileio", "elastishape.regression"]


# Each runs in a fresh interpreter, where no public name is bound yet.
NAMESPACE_CHECKS = {
    "first-access-binds-every-name": """
import elastishape
assert not set(elastishape.__all__[1:]) & set(vars(elastishape))
elastishape.register
missing = set(elastishape.__all__) - set(vars(elastishape))
assert not missing, missing
""",
    "star-import": """
from elastishape import *
import elastishape
missing = [name for name in elastishape.__all__ if name not in globals()]
assert not missing, missing
""",
    "dir": """
import elastishape
missing = set(elastishape.__all__) - set(dir(elastishape))
assert not missing, missing
""",
    "submodule": """
from elastishape import registration
assert registration.register.__module__ == "elastishape.registration"
""",
    "unknown-name": """
import sys
import elastishape
try:
    elastishape.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no AttributeError")
assert sorted(m for m in sys.modules if m.startswith("elastishape")) == ["elastishape"]
""",
}


@pytest.mark.parametrize("check", NAMESPACE_CHECKS)
def test_lazy_namespace(check):
    _python([], code=NAMESPACE_CHECKS[check])
