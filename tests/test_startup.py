"""Every command but `compare` runs without importing scipy.

scipy's first import costs a process about 0.2-0.3 s and 30 MB.  Only
`compare` needs it, for the k-d tree of the ICP baseline, and imports it
where it uses it.  Each check runs in a fresh interpreter.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from elastishape.synthetic import CohortSpec, gen_regression_cohort

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI with the given arguments, then prints the scipy modules loaded.
RUNNER = """
import json, sys
from elastishape.cli import main
code = None
try:
    if sys.argv[1:]:
        code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUNNER, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_version_and_simulate_load_no_scipy(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n_subjects": 4,
                               "registration": {"max_iters": 1, "rounds": 1}}))
    runs = {
        "import": [],
        "--version": ["--version"],
        "simulate": ["simulate", "--config", str(cfg), "--grid", "16x16",
                     "--out", str(tmp_path / "sim")],
    }
    for name, args in runs.items():
        result = _run(args, tmp_path)
        assert result["code"] in (None, 0), name
        assert result["scipy"] == [], name


def test_regress_loads_no_scipy(tmp_path):
    cohort = gen_regression_cohort(
        CohortSpec(n_subjects=30, n_u=8, n_v=8, noise_sigma=0.5, seed=3)
    )
    cohort.covariates.to_csv(tmp_path / "cov.csv")
    z = cohort.truth.scores["shape"]
    with (tmp_path / "scores.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"z{k}" for k in range(1, z.shape[1] + 1)])
        writer.writerows([sid, *row] for sid, row in zip(cohort.covariates.ids, z))
    result = _run(["regress", "--covariates", str(tmp_path / "cov.csv"),
                   "--scores", f"shape={tmp_path / 'scores.csv'}",
                   "--out", str(tmp_path / "reg")], tmp_path)
    assert result["code"] == 0
    assert (tmp_path / "reg" / "models.csv").exists()
    assert result["scipy"] == []
