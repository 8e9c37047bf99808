"""Commands on the registration path start without importing scipy.

scipy's first import costs a process about 0.3 s and 30 MB; only `regress`
(QR, incomplete beta) and `compare` (the ICP k-d tree) need it, and they
import it where they use it.  Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
