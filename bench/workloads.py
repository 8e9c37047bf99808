"""The benchmark workloads: seeded inputs, CLI commands, checks, quality.

A workload is a sequence of units.  Each unit writes its inputs (files
and a JSON config) from its own seed, runs one `elastishape` command a
user would type to process them, and has its outputs checked; quality
figures are read from the outputs of the first `quality_units` units.
The program sees only those files and flags.

Why these three (see README.md for the metric tables):

- simulate-serial: the paper's reparameterization experiment.  Almost
  all of its time is serial `register` search against one fixed
  template; it bypasses regression and ICP.
- compare-threads2: registration through `register_cohort`'s two-worker
  pool plus the ICP/vertex-PCA arm.  A parallelism change shows here and
  must not move simulate-serial.
- regress-suite: the ten-model stepwise suite with no registration at
  all; the only workload for regression changes.

Registration runs a fixed iteration budget (``tol_rel`` 0): every
search runs all of its iterations unless no step lowers the objective,
so the work hardly varies from seed to seed and quality is read at a
fixed budget.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

HELD_OUT_OFFSET = 1_000_000
# Unit k of the run with seed s has seed s * UNIT_STRIDE + k.
UNIT_STRIDE = 1000

# Bump amplitude of the template shape of `simulate` and `compare`.  At
# the command default, 0.3, the seeded template has a nonpositive radius
# for about 8% of seeds and the command exits 2; at 0.15 no seed of 20000
# tried comes within 15% of that limit.
MEAN_AMPLITUDE = 0.15
SIM_SUBJECTS = 6
SIM_REGISTRATION = {"max_iters": 8, "rounds": 2, "tol_rel": 0.0}
CMP_PER_CLASS = 3
CMP_REGISTRATION = {"max_iters": 8, "rounds": 2, "tol_rel": 0.0}
# Process start-up (about 0.7 s) is the noisiest part of a command's wall
# time; at 2500 subjects the stepwise refits take the larger share.  At 120
# they took 0.5 s and the run's median command time spread 1.6 times as much
# between seeds.
REG_SUBJECTS = 2500
# BIC rather than AIC: under AIC about one noise column in six enters, so
# the length of a stepwise path, and with it the cost of a `regress` run,
# varied by a factor of three between cohorts.
REG_CRITERION = "bic"
REG_SCORES = 15
REG_NOISE = 0.5
# The trauma score gets a planted rule of its own, so that no response is
# pure noise and the mean adjusted R^2 varies little between seeds.
REG_CTQ = {"response": "ctqtot", "true_terms": ("bdi", "ps(shape,2)"),
           "true_coefficients": (0.5, 40.0), "intercept": 65.0, "noise_sigma": 3.0}
REG_STRUCTURES = ("shape", "hippocampus", "amygdala")


def unit_seed(seed: int, k: int) -> int:
    return seed * UNIT_STRIDE + k


def _read_rows(path: Path) -> tuple[list, list]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1))


class Workload:
    """Base: subclasses set `name` and implement the four steps of a unit."""

    name = ""
    # Units whose outputs give the quality figures; a run makes at least these.
    quality_units = 1
    # Keyword arguments of `command` for the one-worker baseline that the
    # traced run measures speed-up against; None when the workload is serial.
    serial_baseline = None
    # Compute threads of the unit's command, and so how many CPUs it is
    # pinned to.
    threads = 1

    def prepare(self, inputs: Path, seed: int) -> None:
        """Write one unit's seeded inputs into the (empty) inputs directory."""
        raise NotImplementedError

    def command(self, inputs: Path, out: Path) -> list:
        """Arguments of the unit's one `elastishape` process."""
        raise NotImplementedError

    def check(self, out: Path) -> list:
        """Failed correctness checks of one unit, as messages (empty when correct)."""
        raise NotImplementedError

    def quality(self, outs: list) -> dict:
        """Quality metrics read from the outputs of the first units, averaged."""
        raise NotImplementedError


def _dist_matrix(path: Path):
    _, rows = _read_rows(path)
    return [[float(x) for x in r] for r in rows]


def _matrix_problems(name: str, d: list) -> list:
    n = len(d)
    bad = []
    if any(len(r) != n for r in d):
        return [f"{name}: not square"]
    if not all(math.isfinite(x) for r in d for x in r):
        bad.append(f"{name}: non-finite entry")
    if any(d[i][i] != 0.0 for i in range(n)):
        bad.append(f"{name}: nonzero diagonal")
    if any(d[i][j] != d[j][i] for i in range(n) for j in range(i)):
        bad.append(f"{name}: not symmetric")
    return bad


class SimulateSerial(Workload):
    name = "simulate-serial"
    stages = ("registered", "perturbed", "reregistered")
    # Each cohort lies on one seeded shape direction, and how strongly that
    # direction moves the SRNF sets the scale of every distance, so the
    # quality figures average four cohorts.
    quality_units = 4

    def prepare(self, inputs, seed):
        _write_json(inputs / "simulate.json", {
            "n_subjects": SIM_SUBJECTS, "seed": seed, "grid": "32x32",
            "mean_amplitude": MEAN_AMPLITUDE, "registration": SIM_REGISTRATION,
        })

    def command(self, inputs, out):
        return ["simulate", "--config", str(inputs / "simulate.json"),
                "--threads", "1", "--out", str(out / "simulate")]

    @staticmethod
    def _accuracy(folder):
        _, rows = _read_rows(folder / "accuracy.csv")
        return {r[0]: float(r[1]) for r in rows}

    def check(self, out):
        bad = []
        folder = out / "simulate"
        for stage in self.stages:
            d = _dist_matrix(folder / f"dist_{stage}.csv")
            if len(d) != SIM_SUBJECTS:
                bad.append(f"dist_{stage}: {len(d)} rows for {SIM_SUBJECTS} subjects")
            bad += _matrix_problems(f"dist_{stage}", d)
        acc = self._accuracy(folder)
        if not acc["reregistered"] >= acc["perturbed"]:
            bad.append(f"reregistered 1-NN accuracy {acc['reregistered']} below "
                       f"perturbed {acc['perturbed']}")
        return bad

    def quality(self, outs):
        residuals, accuracies = [], []
        for out in outs:
            folder = out / "simulate"
            ref = _dist_matrix(folder / "dist_registered.csv")
            rereg = _dist_matrix(folder / "dist_reregistered.csv")
            pairs = [(i, j) for i in range(len(ref)) for j in range(i)]
            gap = sum(abs(rereg[i][j] - ref[i][j]) for i, j in pairs) / len(pairs)
            scale = sum(ref[i][j] for i, j in pairs) / len(pairs)
            residuals.append(gap / scale)
            accuracies.append(self._accuracy(folder)["reregistered"])
        return {"rereg_residual": sum(residuals) / len(outs),
                "knn_acc": sum(accuracies) / len(outs)}


class CompareThreads2(Workload):
    name = "compare-threads2"
    # The class separation of one cohort varies by 0.2 of its median
    # between seeds; three cohorts average that down.
    quality_units = 3
    serial_baseline = {"threads": 1}
    threads = 2

    def prepare(self, inputs, seed):
        _write_json(inputs / "compare.json", {
            "n_per_class": CMP_PER_CLASS, "seed": seed, "grid": "32x32",
            "mean_amplitude": MEAN_AMPLITUDE, "registration": CMP_REGISTRATION,
        })

    def command(self, inputs, out, threads=2):
        return ["compare", "--config", str(inputs / "compare.json"),
                "--threads", str(threads), "--out", str(out / "compare")]

    @staticmethod
    def _separation(out):
        _, rows = _read_rows(out / "compare" / "class_distances.csv")
        return {r[0]: float(r[1]) / float(r[2]) for r in rows}

    def quality(self, outs):
        seps = [self._separation(out) for out in outs]
        return {"elastic_sep": sum(s["elastic"] for s in seps) / len(outs),
                "vertex_sep": sum(s["vertex"] for s in seps) / len(outs)}

    def check(self, out):
        sep = self._separation(out)
        if not sep["elastic"] > sep["vertex"]:
            return [f"elastic separation {sep['elastic']:.6g} not above "
                    f"vertex separation {sep['vertex']:.6g}"]
        return []


class RegressSuite(Workload):
    name = "regress-suite"
    planted = ("age", "ps(shape,1)")
    # The number of fits of one `regress` run varies by about 20% between
    # cohorts with the length of its stepwise paths, so a run goes through
    # many cohorts and the adjusted R^2 averages twelve.
    quality_units = 12

    def prepare(self, inputs, seed):
        import numpy as np
        from elastishape.synthetic import CohortSpec, gen_regression_cohort

        spec = CohortSpec(
            n_subjects=REG_SUBJECTS, n_u=8, n_v=8, n_directions=REG_SCORES,
            structure=REG_STRUCTURES[0], noise_sigma=REG_NOISE, seed=seed,
        )
        cohort = gen_regression_cohort(spec)
        cov = cohort.covariates
        # Same seed, so the same subjects: only the planted ctqtot differs.
        cov.ctqtot = gen_regression_cohort(replace(spec, **REG_CTQ)).covariates.ctqtot
        cov.to_csv(inputs / "covariates.csv")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        for struct in REG_STRUCTURES:
            if struct == REG_STRUCTURES[0]:
                z = cohort.truth.scores[struct]
            else:
                z = rng.standard_normal((REG_SUBJECTS, REG_SCORES)) * 0.2
            with (inputs / f"scores_{struct}.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id"] + [f"z{j}" for j in range(1, REG_SCORES + 1)])
                for sid, row in zip(cov.ids, z):
                    writer.writerow([sid, *(f"{x:.17g}" for x in row)])

    def command(self, inputs, out):
        cmd = ["regress", "--covariates", str(inputs / "covariates.csv"),
               "--criterion", REG_CRITERION, "--out", str(out / "regress")]
        for struct in REG_STRUCTURES:
            cmd += ["--scores", f"{struct}={inputs / f'scores_{struct}.csv'}"]
        return cmd

    def check(self, out):
        bad = []
        _, models = _read_rows(out / "regress" / "models.csv")
        if [int(r[0]) for r in models] != list(range(1, 11)):
            bad.append(f"expected model rows 1..10, got {[r[0] for r in models]}")
        _, terms = _read_rows(out / "regress" / "selected_terms.csv")
        for model in (1, 2, 9):
            chosen = {r[1] for r in terms if int(r[0]) == model}
            missing = [t for t in self.planted if t not in chosen]
            if missing:
                bad.append(f"model {model} did not select {', '.join(missing)}")
        return bad

    def quality(self, outs):
        r2 = [float(r[2]) for out in outs
              for r in _read_rows(out / "regress" / "models.csv")[1]]
        return {"adj_r2_mean": sum(r2) / len(r2)}


WORKLOADS = {w.name: w for w in (SimulateSerial(), CompareThreads2(), RegressSuite())}
