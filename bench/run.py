"""Benchmark entry point for the elastishape CLI.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process starts one `elastishape` process per command, one at
a time (a closed loop with a single client), from the sources under
`src/`.  A workload is a sequence of units, each one seeded command on
its own inputs (see workloads.py).  With ``--trace 0`` the run goes
through units for S seconds (at least the units that give the quality
figures) and reports the end-to-end metrics: medians over the units for
the timings, and the quality figures of the first units.  With
``--trace 1`` it runs the first unit once untraced and once with every
package module traced (see traced_cli.py), adds the probes of
probes.py, runs the correctness checks once more on a held-out seed, and
reports the per-layer metrics.

The host's CPUs slow down by up to 1.7x, each on its own, for stretches
of seconds to minutes.  So every command of a timed unit is pinned to
the CPU (or, for two workers, the CPUs) it runs on, a fixed kernel
(`Reference`) is timed on each of those CPUs every REFERENCE_PERIOD_S
while the command runs, and the command's wall time is multiplied by
REFERENCE_S over the mean of those CPUs' median kernel times.

Every output is checked; a failed command or check counts as a failed
operation.  The last stdout line is the JSON result; the lines before it
record the units run and the environment.  Exits 2 without a result
when the sources are missing.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from workloads import HELD_OUT_OFFSET, WORKLOADS, unit_seed  # noqa: E402

# `elastishape --version` runs per run; setup_s is their median.  One runs
# before each of the first units, the rest after the last unit.
SETUP_SAMPLES = 7
# Longest any single CLI process may run before it is killed.
COMMAND_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_ENV}
# Median CPU time of one `Reference.once` on a CPU of the reference machine
# (2-CPU VM, Python 3.11, numpy 2.4) at full speed.
REFERENCE_S = 0.0075
# Seconds between two kernel calls on a CPU while a command runs.
REFERENCE_PERIOD_S = 0.2
# Quality metrics (unit 1), and the workload that produces each.  On the
# other workloads they read NOT_APPLICABLE.
QUALITY = {
    "rereg_residual": "simulate-serial",
    "knn_acc": "simulate-serial",
    "elastic_sep": "compare-threads2",
    "vertex_sep": "compare-threads2",
    "adj_r2_mean": "regress-suite",
}
NOT_APPLICABLE = 1.0


class Reference:
    """A fixed kernel whose time tracks the speed of one CPU.

    It mixes what the workloads spend their time on: small-array numpy
    arithmetic, gathers and reductions on a 32x32 grid, a least-squares
    solve the size of a regression fit, and the Python calls around them.
    It never changes with the program, so a command's wall time over the
    kernel's time on the same CPU cancels the drift of that CPU and keeps
    what the program changed.  It takes about 4% of each CPU it samples.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.p = rng.standard_normal((32, 32, 3))
        self.f = rng.standard_normal((32, 32, 3))
        self.x = rng.standard_normal((120, 24))
        self.y = rng.standard_normal(120)

    def once(self) -> None:
        np, p, f = self.np, self.p, self.f
        for _ in range(30):
            r = np.sqrt((p * p).sum(axis=-1))
            theta = np.arctan2(p[..., 1], p[..., 0])
            phi = np.arccos(np.clip(p[..., 2] / r, -1.0, 1.0))
            i = (theta * 5.0).astype(int) % 32
            j = np.minimum((phi * 10.0).astype(int), 31)
            s = f[j, i] * np.sqrt(np.abs(theta))[..., None]
            float(((s - f) ** 2).sum())
            np.einsum("vui,vuj->ij", f, s)
            np.linalg.lstsq(self.x, self.y, rcond=None)

    @contextmanager
    def sampling(self, cpus: list):
        """Until the block ends, time the kernel (thread CPU seconds) every
        REFERENCE_PERIOD_S on a thread pinned to each of `cpus`; yields a
        dict from CPU to its list of times."""
        samples: dict = {cpu: [] for cpu in cpus}
        stop = threading.Event()

        def loop(cpu):
            os.sched_setaffinity(0, {cpu})  # this thread only
            while True:
                start = time.thread_time()
                self.once()
                samples[cpu].append(time.thread_time() - start)
                if stop.wait(REFERENCE_PERIOD_S):
                    return

        threads = [threading.Thread(target=loop, args=(cpu,), daemon=True)
                   for cpu in cpus]
        for thread in threads:
            thread.start()
        try:
            yield samples
        finally:
            stop.set()
            for thread in threads:
                thread.join()


def command_cpus(threads: int) -> list:
    """The CPUs a command with `threads` compute threads is pinned to."""
    return sorted(os.sched_getaffinity(0))[-threads:]


class Failure(Exception):
    """A command that failed or was killed, or a correctness check that failed."""


class Runner:
    """Starts `elastishape` processes from a checkout, one at a time."""

    def __init__(self, root: Path, logs: Path):
        self.root = root
        self.logs = logs
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # One BLAS/OpenMP thread per process: the workloads' own --threads
        # is the only parallelism, so at most nproc threads compute.
        for var in THREAD_ENV:
            self.env[var] = "1"
        self._count = 0
        # When set, each process is pinned to these CPUs and the reference
        # kernel is timed on them while it runs; `kernel_s` is then the mean
        # over the CPUs of the median kernel time during the last process.
        self.cpus: list | None = None
        self.reference: Reference | None = None
        self.kernel_s = 0.0

    def run(self, argv: list) -> tuple[float, float]:
        """Run one process to completion: (wall seconds, peak RSS in MB)."""
        self._count += 1
        log = self.logs / f"cmd{self._count:03d}"
        sampling = (self.reference.sampling(self.cpus) if self.cpus
                    else nullcontext({}))
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err, \
                sampling as samples:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            if self.cpus:
                try:
                    os.sched_setaffinity(proc.pid, self.cpus)
                except ProcessLookupError:
                    pass  # already exited; its exit code is read below
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        if samples:
            self.kernel_s = statistics.mean(statistics.median(v)
                                            for v in samples.values())
        if proc.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace")[-2000:]
            raise Failure(f"{' '.join(argv)} exited {proc.returncode}\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def cli(self, args: list) -> tuple[float, float]:
        return self.run(["-m", "elastishape.cli", *args])

    def traced(self, summary: Path, args: list) -> tuple[float, float]:
        return self.run([str(BENCH_DIR / "traced_cli.py"), str(summary), "--", *args])


def environment(root: Path, seed: int, held_out: int) -> dict:
    """What a result depends on besides the code: versions and settings."""
    import numpy as np
    import scipy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": held_out,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": INHERITED_THREAD_ENV,
        # Set for this process (the reference kernel) and every command.
        "run_thread_env": {v: "1" for v in THREAD_ENV},
    }


def unit_inputs(workload, work: Path, seed: int) -> Path:
    """The directory of a unit's seeded inputs, written on first use."""
    inputs = work / f"in-{seed}"
    if not inputs.exists():
        inputs.mkdir(parents=True)
        workload.prepare(inputs, seed)
    return inputs


def run_unit(runner: Runner, workload, inputs: Path, out: Path,
             summary: Path | None = None, **kw) -> tuple[float, float]:
    """Run and check one unit: wall seconds and peak RSS in MB.

    With `summary`, the command runs traced and writes its tracer summary
    there.
    """
    out.mkdir(parents=True)
    args = workload.command(inputs, out, **kw)
    if summary is None:
        wall, rss = runner.cli(args)
    else:
        wall, rss = runner.traced(summary, args)
    problems = workload.check(out)
    if problems:
        raise Failure(f"{workload.name}, {inputs.name}: " + "; ".join(problems))
    return wall, rss


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def attempt(self, fn, *args, **kw):
        """Run one operation (a unit and its checks); None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kw)
        except Failure as exc:
            self.failures.append(str(exc))
            return None


def untraced_metrics(runner, workload, work, seed, seconds, tally, info) -> dict:
    """Units for `seconds`; timings are medians of scaled wall times."""
    runner.cli(["--version"])  # warm-up: page cache and bytecode caches
    runner.reference = Reference()
    setup, walls, peaks, outs = [], [], [], []

    def scaled(wall):
        return wall * REFERENCE_S / runner.kernel_s

    start = time.perf_counter()
    k = 0
    while True:
        if len(setup) < SETUP_SAMPLES:
            runner.cpus = command_cpus(1)
            setup.append(scaled(runner.cli(["--version"])[0]))
        inputs = unit_inputs(workload, work, unit_seed(seed, k))
        out = work / f"out-{k}"
        runner.cpus = command_cpus(workload.threads)
        got = tally.attempt(run_unit, runner, workload, inputs, out)
        if got is not None:
            walls.append(scaled(got[0]))
            peaks.append(got[1])
            if k < workload.quality_units:
                outs.append(out)
        k += 1
        # Start no unit that would end past the time budget, but make the
        # quality units in any case.
        elapsed = time.perf_counter() - start
        if tally.failures or (k >= workload.quality_units
                              and elapsed + elapsed / k > seconds):
            break
    runner.cpus = command_cpus(1)
    while len(setup) < SETUP_SAMPLES:
        setup.append(scaled(runner.cli(["--version"])[0]))
    info["units"] = k
    if len(outs) < workload.quality_units:
        return {}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    quality = workload.quality(outs)
    for name, owner in QUALITY.items():
        value = quality[name] if owner == workload.name else NOT_APPLICABLE
        metrics[name] = (value, "1")
    return metrics


def _summary(spans: Path) -> dict:
    return layers.merge([json.loads(p.read_text()) for p in sorted(spans.glob("*.json"))])


def traced_metrics(runner, workload, work, seed, tally) -> dict:
    inputs = unit_inputs(workload, work, unit_seed(seed, 0))
    # The untraced and traced runs are scaled like wall_s, for the overhead.
    runner.reference = Reference()
    runner.cpus = command_cpus(workload.threads)
    plain = tally.attempt(run_unit, runner, workload, inputs, work / "out-plain")
    plain_kernel_s = runner.kernel_s
    spans = work / "spans"
    spans.mkdir()
    traced = tally.attempt(run_unit, runner, workload, inputs, work / "out-traced",
                           summary=spans / "summary.json")
    traced_kernel_s = runner.kernel_s
    runner.cpus = None
    summary = _summary(spans)
    serial_ms = layers.cohort_wall_ms(summary)
    if workload.serial_baseline is not None:
        serial_spans = work / "spans-serial"
        serial_spans.mkdir()
        tally.attempt(run_unit, runner, workload, inputs, work / "out-serial",
                      summary=serial_spans / "summary.json", **workload.serial_baseline)
        serial_ms = layers.cohort_wall_ms(_summary(serial_spans))

    probe_out = work / "probes.json"
    probed = tally.attempt(runner.run, [str(BENCH_DIR / "probes.py"), "--seed",
                                        str(seed), "--out", str(probe_out)])
    held_out = unit_inputs(workload, work, unit_seed(seed + HELD_OUT_OFFSET, 0))
    tally.attempt(run_unit, runner, workload, held_out, work / "out-held-out")

    if plain is None or traced is None or probed is None:
        return {}
    probes = json.loads(probe_out.read_text())
    overhead = (traced[0] / traced_kernel_s) / (plain[0] / plain_kernel_s) - 1.0
    values = layers.per_layer_metrics(summary, probes, serial_ms, overhead)
    return {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="elastishape benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "elastishape" / "cli.py").is_file():
        print(f"error: no elastishape sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Before numpy is imported here: the reference kernel runs on one thread.
    os.environ.update({v: "1" for v in THREAD_ENV})
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    logs = work / "logs"
    logs.mkdir(parents=True)
    runner = Runner(root, logs)
    tally = Tally()
    info: dict = {}
    try:
        if args.trace:
            metrics = traced_metrics(runner, workload, work, args.seed, tally)
        else:
            metrics = untraced_metrics(runner, workload, work, args.seed,
                                       args.seconds, tally, info)
    except Failure as exc:  # `--version` failed: nothing can be measured
        tally.failures.append(str(exc))
        metrics = {}

    for message in tally.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    if tally.failures:
        print(f"work directory kept for inspection: {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if not metrics:
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if info:
        print("run " + json.dumps(info, sort_keys=True))
    env = environment(root, args.seed, args.seed + HELD_OUT_OFFSET)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
