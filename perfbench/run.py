"""Benchmark entry point.

    python3 perfbench/run.py --workload dense-metric-small --seed 1 --seconds 25 --trace 0

Runs one workload in this process from the root of a source checkout.  It
sets up several times (``setup_s`` is the median), then runs passes over the
workload's job list until ``--seconds`` have elapsed, checking every output
against an independent oracle.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the CLI in-process, alternates untraced
passes with passes that record a span around every call into the package's
public functions, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  The full record, and the spans of a traced run, are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed at one before numpy loads, for this process and the
# CLI's children.  On a host with few shared cores a second BLAS thread waits
# on whatever else runs there: with one core kept busy by another process,
# a two-thread pass took 1.4x (n <= 16) to 2x (n = 32) as long, a
# one-thread pass no longer.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The benchmark and the CLI's children, which inherit this, run on one CPU,
# so the reference kernel times the CPU the jobs run on (see reference.py).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from oracles import CheckFailed, Checks  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
# In each untraced pass the reference kernel runs at the start and after a
# job once this much time has passed since it last ran: about 10% more time
# per pass, the same on every commit.
REFERENCE_EVERY_S = 0.1
PROBE_TIMEOUT_S = 60.0


def blas_facts() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown"; git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def interpreter_seconds(env) -> float:
    """Wall time of a bare interpreter that runs no package code."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0


def import_seconds(env) -> float:
    """``import ptresonance`` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import ptresonance; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True,
    )
    return float(proc.stdout)


class Run:
    """One closed measuring loop: passes, timings, checks, counters."""

    def __init__(self, checks, counters, reference):
        self.checks = checks
        self.counters = counters
        self.reference = reference
        self.untraced: list[float] = []
        # wall time of each job of the pass, over the untraced passes
        self.job_times: list[list[float]] = []
        self.traced: list[float] = []
        self.timings: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def passes(self) -> int:
        return len(self.untraced) + len(self.traced)

    def pass_ref(self) -> float:
        """A pass at the reference speed (see reference.py).

        Each job's time in a pass is scaled by the reference kernel's speed
        in that pass; per job the median over the passes is kept, and the
        medians are summed over the jobs of a pass.
        """
        scales = [self.reference.pass_scale(i) for i in range(len(self.untraced))]
        return sum(
            statistics.median(t * f for t, f in zip(times, scales)) for times in self.job_times
        )

    def measure(self, wl, seconds: float, in_process: bool, tracer=None) -> None:
        """Run passes until ``seconds`` have elapsed.

        With a tracer, every second pass is traced, so drift in machine speed
        falls on traced and untraced passes alike.
        """
        deadline = perf_counter() + seconds
        while True:
            traced = tracer is not None and self.passes % 2 == 1
            if not traced:
                self.reference.start_pass()
            last_reference = perf_counter()
            if traced:
                tracer.install()
            try:
                elapsed = 0.0
                for i, (label, job) in enumerate(wl.jobs(in_process)):
                    t_job = perf_counter()
                    self._job(label, job, tracer if traced else None)
                    seconds_job = perf_counter() - t_job
                    elapsed += seconds_job
                    if not traced:
                        if i == len(self.job_times):
                            self.job_times.append([])
                        self.job_times[i].append(seconds_job)
                        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
                            self.reference.sample()
                            last_reference = perf_counter()
            finally:
                if traced:
                    tracer.remove()
            (self.traced if traced else self.untraced).append(elapsed)
            if perf_counter() >= deadline and (tracer is None or self.traced):
                break

    def _job(self, label: str, job, tracer) -> None:
        self.attempted += 1
        try:
            if tracer is None:
                timings = job(self.checks, self.counters)
            else:
                with tracer.job(label):
                    timings = job(self.checks, self.counters)
        except Exception as exc:  # a failed job is counted, not fatal
            self.failed += 1
            if self.failed <= 5:
                print(f"job {label} failed: {exc}", file=sys.stderr)
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc(file=sys.stderr)
            return
        for name, value in timings.items():
            self.timings.setdefault(name, []).append(value)


def main(argv=None) -> int:
    if not (SRC / "ptresonance" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ptresonance'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Counters

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    wl = WORKLOADS[args.workload](ROOT, args.seed, OUT, env)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas": blas_facts(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }

    # One set-up is the package's import in a fresh interpreter (timed inside
    # it, so interpreter start-up is left out) plus the workload's own
    # set-up: building the inputs and a warm-up job.
    # The reference kernel runs once before and twice after each set-up.
    setup_times, import_times = [], []
    setup_reference = Reference()
    for _ in range(SETUP_REPEATS):
        setup_reference.start_pass()
        imported = import_seconds(env)
        t0 = perf_counter()
        wl.setup()
        setup_times.append(imported + perf_counter() - t0)
        import_times.append(imported)
        setup_reference.sample()
        setup_reference.sample()
    setup_scaled = [t * setup_reference.pass_scale(i) for i, t in enumerate(setup_times)]

    run = Run(Checks(), Counters(), Reference())
    tracer = Tracer() if args.trace else None
    run.measure(wl, args.seconds, in_process=bool(args.trace), tracer=tracer)

    ops_failed = run.failed / run.attempted
    lines = [f"# {k}: {v}" for k, v in facts.items()]
    lines.append(f"# passes {run.passes} ({len(run.traced)} traced), jobs {run.attempted}, "
                 f"failed {run.failed}, ops_failed {ops_failed:.4g}, checks {run.checks.count}")
    lines.append(f"# pass_s (median pass) {statistics.median(run.untraced):.6f} s, "
                 f"fastest pass {min(run.untraced):.6f} s, n={len(run.untraced)} untraced passes")
    kernel = statistics.median(t for times in run.reference.passes for t in times)
    lines.append(f"# as measured: setup_s {statistics.median(setup_times):.6f} s; reference "
                 f"kernel median {kernel:.6f} s, {len(run.reference.passes)} passes")
    lines += metrics.timing_lines(run.timings)
    if args.trace:
        values, layer_lines = metrics.layer_metrics(tracer, len(run.traced))
        lines += layer_lines
        values.update(metrics.counter_metrics(run.counters, run.passes))
        values["cli.interpreter_s"] = statistics.median(
            [interpreter_seconds(env) for _ in range(SETUP_REPEATS)]
        )
        values["cli.import_s"] = statistics.median(import_times)
        traced, untraced = statistics.median(run.traced), statistics.median(run.untraced)
        values["trace.pass_s"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        units = metrics.per_layer_units()
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
        # Each set-up and each job in a pass is scaled by the reference
        # kernel's speed around it (see reference.py).
        values = {
            "setup_s": statistics.median(setup_scaled),
            "pass_ref_s": run.pass_ref(),
            "min_digits": run.checks.min_digits,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = metrics.END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for name, unit in units.items():
        lines.append(f"{name:<48} {values[name]:.6g} {unit}")
    record = dict(
        facts, setup_s=setup_times, untraced_passes=run.untraced, traced_passes=run.traced,
        setup_reference_s=setup_reference.passes, job_times=run.job_times,
        reference_s=run.reference.passes,
        timings=run.timings, ops_failed=ops_failed, result=result,
    )
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
