"""Smoke test of the benchmark: small inputs, no timing assertions.

    python3 -m pytest -q perfbench/smoke_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TWO_LEVEL_STAGES,
    CliReadme,
    Counters,
    DenseMetricSmall,
    TwoLevelCrosscheck,
)

from ptresonance import linalg  # noqa: E402


def run_jobs(jobs):
    checks, counters = oracles.Checks(), Counters()
    timings = {}
    for _, job in jobs:
        timings.update(job(checks, counters))
    return checks, counters, timings


def dense_n8(tmp_path):
    wl = DenseMetricSmall(ROOT, 3, tmp_path, {})
    wl.corpus = corpus.dense_corpus(3, counts={8: 2})
    return wl


def test_corpus_is_seeded_and_pt_symmetric():
    a = corpus.dense_corpus(5, counts={8: 2})[8]
    b = corpus.dense_corpus(5, counts={8: 2, 16: 1})[8]
    for (H, P, psi), (H2, P2, psi2) in zip(a, b):
        assert np.array_equal(H, H2) and np.array_equal(P, P2) and np.array_equal(psi, psi2)
        assert abs(np.linalg.norm(H, 2) - 1.0) < 1e-12
        assert oracles.pt_residual(H, P) < 1e-12


def test_dense_jobs_at_n8(tmp_path):
    checks, counters, timings = run_jobs(dense_n8(tmp_path).jobs(in_process=False))
    assert set(timings) == {"metric_s.n8"}
    assert checks.count > 0 and checks.min_digits > 0
    assert counters.sums["linalg.intertwiner_dim"] == 2 * 8


def test_two_level_one_set(tmp_path):
    wl = TwoLevelCrosscheck(ROOT, 3, tmp_path, {})
    wl.sets = corpus.two_level_inputs(3, sets=((1.0, 0.8),))
    checks, counters, timings = run_jobs(wl.jobs(in_process=False))
    assert set(timings) == {f"twolevel_s.{stage}" for stage in TWO_LEVEL_STAGES}
    assert counters.lows["odes.convergence_factor_min"] >= 14.0


def test_truncated_quadrature_oracle_matches_the_closed_tail():
    # For t > 0 and L t >> 1 the two tails sum to about -i cos(L t) / (pi L t).
    e0, gamma, L, t = 1.0, 0.8, 8000.0, 0.5
    tails = oracles.breit_wigner_time(t, e0, gamma) - oracles.truncated_breit_wigner_time(
        t, e0, gamma, L
    )
    expected = -1j * np.exp(-1j * e0 * t) * np.cos(L * t) / (np.pi * L * t)
    assert abs(tails - expected) < 1e-3 * abs(expected)


def test_oracle_rejects_a_wrong_answer():
    checks = oracles.Checks()
    with pytest.raises(oracles.CheckFailed):
        checks.within("off by 1e-3", 1e-3, 1e-6)
    with pytest.raises(oracles.CheckFailed):
        checks.within("not a number", float("nan"), 1.0)


def test_cli_command_in_subprocess_and_in_process(tmp_path):
    wl = CliReadme(ROOT, 3, tmp_path, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    wl.setup()
    wl.commands = wl.commands[:1]  # classify --s 0.6
    for in_process in (False, True):
        checks, _, timings = run_jobs(wl.jobs(in_process))
        assert set(timings) == {"cli_s.classify"}
    assert len(wl.digests) == 1  # the same bytes both ways


def test_tracer_accounts_for_job_time_and_restores(tmp_path):
    wl = dense_n8(tmp_path)
    original = linalg.eig
    tracer = Tracer()
    tracer.install()
    try:
        checks, counters = oracles.Checks(), Counters()
        for label, job in wl.jobs(in_process=False):
            with tracer.job(label):
                job(checks, counters)
    finally:
        tracer.remove()
    assert linalg.eig is original
    selfs = tracer.self_times()
    job_total = sum(tracer.job_seconds().values())
    assert sum(sec for sec, _ in selfs.values()) == pytest.approx(job_total)
    assert selfs[("linalg.solve_intertwiner", "n8")][1] == 2
    layer, _ = metrics.layer_metrics(tracer, 1)
    assert layer["metric.build_metric.self_pct.n8"] > 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


def test_without_package_source_it_fails_without_a_result(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-metric-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
