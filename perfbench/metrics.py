"""Metric names, units and the reductions that produce them.

``END_TO_END`` and ``per_layer_units()`` are the two lists in
``BENCHMARK.json``; every workload reports every name in them.
"""

from __future__ import annotations

import statistics

import corpus
from spans import JOB

END_TO_END = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
}

# Layers whose self-time share is reported on every workload; the first
# eight are the ones a dense job calls, also reported per size.
LAYERS = (
    "linalg.eig",
    "linalg.solve_intertwiner",
    "symmetry.classify_hamiltonian",
    "symmetry.check_pt",
    "metric.build_metric",
    "metric.verify_pseudo_hermiticity",
    "evolution.evolve",
    "evolution.pseudounitarity_residual",
    "evolution.two_level_scenario",
    "response.energy_response",
    "response.inverse_ft",
    "response.quadrature_ift",
    "odes.integrate",
    "cli.main",
)
DENSE_LAYERS = LAYERS[:8]
# Work counts, reported per pass.
SUMS = {
    "linalg.intertwiner_dim": "count",
    "linalg.kron_bytes": "B",
    "symmetry.pairs": "count",
    "symmetry.unmatched": "count",
    "metric.no_metric": "count",
    "evolution.evolve.points": "count",
    "evolution.pseudounitarity_residual.points": "count",
    "response.quadrature_nodes": "count",
    "odes.rk4_steps": "count",
}
# Accuracy extremes over the run; 0 where the workload does not reach the layer.
HIGHS = (
    "metric.condition_max",
    "metric.residual_max",
    "evolution.pseudounitarity_max",
    "evolution.vnorm_drift_max",
    "response.ift_err_max",
    "odes.rk4_err_max",
)
LOWS = ("odes.convergence_factor_min",)
TAIL_PERCENTILES = (99, 95, 90, 75)


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        "trace.pass_s": "s",
        "trace.overhead_pct": "%",
        "trace.untraced_pct": "%",
    }
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
        units[f"{layer}.calls"] = "count"
    for layer in DENSE_LAYERS:
        for n in corpus.DENSE_SIZES:
            units[f"{layer}.self_pct.n{n}"] = "%"
    units.update(SUMS)
    for name in HIGHS + LOWS:
        units[name] = "1"
    return units


def percentile_tail(values):
    """Highest listed percentile with at least ten samples beyond it, or (None, None)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def timing_lines(timings: dict[str, list[float]]) -> list[str]:
    lines = ["# job timings: median, tail percentile, samples"]
    for name in sorted(timings):
        values = timings[name]
        p, tail = percentile_tail(values)
        tail_text = f"p{p} {tail:.6f} s" if p else "tail -"
        median = statistics.median(values)
        lines.append(f"#   {name:<28} {median:.6f} s  {tail_text}  n={len(values)}")
    return lines


def counter_metrics(counters, n_passes: int) -> dict[str, float]:
    out = {name: counters.sums.get(name, 0.0) / n_passes for name in SUMS}
    out.update({name: counters.highs.get(name, 0.0) for name in HIGHS})
    out.update({name: counters.lows.get(name, 0.0) for name in LOWS})
    return out


def layer_metrics(tracer, n_passes: int) -> tuple[dict[str, float], list[str]]:
    """Self-time shares and calls per pass from the spans, and a readable table.

    A share is the layer's self time over the traced jobs' wall time; on the
    dense workloads, ``.nN`` shares are over the wall time of the size-N jobs.
    """
    selfs = tracer.self_times()
    job_seconds = tracer.job_seconds()
    total = sum(job_seconds.values())
    by_layer: dict[str, list] = {}
    for (name, _), (sec, calls) in selfs.items():
        entry = by_layer.setdefault(name, [0.0, 0])
        entry[0] += sec
        entry[1] += calls

    metrics = {}
    for layer in LAYERS:
        sec, calls = by_layer.get(layer, (0.0, 0))
        metrics[f"{layer}.self_pct"] = 100.0 * sec / total
        metrics[f"{layer}.calls"] = calls / n_passes
    sized = [n for n in corpus.DENSE_SIZES if f"n{n}" in job_seconds]
    for layer in DENSE_LAYERS:
        for n in corpus.DENSE_SIZES:
            sec = selfs.get((layer, f"n{n}"), (0.0, 0))[0]
            share = 100.0 * sec / job_seconds[f"n{n}"] if n in sized else 0.0
            metrics[f"{layer}.self_pct.n{n}"] = share
    metrics["trace.untraced_pct"] = 100.0 * by_layer.get(JOB, (0.0, 0))[0] / total

    lines = ["# self time per traced pass, every traced function: seconds, calls, share"]
    for name, (sec, calls) in sorted(by_layer.items(), key=lambda kv: -kv[1][0]):
        shown = "(benchmark code in jobs)" if name == JOB else f"{name}.s"
        lines.append(f"#   {shown:<44} {sec / n_passes:11.6f} s {calls / n_passes:9.1f} calls "
                     f"{100.0 * sec / total:6.2f} %")
    for n in sized:
        lines.append(f"# self time per traced pass, size-{n} jobs: seconds, share")
        for layer in DENSE_LAYERS:
            sec = selfs.get((layer, f"n{n}"), (0.0, 0))[0]
            lines.append(f"#   {f'{layer}.s.n{n}':<44} {sec / n_passes:11.6f} s "
                         f"{100.0 * sec / job_seconds[f'n{n}']:6.2f} %")
    return metrics, lines
