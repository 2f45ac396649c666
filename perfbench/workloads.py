"""The four benchmark workloads.

Each workload is a closed loop with one client: ``jobs(in_process)``
returns one pass as a list of ``(label, job)`` pairs, every pass the same,
and the runner calls each ``job(checks, counters)`` in order.  A job runs the program, checks
its outputs against the oracles and returns the timings it took of the
program's own work, as ``{metric name: seconds}``.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus
import oracles as orc

from ptresonance import cli, evolution, linalg, metric, odes, response, symmetry
from ptresonance.errors import NoMetricError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Acceptance tolerances of the paper's criteria.
RESIDUAL_TOL = 1e-10  # intertwiner, similarity, symmetry, pseudounitarity
DRIFT_TOL = 1e-9  # metric-norm drift relative to the largest Dirac norm
CLOSED_FORM_TOL = 1e-12  # closed-form energy and time responses
RK4_TOL = 1e-6  # RK4 against the residue transform at step 1e-3
CONVERGENCE_FLOOR = 14.0  # error ratio for a halved RK4 step
# Quadrature against the truncated integral it approximates.  Its own error
# is rounding, ~1e-14 to 5e-12 at N = 200000; 1e-9 leaves about two digits,
# so a rounding change moves min_digits a little and a lost digit shows.
QUAD_TOL = 1e-9
CLI_TIMEOUT_S = 120.0


class Counters:
    """Per-layer work counts (summed) and accuracy extremes (max or min)."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.highs: dict[str, float] = {}
        self.lows: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def high(self, name: str, value: float) -> None:
        self.highs[name] = max(self.highs.get(name, -math.inf), float(value))

    def low(self, name: str, value: float) -> None:
        self.lows[name] = min(self.lows.get(name, math.inf), float(value))


def rk4_steps(times, step: float) -> int:
    """Substeps ``odes.integrate`` takes over a grid starting from t = 0."""
    total, prev = 0, 0.0
    for t in times:
        span = float(t) - prev
        if span > 0.0:
            total += max(1, math.ceil(span / step - 1e-12))
        prev = float(t)
    return total


def _drift(v_norms: np.ndarray, dirac_norms: np.ndarray) -> float:
    return float(np.max(np.abs(v_norms - v_norms[0])) / np.max(dirac_norms))


def _check_metric(checks, op, H: np.ndarray, dimension: int, expected_dim: int) -> None:
    checks.require("metric is invertible", op.invertible)
    checks.require("intertwiner dimension", dimension == expected_dim)
    checks.within("intertwiner residual", orc.intertwiner_residual(op.V, H), RESIDUAL_TOL)
    checks.within("metric hermiticity", orc.hermiticity_defect(op.V), RESIDUAL_TOL)


class Workload:
    name = ""
    # peak memory is the children's when the program runs in subprocesses
    children_rss = False

    def __init__(self, root: Path, seed: int, out: Path, env: dict):
        self.root = root
        self.seed = seed
        self.out = out
        self.env = env

    def setup(self) -> None:
        raise NotImplementedError

    def jobs(self, in_process: bool):
        raise NotImplementedError


class DenseMetric(Workload):
    """Random PT-symmetric H: H to certified metric, then evolution.

    Two workloads share this job and differ in sizes, so that each size
    takes about half of its workload's pass (see ``corpus.DENSE_SMALL``).
    """

    counts: dict[int, int] = {}

    def setup(self) -> None:
        self.corpus = corpus.dense_corpus(self.seed, self.counts)
        n = min(self.corpus)
        H, P, psi0 = self.corpus[n][0]
        self._job(n, H, P, psi0)(orc.Checks(), Counters())

    def jobs(self, in_process: bool):
        return [
            (f"n{n}", self._job(n, H, P, psi0))
            for n, items in self.corpus.items()
            for H, P, psi0 in items
        ]

    def _job(self, n: int, H: np.ndarray, P: np.ndarray, psi0: np.ndarray):
        def job(checks, counters):
            t0 = perf_counter()
            eigsys = linalg.eig(H)
            report, _ = symmetry.classify_hamiltonian(H)
            pt = symmetry.check_pt(H, symmetry.AntilinearSymmetry(P))
            space = linalg.solve_intertwiner(H)
            try:
                op = metric.build_metric(eigsys, space, H=H)
            except NoMetricError:
                counters.add("metric.no_metric", 1)
                raise
            ver = metric.verify_pseudo_hermiticity(H, op.V)
            t_metric = perf_counter() - t0
            traj = evolution.evolve(H, psi0, corpus.DENSE_TIMES, V=op.V)
            pu = evolution.pseudounitarity_residual(H, op.V, corpus.DENSE_PU_TIMES)

            w = np.linalg.eigvals(H)
            checks.require("classification partition sums to n", report.total_multiplicity == n)
            checks.require("no unmatched eigenvalue", len(report.unmatched) == 0)
            checks.require("check_pt accepts", pt.is_symmetric)
            checks.within("PT residual", orc.pt_residual(H, P), RESIDUAL_TOL)
            _check_metric(checks, op, H, space.dimension, orc.conjugate_pair_count(w, 1e-8))
            sim = float(
                np.linalg.norm(op.V @ H @ np.linalg.inv(op.V) - H.conj().T) / np.linalg.norm(H)
            )
            checks.within("similarity residual", sim, RESIDUAL_TOL)
            checks.within(
                "verify_pseudo_hermiticity agrees",
                max(
                    abs(ver.intertwiner - orc.intertwiner_residual(op.V, H)),
                    abs(ver.similarity - sim),
                ),
                1e-12,
            )
            expected = orc.spectral_states(H, psi0, corpus.DENSE_TIMES)
            checks.within("evolved states", orc.rel_err(traj.states, expected), 1e-8)
            drift = _drift(traj.v_norms, traj.dirac_norms)
            checks.within("metric-norm drift", drift, DRIFT_TOL)
            checks.within("pseudounitarity", pu.maximum, RESIDUAL_TOL)

            counters.add("symmetry.pairs", len(report.conjugate_pairs))
            counters.add("symmetry.unmatched", len(report.unmatched))
            counters.add("linalg.intertwiner_dim", space.dimension)
            counters.add("linalg.kron_bytes", 16 * n**4)
            counters.high("metric.condition_max", op.condition_estimate)
            counters.high("metric.residual_max", op.residual)
            counters.add("evolution.evolve.points", corpus.DENSE_TIMES.size)
            counters.add("evolution.pseudounitarity_residual.points", corpus.DENSE_PU_TIMES.size)
            counters.high("evolution.pseudounitarity_max", pu.maximum)
            counters.high("evolution.vnorm_drift_max", drift)
            return {f"metric_s.n{n}": t_metric}

        return job


class DenseMetricSmall(DenseMetric):
    """n = 8 and 16, where the sampled search in ``build_metric`` dominates."""

    name = "dense-metric-small"
    counts = corpus.DENSE_SMALL


class DenseMetricLarge(DenseMetric):
    """n = 24 and 32, where the Kronecker-SVD ``solve_intertwiner`` dominates."""

    name = "dense-metric-large"
    counts = corpus.DENSE_LARGE


TWO_LEVEL_STAGES = ("metric", "pseudounitarity", "scenario", "response", "quadrature", "rk4")


class TwoLevelCrosscheck(Workload):
    """The paper's 2x2 path with residue, quadrature and RK4 cross-checks."""

    name = "two-level-crosscheck"

    PU_TIMES = np.linspace(0.0, 5.0, 2001)
    SCENARIO_TIMES = np.linspace(0.0, 5.0, 5001)
    IFT_TIMES = np.linspace(-1.0, 5.0, 501)
    RK4_TIMES = np.linspace(0.0, 5.0, 501)
    COARSE_TIMES = np.linspace(0.0, 5.0, 51)

    def setup(self) -> None:
        self.sets = corpus.two_level_inputs(self.seed)
        self._metric(self.sets[0], orc.Checks(), Counters())

    def jobs(self, in_process: bool):
        return [(stage, self._bind(stage, s)) for s in self.sets for stage in TWO_LEVEL_STAGES]

    def _bind(self, stage: str, s: dict):
        fn = getattr(self, "_" + stage)

        def job(checks, counters):
            t0 = perf_counter()
            fn(s, checks, counters)
            return {f"twolevel_s.{stage}": perf_counter() - t0}

        return job

    @staticmethod
    def _params(s):
        return response.ResonanceParams(s["e0"], s["gamma"])

    def _metric(self, s, checks, counters):
        H = s["dimer"]
        report, _ = symmetry.classify_hamiltonian(H)
        pt = symmetry.check_pt(H, symmetry.AntilinearSymmetry(SIGMA_X))
        eigsys = linalg.eig(H)
        space = linalg.solve_intertwiner(H)
        op = metric.build_metric(eigsys, space, H=H)
        metric.verify_pseudo_hermiticity(H, op.V)
        s["V"] = op.V

        e0, gamma = s["e0"], s["gamma"]
        checks.within(
            "dimer eigenvalues", orc.rel_err(eigsys.eigenvalues, orc.dimer_eigenvalues(e0, gamma)),
            CLOSED_FORM_TOL,
        )
        checks.require("one conjugate pair", len(report.conjugate_pairs) == 1)
        checks.require("classification partition sums to 2", report.total_multiplicity == 2)
        checks.within(
            "pair (E0, Gamma)", orc.max_abs(report.conjugate_pairs[0], (e0, gamma)), CLOSED_FORM_TOL
        )
        checks.require("check_pt accepts sigma_x", pt.is_symmetric)
        checks.within("PT residual", orc.pt_residual(H, SIGMA_X), RESIDUAL_TOL)
        _check_metric(checks, op, H, space.dimension, 2)
        counters.add("symmetry.pairs", len(report.conjugate_pairs))
        counters.add("symmetry.unmatched", len(report.unmatched))
        counters.add("linalg.intertwiner_dim", space.dimension)
        counters.add("linalg.kron_bytes", 16 * 2**4)
        counters.high("metric.condition_max", op.condition_estimate)
        counters.high("metric.residual_max", op.residual)

    def _pseudounitarity(self, s, checks, counters):
        pu = evolution.pseudounitarity_residual(s["dimer"], s["V"], self.PU_TIMES)
        checks.within("pseudounitarity", pu.maximum, RESIDUAL_TOL)
        counters.add("evolution.pseudounitarity_residual.points", self.PU_TIMES.size)
        counters.high("evolution.pseudounitarity_max", pu.maximum)

    def _scenario(self, s, checks, counters):
        e0, gamma, psi0 = s["e0"], s["gamma"], s["psi0"]
        t = self.SCENARIO_TIMES
        res = evolution.two_level_scenario(e0, gamma, psi0, t)
        expected = np.column_stack(
            [
                psi0[0] * np.exp(-1j * (e0 + 1j * gamma) * t),
                psi0[1] * np.exp(-1j * (e0 - 1j * gamma) * t),
            ]
        )
        err = orc.rel_err(res.trajectory.states, expected)
        checks.within("scenario states", err, CLOSED_FORM_TOL)
        drift = _drift(res.v_norms, res.dirac_sum)
        checks.within("metric-norm drift", drift, DRIFT_TOL)
        checks.require(
            "metric norm conserved, Dirac norm not", res.v_conserved and not res.dirac_conserved
        )
        counters.add("evolution.evolve.points", t.size)
        counters.high("evolution.vnorm_drift_max", drift)

    def _response(self, s, checks, counters):
        e0, gamma = s["e0"], s["gamma"]
        p = self._params(s)
        grid = np.linspace(e0 - 20.0 * gamma, e0 + 20.0 * gamma, 2001)
        closed = {"breit-wigner": orc.breit_wigner, "pt-pair": orc.pt_pair}
        in_time = {"breit-wigner": orc.breit_wigner_time, "pt-pair": orc.pt_pair_time}
        delta = orc.phase_delay(grid, e0, gamma)
        dt = orc.time_delay(grid, e0, gamma)
        for kind in ("breit-wigner", "pt-pair"):
            table = response.energy_response(kind, p, grid)
            d = table["re_d"] + 1j * table["im_d"]
            err = orc.rel_err(d, closed[kind](grid, e0, gamma))
            checks.within(f"{kind} propagator", err, CLOSED_FORM_TOL)
            checks.within("phase shift", orc.max_abs(table["delta_delay"], delta), CLOSED_FORM_TOL)
            err = orc.max_abs(table["delta_advance"], -delta)
            checks.within("advance branch", err, CLOSED_FORM_TOL)
            checks.within("time delay", orc.rel_err(table["dt_delay"], dt), CLOSED_FORM_TOL)
            checks.within("time advance", orc.rel_err(table["dt_advance"], -dt), CLOSED_FORM_TOL)
            got = response.inverse_ft(response.build_model(kind, p), self.IFT_TIMES)
            expected = in_time[kind](self.IFT_TIMES, e0, gamma)
            checks.within(f"{kind} residue transform", orc.rel_err(got, expected), CLOSED_FORM_TOL)

    def _quadrature(self, s, checks, counters):
        e0, gamma = s["e0"], s["gamma"]
        p = self._params(s)
        for t in corpus.QUAD_TIMES:
            q = response.quadrature_ift(p, t, s["L"], corpus.QUAD_PANELS)
            err = abs(q.value - orc.truncated_breit_wigner_time(t, e0, gamma, s["L"]))
            checks.within(f"quadrature at t={t:g} vs the truncated integral", err, QUAD_TOL)
            # The truncation error is set by the chosen L, not by the program,
            # so this bound is pass/fail and gives no digits.
            tail = abs(q.value - complex(orc.breit_wigner_time(t, e0, gamma)))
            checks.require(
                f"quadrature at t={t:g}: error {tail:.3g} within tail estimate "
                f"{q.tail_estimate:.3g}",
                tail <= q.tail_estimate,
            )
            counters.add("response.quadrature_nodes", 6 * corpus.QUAD_PANELS)
            counters.high("response.ift_err_max", err)

    def _rk4(self, s, checks, counters):
        e0, gamma = s["e0"], s["gamma"]
        p = self._params(s)
        t = self.RK4_TIMES
        wave = odes.integrate(odes.pt_wave_ivp(p, t, 1e-3))
        err_wave = orc.max_abs(wave.psi, orc.pt_pair_time(t, e0, gamma))
        checks.within("RK4 pt-wave vs residue transform", err_wave, RK4_TOL)
        damped = odes.integrate(odes.damped_oscillator_ivp(p, t, 1e-3))
        err_damped = orc.max_abs(damped.psi, orc.damped_time(t, e0, gamma))
        checks.within("RK4 damped oscillator vs closed form", err_damped, RK4_TOL)
        coarse = self.COARSE_TIMES
        exact = orc.pt_pair_time(coarse, e0, gamma)
        errors = [
            orc.max_abs(odes.integrate(odes.pt_wave_ivp(p, coarse, step)).psi, exact)
            for step in (0.02, 0.01)
        ]
        factor = errors[0] / errors[1]
        checks.at_least("RK4 step-halving convergence factor", factor, CONVERGENCE_FLOOR)
        steps = 2 * rk4_steps(t, 1e-3) + rk4_steps(coarse, 0.02) + rk4_steps(coarse, 0.01)
        counters.add("odes.rk4_steps", steps)
        counters.high("odes.rk4_err_max", max(err_wave, err_damped))
        counters.low("odes.convergence_factor_min", factor)


def _read_csv(data: bytes) -> dict[str, np.ndarray]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: values[:, i] for i, name in enumerate(header)}


class CliReadme(Workload):
    """The README's CLI commands, each in a fresh interpreter, in order."""

    name = "cli-readme"
    children_rss = True

    def setup(self) -> None:
        src = self.root / "src"
        compileall.compile_dir(str(src / "ptresonance"), quiet=1)
        self.work = self.out / f"cli-{self.seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = corpus.stream(self.seed, "cli")
        self.H8, _ = corpus.random_pt_symmetric(rng, 8)
        self.psi8 = corpus.random_state(rng, 8)
        (self.work / "h8.json").write_text(json.dumps(corpus.matrix_json(self.H8)))
        self.digests: dict[int, str] = {}
        h8, v8 = str(self.work / "h8.json"), str(self.work / "v8.json")
        psi8 = ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in self.psi8)
        preset = ["--e0", "1", "--gamma", "0.8"]
        # (label, argv, expected exit code, output files, oracle)
        self.commands = [
            ("classify", ["classify", "--s", "0.6"], 0, [], self._classify_pair),
            ("classify", ["classify", "--s", "1"], 3, [], self._classify_ep),
            ("metric", ["metric", "--s", "0.6"], 0, [], self._metric_dimer),
            ("metric", ["metric", "--input", h8, "--output", v8], 0, ["v8.json"], self._metric_h8),
            (
                "evolve",
                ["evolve", *preset, "--psi0", "0,1", "--output", self._path("traj.csv")],
                0, ["traj.csv"], self._evolve_preset,
            ),
            (
                "evolve",
                ["evolve", "--input", h8, "--v-file", v8, f"--psi0={psi8}", "--t-stop", "5",
                 "--t-points", "201", "--output", self._path("traj8.csv")],
                0, ["traj8.csv"], self._evolve_h8,
            ),
            (
                "response",
                ["response", "--kind", "pt-pair", *preset, "--output", self._path("run1")],
                0, ["run1_curves.csv", "run1_time.csv", "run1_model.json"], self._response,
            ),
            (
                "ode",
                ["ode", "--equation", "pt-wave", *preset, "--step", "1e-3",
                 "--output", self._path("wave.csv")],
                0, ["wave.csv"], self._ode,
            ),
        ]

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def jobs(self, in_process: bool):
        return [(label, self._bind(i, in_process)) for i, (label, *_) in enumerate(self.commands)]

    def _run(self, argv, in_process: bool):
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue().encode(), err.getvalue(), perf_counter() - t0
        cmd = [sys.executable, "-m", "ptresonance.cli", *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S)
        seconds = perf_counter() - t0
        return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), seconds

    def _bind(self, i: int, in_process: bool):
        label, argv, expected_code, outputs, oracle = self.commands[i]

        def job(checks, counters):
            code, stdout, stderr, seconds = self._run(argv, in_process)
            checks.require(f"{label} exit code {code}, expected {expected_code}: {stderr[-300:]}",
                           code == expected_code)
            data = {name: (self.work / name).read_bytes() for name in outputs}
            oracle(stdout, data, checks, counters)
            digest = hashlib.sha256(stdout + b"".join(data[name] for name in outputs)).hexdigest()
            same = self.digests.setdefault(i, digest) == digest
            checks.require(f"{label} output identical across passes", same)
            return {f"cli_s.{label}": seconds}

        return job

    # oracles, one per README command

    def _classify_pair(self, stdout, data, checks, counters):
        rep = json.loads(stdout)
        w = [complex(*z) for z in rep["eigenvalues"]]
        err = orc.rel_err(w, orc.dimer_eigenvalues(1.0, 0.8))
        checks.within("classify eigenvalues", err, CLOSED_FORM_TOL)
        checks.require(
            "classify: one pair, nothing else",
            len(rep["pairs"]) == 1
            and not (rep["real"] or rep["unmatched"] or rep["broken"]),
        )
        pair = (rep["pairs"][0]["e0"], rep["pairs"][0]["gamma"])
        checks.within("classify pair", orc.max_abs(pair, (1.0, 0.8)), CLOSED_FORM_TOL)
        checks.require("classify sigma_x check", rep["antilinear_check"]["symmetric"])
        counters.add("symmetry.pairs", len(rep["pairs"]))
        counters.add("symmetry.unmatched", len(rep["unmatched"]))

    def _classify_ep(self, stdout, data, checks, counters):
        rep = json.loads(stdout)
        checks.require("classify flags the two-fold exceptional point",
                       [e["multiplicity"] for e in rep["exceptional"]] == [2])
        err = abs(complex(*rep["exceptional"][0]["value"]) - 1.0)
        checks.within("exceptional value", err, 1e-6)
        counters.add("symmetry.pairs", len(rep["pairs"]))
        counters.add("symmetry.unmatched", len(rep["unmatched"]))

    def _check_metric_json(self, obj, H, checks, counters):
        V = np.array([[complex(*z) for z in row] for row in obj["V"]["entries"]])
        checks.require("metric flags", obj["hermitian"] and obj["invertible"])
        expected_dim = orc.conjugate_pair_count(np.linalg.eigvals(H), 1e-8)
        checks.require("metric intertwiner dimension", obj["intertwiner_dimension"] == expected_dim)
        checks.within("metric intertwiner residual", orc.intertwiner_residual(V, H), RESIDUAL_TOL)
        checks.within("metric hermiticity", orc.hermiticity_defect(V), RESIDUAL_TOL)
        counters.add("linalg.intertwiner_dim", obj["intertwiner_dimension"])
        counters.add("linalg.kron_bytes", 16 * H.shape[0] ** 4)
        counters.high("metric.condition_max", obj["condition_estimate"])
        counters.high("metric.residual_max", obj["residual"])

    def _metric_dimer(self, stdout, data, checks, counters):
        H = np.array([[1.0 + 1.0j, 0.6], [0.6, 1.0 - 1.0j]])
        self._check_metric_json(json.loads(stdout), H, checks, counters)

    def _metric_h8(self, stdout, data, checks, counters):
        self._check_metric_json(json.loads(data["v8.json"]), self.H8, checks, counters)

    def _evolve_preset(self, stdout, data, checks, counters):
        c = _read_csv(data["traj.csv"])
        t = c["t"]
        c2 = np.exp(-1j * (1.0 - 0.8j) * t)
        empty = not np.any(c["re_psi0"]) and not np.any(c["im_psi0"])
        checks.require("preset first channel stays empty", empty)
        err = orc.rel_err(c["re_psi1"] + 1j * c["im_psi1"], c2)
        checks.within("preset state", err, CLOSED_FORM_TOL)
        err = orc.rel_err(c["dirac_norm"], np.exp(-1.6 * t))
        checks.within("preset Dirac norm", err, CLOSED_FORM_TOL)
        v_norm = np.abs(c["re_v_norm"] + 1j * c["im_v_norm"])
        checks.within("preset metric norm", float(np.max(v_norm)), DRIFT_TOL)
        counters.add("evolution.evolve.points", t.size)

    def _evolve_h8(self, stdout, data, checks, counters):
        c = _read_csv(data["traj8.csv"])
        t = c["t"]
        states = np.column_stack([c[f"re_psi{k}"] + 1j * c[f"im_psi{k}"] for k in range(8)])
        expected = orc.spectral_states(self.H8, self.psi8, t)
        checks.within("evolved states", orc.rel_err(states, expected), 1e-8)
        drift = _drift(c["re_v_norm"] + 1j * c["im_v_norm"], c["dirac_norm"])
        checks.within("metric-norm drift", drift, DRIFT_TOL)
        counters.add("evolution.evolve.points", t.size)
        counters.high("evolution.vnorm_drift_max", drift)

    def _response(self, stdout, data, checks, counters):
        e0, gamma = 1.0, 0.8
        c = _read_csv(data["run1_curves.csv"])
        E = c["E"]
        err = orc.rel_err(c["re_d"] + 1j * c["im_d"], orc.pt_pair(E, e0, gamma))
        checks.within("response propagator", err, CLOSED_FORM_TOL)
        delta = orc.phase_delay(E, e0, gamma)
        err = max(orc.max_abs(c["delta_delay"], delta), orc.max_abs(c["delta_advance"], -delta))
        checks.within("response phase shifts", err, CLOSED_FORM_TOL)
        dt = orc.time_delay(E, e0, gamma)
        err = max(orc.rel_err(c["dt_delay"], dt), orc.rel_err(c["dt_advance"], -dt))
        checks.within("response time delay", err, CLOSED_FORM_TOL)
        c = _read_csv(data["run1_time.csv"])
        err = orc.rel_err(c["re_d"] + 1j * c["im_d"], orc.pt_pair_time(c["t"], e0, gamma))
        checks.within("response time domain", err, CLOSED_FORM_TOL)
        model = json.loads(data["run1_model.json"])
        expected = {
            "poles": [[e0, -gamma], [e0, gamma]],
            "residues": [[1.0, 0.0], [-1.0, 0.0]],
            "closure": ["lower", "lower"],
        }
        checks.require("response pole model", model == expected)

    def _ode(self, stdout, data, checks, counters):
        c = _read_csv(data["wave.csv"])
        t = c["t"]
        err = orc.max_abs(c["re_psi"] + 1j * c["im_psi"], orc.pt_pair_time(t, 1.0, 0.8))
        checks.within("ode pt-wave vs residue transform", err, RK4_TOL)
        counters.add("odes.rk4_steps", rk4_steps(t, 1e-3))
        counters.high("odes.rk4_err_max", err)


WORKLOADS = {
    w.name: w for w in (DenseMetricSmall, DenseMetricLarge, TwoLevelCrosscheck, CliReadme)
}
