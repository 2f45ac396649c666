"""Command-line front end.

Subcommands: ``classify``, ``metric``, ``evolve``, ``response``, ``ode``.
File formats are the JSON matrix interchange format and plain CSV with full
double precision (17 significant digits), so outputs are byte-identical for
identical configurations and can be fed back into downstream commands.

Exit codes, one exception type each (``errors``): 0 success, 1 malformed input
(usage errors included), 2 broken (unpairable) spectrum, 3 exceptional point, 4
no metric operator, 5 overflow guard or non-finite intermediate (subcommands
run under an ``np.errstate`` raising on overflow, invalid and divide).  No
subcommand takes a tolerance: ``classify``, ``metric`` and ``evolve`` decide
realness, pairing and the exceptional point (exit 3) within one backward error,
``linalg.RESIDUAL_CAP`` times ``||H||_2``, so they give one verdict per matrix.
Grid bounds must be finite and come in start/stop pairs, and every grid must
have at least 2 points and be strictly ascending (no repeated values).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import evolution, linalg, metric, odes, response, symmetry
from .errors import DefectiveMatrixError, NoMetricError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BROKEN = 2
EXIT_EXCEPTIONAL = 3
EXIT_NO_METRIC = 4
EXIT_OVERFLOW = 5


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str | None, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str | None, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per line, each value as ``%.17g`` of its Python float, so it
    reads back to the same double; one ``%`` formats a whole row."""
    row = ",".join(["%.17g"] * len(columns))
    values = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    _write_text(path, "\n".join([",".join(header)] + [row % v for v in values]) + "\n")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _load_matrix(path: str) -> np.ndarray:
    return linalg.matrix_from_json(_read_json(path))


def _load_metric_matrix(path: str) -> np.ndarray:
    """Accept either a bare matrix file or a metric-operator JSON file."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "V" in obj:
        obj = obj["V"]
    return linalg.matrix_from_json(obj)


def _input_matrix(args) -> np.ndarray:
    has_input = getattr(args, "input", None) is not None
    has_s = getattr(args, "s", None) is not None
    if has_input and has_s:
        raise ValueError("give either --input or --s, not both")
    if has_input:
        return _load_matrix(args.input)
    if has_s:
        return symmetry.gain_loss_dimer(args.s)
    raise ValueError("a matrix is required: pass --input FILE or --s S")


def _parse_state(text: str, n: int, option: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{option}: expected {n} comma-separated components, got {len(parts)}")
    try:
        vec = [complex(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{option}: cannot parse component ({exc})") from exc
    return linalg._as_vector(vec, f"{option}: components")


def _linspace(start: float, stop: float, points: int, name: str) -> np.ndarray:
    # A span beyond the double range would give linspace an infinite step.
    if not np.isfinite(stop - start):
        raise ValueError(f"--{name}-start, --{name}-stop and their difference must be finite")
    grid = np.linspace(start, stop, points)
    return linalg._require_grid(grid, f"the {points}-point grid --{name}-start to --{name}-stop")


def _time_grid(args) -> np.ndarray:
    if args.t_points < 2:
        raise ValueError("--t-points must be at least 2")
    return _linspace(args.t_start, args.t_stop, args.t_points, "t")


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    H = _input_matrix(args)
    report, eigsys = symmetry.classify_hamiltonian(H)

    check = None
    P = None
    if args.p_file is not None:
        P = _load_matrix(args.p_file)
        p_source = args.p_file
    elif H.shape[0] == 2:
        P = linalg.PAULI_X
        p_source = "sigma_x (default for 2x2)"
    if P is not None:
        sym = symmetry.AntilinearSymmetry(P)
        result = symmetry.check_pt(H, sym)
        check = {
            "P": p_source,
            "symmetric": bool(result.is_symmetric),
            "residual": result.residual,
        }

    out = report.to_json()
    out["eigenvalues"] = [[z.real, z.imag] for z in eigsys.eigenvalues]
    out["antilinear_check"] = check
    _write_json(args.output, out)
    if report.exceptional:
        return EXIT_EXCEPTIONAL
    if report.broken:
        return EXIT_BROKEN
    return EXIT_OK


def cmd_metric(args) -> int:
    H = _input_matrix(args)
    eigsys = linalg.eig(H)
    space = linalg.solve_intertwiner(H)
    op = metric.build_metric(eigsys, space, policy=args.policy, H=H)
    out = op.to_json()
    out["policy"] = args.policy
    out["intertwiner_dimension"] = space.dimension
    _write_json(args.output, out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    preset = args.e0 is not None or args.gamma is not None
    if preset:
        if args.input is not None or args.s is not None:
            raise ValueError("the --e0/--gamma preset excludes --input and --s")
        if args.e0 is None or args.gamma is None:
            raise ValueError("the two-level preset needs both --e0 and --gamma")
        H = evolution.two_level_hamiltonian(args.e0, args.gamma)
        V = metric.PAPER_GAUGE_V if args.v_file is None else _load_metric_matrix(args.v_file)
    else:
        H = _input_matrix(args)
        V = _load_metric_matrix(args.v_file) if args.v_file is not None else None

    psi0 = _parse_state(args.psi0, H.shape[0], "--psi0")
    times = _time_grid(args)
    traj = evolution.evolve(H, psi0, times, V=V)

    if args.format == "json":
        out = {
            "times": [float(t) for t in traj.times],
            "states": [[[z.real, z.imag] for z in row] for row in traj.states],
            "dirac_norms": [float(v) for v in traj.dirac_norms],
            "v_norms": None
            if traj.v_norms is None
            else [[z.real, z.imag] for z in traj.v_norms],
        }
        _write_json(args.output, out)
        return EXIT_OK

    n = traj.states.shape[1]
    header = ["t"]
    columns: list[np.ndarray] = [traj.times]
    for k in range(n):
        header += [f"re_psi{k}", f"im_psi{k}"]
        columns += [traj.states[:, k].real, traj.states[:, k].imag]
    header.append("dirac_norm")
    columns.append(traj.dirac_norms)
    if traj.v_norms is not None:
        header += ["re_v_norm", "im_v_norm"]
        columns += [traj.v_norms.real, traj.v_norms.imag]
    _write_csv(args.output, header, columns)
    return EXIT_OK


def cmd_response(args) -> int:
    p = response.ResonanceParams(args.e0, args.gamma)
    if args.grid_points < 2:
        raise ValueError("--grid-points must be at least 2")
    if (args.grid_start is None) != (args.grid_stop is None):
        raise ValueError("--grid-start and --grid-stop must be given together")
    # The time domain first: an E0 whose phase E0 t overflows is an overflow
    # (exit 5), not the collapsed energy grid it also makes.
    model = response.build_model(args.kind, p)
    times = _time_grid(args)
    d_time = response.inverse_ft(model, times)
    if args.grid_start is None:
        energies = response.default_energy_grid(p, points=args.grid_points)
    else:
        energies = _linspace(args.grid_start, args.grid_stop, args.grid_points, "grid")
    table = response.energy_response(args.kind, p, energies)

    prefix = args.output
    _write_csv(f"{prefix}_curves.csv", list(table), list(table.values()))
    _write_csv(f"{prefix}_time.csv", ["t", "re_d", "im_d"], [times, d_time.real, d_time.imag])
    _write_json(f"{prefix}_model.json", model.to_json())
    return EXIT_OK


def cmd_ode(args) -> int:
    p = response.ResonanceParams(args.e0, args.gamma)
    times = _time_grid(args)
    if args.equation == "pt-wave":
        ivp = odes.pt_wave_ivp(p, times, args.step)
    else:
        ivp = odes.damped_oscillator_ivp(p, times, args.step)
    if args.init is not None:
        init = _parse_state(args.init, 2, "--init")
        ivp = ivp._replace(psi0=init[0], dpsi0=init[1])
    series = odes.integrate(ivp)
    _write_csv(
        args.output,
        ["t", "re_psi", "im_psi", "re_dpsi", "im_dpsi"],
        [series.times, series.psi.real, series.psi.imag, series.dpsi.real, series.dpsi.imag],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_matrix_args(sub):
    sub.add_argument("--input", help="matrix JSON file")
    sub.add_argument("--s", type=float, help="build the gain/loss dimer [[1+i,s],[s,1-i]]")


def _add_time_args(sub, points=201):
    sub.add_argument("--t-start", type=float, default=0.0)
    sub.add_argument("--t-stop", type=float, default=5.0)
    sub.add_argument("--t-points", type=int, default=points)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (malformed input), not argparse's 2 (a broken
    spectrum here); subcommand parsers inherit this class."""

    def parse_known_args(self, args=None, namespace=None):
        # The parser that saw unknown arguments refuses them, with its own usage.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptresonance",
        description="Antilinear-symmetry diagnostics, metric operators and resonance response",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify", help="classify a matrix spectrum")
    _add_matrix_args(c)
    c.add_argument("--p-file", help="linear part P of the antilinear symmetry (matrix JSON)")
    c.add_argument("--output", help="report path (default stdout)")
    c.set_defaults(func=cmd_classify)

    m = subs.add_parser("metric", help="construct a metric operator")
    _add_matrix_args(m)
    m.add_argument(
        "--policy",
        choices=metric.POLICIES,
        default="hermitian-representative",
    )
    m.add_argument("--output", help="metric JSON path (default stdout)")
    m.set_defaults(func=cmd_metric)

    e = subs.add_parser("evolve", help="evolve a state and track both norms")
    _add_matrix_args(e)
    e.add_argument("--e0", type=float, help="two-level preset: resonance energy")
    e.add_argument("--gamma", type=float, help="two-level preset: half-width")
    e.add_argument("--v-file", help="metric operator (matrix or metric JSON)")
    e.add_argument("--psi0", required=True, help="initial state, comma-separated components")
    _add_time_args(e)
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.add_argument("--output", help="trajectory path (default stdout)")
    e.set_defaults(func=cmd_evolve)

    r = subs.add_parser("response", help="energy/time response curves and pole model")
    r.add_argument("--kind", choices=response.MODEL_KINDS, required=True)
    r.add_argument("--e0", type=float, required=True)
    r.add_argument("--gamma", type=float, required=True)
    r.add_argument("--grid-start", type=float, help="energy grid start (default E0 - 20 Gamma)")
    r.add_argument("--grid-stop", type=float, help="energy grid stop (default E0 + 20 Gamma)")
    r.add_argument("--grid-points", type=int, default=2001)
    _add_time_args(r)
    r.add_argument("--output", required=True, help="output prefix for _curves/_time/_model files")
    r.set_defaults(func=cmd_response)

    o = subs.add_parser("ode", help="integrate one of the two wave equations")
    o.add_argument("--equation", choices=("pt-wave", "damped-oscillator"), required=True)
    o.add_argument("--e0", type=float, required=True)
    o.add_argument("--gamma", type=float, required=True)
    o.add_argument("--init", help="psi(0),psi'(0) (default: the equation's canonical data)")
    _add_time_args(o, points=501)
    o.add_argument("--step", type=float, default=1e-3)
    o.add_argument("--output", help="CSV path (default stdout)")
    o.set_defaults(func=cmd_ode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A non-finite intermediate is an error here, never a NaN in the output.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DefectiveMatrixError as exc:
        print(f"exceptional point: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL
    except NoMetricError as exc:
        print(f"no metric: {exc}", file=sys.stderr)
        return EXIT_NO_METRIC
    except FloatingPointError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
