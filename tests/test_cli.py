"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ptresonance import (
    DefectiveMatrixError,
    IntertwinerSpace,
    NoMetricError,
    build_metric,
    classify_hamiltonian,
    eig,
    evolve,
    gain_loss_dimer,
    linalg,
    mat_exp_evolution,
    metric,
    pseudounitarity_residual,
    solve_intertwiner,
)
from ptresonance import cli
from ptresonance.cli import build_parser, main

DIAG_PAIR = np.diag([1 + 0.8j, 1 - 0.8j])

# four defective 2x2 blocks at distinct real shifts
DEFECTIVE_8 = np.kron(np.diag([0.0, 2.0, 4.0, 6.0]), np.eye(2)) + np.kron(
    np.eye(4), gain_loss_dimer(1.0)
)
# The 3x3 nilpotent Jordan block: numpy's eigenvectors of it are exactly
# singular, so eig takes kappa = inf for every value.
JORDAN_3 = np.diag([1.0, 1.0], 1)


def write_matrix(path, m):
    with open(path, "w") as fh:
        json.dump(linalg.matrix_to_json(m), fh)
    return str(path)


@pytest.fixture
def matrices(tmp_path):
    return {
        "m2": write_matrix(tmp_path / "m2.json", gain_loss_dimer(2.0)),
        "m06": write_matrix(tmp_path / "m06.json", gain_loss_dimer(0.6)),
        "m1": write_matrix(tmp_path / "m1.json", gain_loss_dimer(1.0)),
        "diag": write_matrix(tmp_path / "diag.json", DIAG_PAIR),
        "herm": write_matrix(tmp_path / "herm.json", np.array([[2.0, 1.0], [1.0, 3.0]])),
        "broken": write_matrix(tmp_path / "broken.json", np.diag([1 + 1j, 2 - 1j])),
        "generic": write_matrix(
            tmp_path / "generic.json", np.array([[1 + 1j, 0.3], [0.0, 2 - 0.5j]])
        ),
        "near_pair": write_matrix(tmp_path / "near_pair.json", np.diag([1 + 1j, 1 - 1j + 5e-10])),
        "near_pair_15": write_matrix(
            tmp_path / "near_pair_15.json", np.diag([1 + 1j, 1 - 1j + 1.5e-10])
        ),
        "small_broken": write_matrix(
            tmp_path / "small_broken.json", 1e-12 * np.diag([1 + 1j, 2 - 1j])
        ),
        "small_m06": write_matrix(tmp_path / "small_m06.json", 1e-12 * gain_loss_dimer(0.6)),
    }


class TestClassify:
    def test_real_spectrum(self, matrices, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--input", matrices["m2"], "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["real"]) == 2
        assert rep["pairs"] == []
        assert rep["antilinear_check"]["symmetric"] is True

    def test_conjugate_pair(self, matrices, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--input", matrices["m06"], "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        (pair,) = rep["pairs"]
        assert pair["e0"] == pytest.approx(1.0)
        assert pair["gamma"] == pytest.approx(0.8)

    def test_exceptional_exit_code(self, matrices, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--input", matrices["m1"], "--output", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["exceptional"][0]["multiplicity"] == 2

    def test_broken_spectrum_exit_code(self, matrices, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--input", matrices["broken"], "--output", str(out)]) == 2
        assert json.loads(out.read_text())["broken"] is True

    def test_dimer_builder_flag(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--s", "0.6", "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pairs"][0]["gamma"] == pytest.approx(0.8)

    def test_malformed_file_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]}))
        assert main(["classify", "--input", str(bad)]) == 1
        assert "entries[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "entries": [[[1, 0]]]},
            {"n": 1, "entries": [[[True, False]]]},
            {"n": 1, "entries": [[[10**400, 0]]]},
        ],
    )
    def test_malformed_number_is_input_error(self, tmp_path, capsys, obj):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["classify", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_missing_input(self, capsys):
        assert main(["classify"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_explicit_p_file(self, matrices, tmp_path):
        p_file = write_matrix(tmp_path / "p.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = tmp_path / "rep.json"
        assert main(
            ["classify", "--input", matrices["m06"], "--p-file", p_file, "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["antilinear_check"]["symmetric"] is True


def _refusal(H) -> str:
    with pytest.raises(DefectiveMatrixError) as exc:
        mat_exp_evolution(eig(H), 1.0)
    return str(exc.value)


@pytest.mark.parametrize(
    "H, clusters",
    [pytest.param(gain_loss_dimer(1.0), 1, id="dimer"), pytest.param(DEFECTIVE_8, 4, id="n8"),
     pytest.param(JORDAN_3, 1, id="jordan-3")],
)
def test_one_refusal_everywhere(H, clusters, tmp_path, capsys):
    """Every routine that needs a complete eigenbasis refuses a defective
    spectrum with the same message, naming each defective cluster (of n /
    clusters values each), and the CLI passes it on unchanged with exit code
    3, the code classify gives its report."""
    n = H.shape[0]
    times = np.linspace(0.0, 1.0, 5)
    refusals = {
        "solve_intertwiner": lambda: solve_intertwiner(H),
        "build_metric": lambda: build_metric(
            eig(H), IntertwinerSpace(basis=(np.eye(n),)), H=H
        ),
        "mat_exp_evolution": lambda: mat_exp_evolution(eig(H), 1.0),
        "evolve": lambda: evolve(H, np.eye(n)[0], times),
        "pseudounitarity_residual": lambda: pseudounitarity_residual(H, np.eye(n), times),
    }
    messages = {}
    for name, call in refusals.items():
        with pytest.raises(DefectiveMatrixError) as exc:
            call()
        messages[name] = str(exc.value)
    message = messages["mat_exp_evolution"]
    assert messages == dict.fromkeys(refusals, message)
    assert message.startswith("no complete eigenbasis: eigenvalue ")
    assert message.count(f"geometric multiplicity 1 < algebraic {n // clusters}") == clusters

    path = write_matrix(tmp_path / "h.json", H)
    assert main(["classify", "--input", path, "--output", str(tmp_path / "report.json")]) == 3
    psi0 = ",".join(["1"] + ["0"] * (n - 1))
    for argv in (["metric", "--input", path], ["evolve", "--input", path, "--psi0", psi0]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"exceptional point: {message}\n"


class TestUsageErrors:
    """argparse's own exit code 2 would read as a broken spectrum here."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--bogus"],
            [],
            ["metric", "--tol", "abc"],
            ["classify", "--tol", "abc"],
            ["evolve", "--s", "0.6"],
            ["response", "--kind", "none", "--e0", "1", "--gamma", "1", "--output", "x"],
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "0,1", "--tol", "1e-6"],
        ],
    )
    def test_exit_1_with_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("input error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "0,1", "--bogus", "3"],
            ["classify", "--s", "0.6", "extra"],
            ["metric", "--s", "0.6", "--tol", "1e-6"],
            ["evolve", "--e0", "x", "--psi0", "0,1"],
        ],
        ids=["unknown-option", "extra-argument", "tol", "type-error"],
    )
    def test_subcommand_usage_line(self, argv, capsys):
        """A usage error inside a subcommand shows that subcommand's usage,
        whether argparse finds it while parsing or as a leftover argument."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ptresonance {argv[0]} [-h]")
        assert captured.err.splitlines()[-1].startswith("input error: ")

    def test_top_level_usage_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus", "classify", "--s", "0.6"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ptresonance [-h] {classify,")
        assert captured.err.endswith("input error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [["--help"], ["metric", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: ptresonance" in capsys.readouterr().out


class TestNonFiniteBounds:
    """A NaN or infinite grid bound, or a span beyond the double range, is
    one input error, refused before any grid is built, so no numpy warning
    precedes it."""

    PAIR = ["--e0", "1", "--gamma", "0.8"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", *PAIR, "--psi0", "0,1", "--t-stop", "inf"],
            ["evolve", *PAIR, "--psi0", "0,1", "--t-start=-1e308", "--t-stop", "1e308"],
            ["ode", "--equation", "pt-wave", *PAIR, "--t-stop", "inf"],
            ["ode", "--equation", "damped-oscillator", *PAIR, "--t-stop", "inf"],
            ["response", "--kind", "pt-pair", *PAIR, "--grid-start=-inf", "--grid-stop", "0"],
        ],
        ids=["evolve", "evolve-span", "ode-pt-wave", "ode-damped", "response"],
    )
    def test_exit_1_with_one_line(self, argv, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--output", str(tmp_path / "out")]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error: ") and "must be finite" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestEnergyGridArguments:
    """``--grid-points`` below 2 and a grid bound given without the other
    are one input error each, before any file is written."""

    RESPONSE = ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "0.8"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--grid-points", "0"], "--grid-points must be at least 2"),
            (["--grid-points", "1"], "--grid-points must be at least 2"),
            (["--grid-points", "-5", "--grid-start", "0", "--grid-stop", "2"],
             "--grid-points must be at least 2"),
            (["--grid-stop", "nan"], "--grid-start and --grid-stop must be given together"),
            (["--grid-stop", "1"], "--grid-start and --grid-stop must be given together"),
            (["--grid-start", "0"], "--grid-start and --grid-stop must be given together"),
            # grids that collapse onto repeated values (1, 271 and 2 distinct)
            (["--e0", "1e300", "--gamma", "1"],
             "energy grid E0 +/- 20 Gamma must be strictly ascending"),
            (["--gamma", "1e-15"], "energy grid E0 +/- 20 Gamma must be strictly ascending"),
            (["--grid-start", "1", "--grid-stop", "1.0000000000000002"],
             "the 2001-point grid --grid-start to --grid-stop must be strictly ascending"),
            # negative times only, so the growing mode does not overflow first
            (["--gamma", "1e308", "--t-start=-5", "--t-stop=-1"],
             "energy grid E0 +/- 20 Gamma must be finite, got E0 = 1, Gamma = 1e+308"),
        ],
        ids=["points-0", "points-1", "points-negative", "stop-nan-alone", "stop-alone",
             "start-alone", "collapsed-e0", "collapsed-gamma", "collapsed-bounds",
             "span-gamma"],
    )
    def test_exit_1_with_one_line(self, extra, message, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(self.RESPONSE + extra + ["--output", str(tmp_path / "run")]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_two_points_and_both_bounds_accepted(self, tmp_path):
        argv = ["--grid-points", "2", "--grid-start", "0", "--grid-stop", "2"]
        assert main(self.RESPONSE + argv + ["--output", str(tmp_path / "run")]) == 0
        data = np.genfromtxt(tmp_path / "run_curves.csv", delimiter=",", names=True)
        npt.assert_array_equal(data["E"], [0.0, 2.0])


class TestMetric:
    def test_paper_gauge_exact(self, matrices, tmp_path):
        out = tmp_path / "v.json"
        code = main(
            ["metric", "--input", matrices["diag"], "--policy", "paper-gauge",
             "--output", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["V"]["entries"] == [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        assert obj["hermitian"] is False
        assert obj["residual"] == 0.0

    def test_hermitian_input_gives_identity(self, matrices, tmp_path):
        out = tmp_path / "v.json"
        assert main(["metric", "--input", matrices["herm"], "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        V = linalg.matrix_from_json(obj["V"])
        npt.assert_allclose(V, np.eye(2), atol=1e-12)
        assert obj["hermitian"] is True

    def test_dimer_residual_reported(self, matrices, tmp_path):
        out = tmp_path / "v.json"
        assert main(["metric", "--input", matrices["m06"], "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["residual"] <= 1e-12
        assert obj["invertible"] is True

    def test_exceptional_input(self, matrices, capsys):
        assert main(["metric", "--input", matrices["m1"]]) == 3
        assert "exceptional" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["s1", "defective8"])
    def test_defective_refused_before_intertwiner(self, source, tmp_path, capsys, monkeypatch):
        """A defective spectrum exits 3 before any intertwiner work: the
        conjugate matching that every intertwiner basis needs never runs."""

        def unreachable(*args, **kwargs):
            raise AssertionError("intertwiner basis computed")

        monkeypatch.setattr(linalg, "_greedy_match", unreachable)
        if source == "s1":
            H, argv = gain_loss_dimer(1.0), ["metric", "--s", "1"]
        else:
            H = DEFECTIVE_8
            argv = ["metric", "--input", write_matrix(tmp_path / "d8.json", H)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"exceptional point: {_refusal(H)}\n"

    def test_tol_is_a_usage_error(self, capsys):
        assert main(["metric", "--s", "0.6"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["metric", "--s", "0.6", "--tol", "1e-6"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("input error: unrecognized arguments: --tol 1e-6\n")

    def test_empty_space(self, matrices, capsys):
        assert main(["metric", "--input", matrices["generic"]]) == 4
        assert "no metric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, env_tol",
        [
            ("m06", None),
            ("broken", None),
            ("near_pair", None),
            ("small_broken", None),
            ("small_m06", None),
            ("near_pair_15", "1e-9"),
            ("near_pair_15", "1e-11"),
        ],
    )
    def test_exit_code_agrees_with_classify(self, matrices, name, env_tol, tmp_path, monkeypatch):
        """A spectrum classify pairs gets a metric; an unpairable one gets none.
        ``PTR_TOL``, once classify's own tolerance, is read by no subcommand:
        left in the environment, it moves neither verdict."""
        if env_tol is not None:
            monkeypatch.setenv("PTR_TOL", env_tol)
        classified = main(["classify", "--input", matrices[name], "--output", str(tmp_path / "r")])
        built = main(["metric", "--input", matrices[name], "--output", str(tmp_path / "v")])
        assert (classified, built) in {(0, 0), (2, 4)}

    def test_first_basis_policy(self, matrices, tmp_path):
        out = tmp_path / "v.json"
        code = main(
            ["metric", "--input", matrices["m06"], "--policy", "first-basis",
             "--output", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["residual"] <= 1e-10
        assert obj["policy"] == "first-basis"
        assert obj["invertible"] is True


class TestEvolve:
    def test_two_level_preset_decay_column(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "0,1",
             "--t-points", "21", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        npt.assert_allclose(data["dirac_norm"], np.exp(-1.6 * data["t"]), rtol=1e-12)

    def test_hermitian_preset_constant_norm(self, matrices, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--input", matrices["herm"], "--psi0", "0.6,0.8",
             "--t-points", "11", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        npt.assert_allclose(data["dirac_norm"], 1.0, rtol=1e-12)

    def test_preset_v_norm_column_constant(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "1,2j",
             "--t-points", "11", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        npt.assert_allclose(data["re_v_norm"], data["re_v_norm"][0], atol=1e-12)
        npt.assert_allclose(data["im_v_norm"], data["im_v_norm"][0], atol=1e-12)

    def test_metric_json_roundtrip_into_evolve(self, matrices, tmp_path):
        """The metric command's JSON output is accepted verbatim as --v-file."""
        v_out = tmp_path / "v.json"
        assert main(["metric", "--input", matrices["m06"], "--output", str(v_out)]) == 0
        traj = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--input", matrices["m06"], "--v-file", str(v_out),
             "--psi0", "1,0", "--t-points", "11", "--output", str(traj)]
        )
        assert code == 0
        data = np.genfromtxt(traj, delimiter=",", names=True)
        drift = np.abs(data["re_v_norm"] - data["re_v_norm"][0])
        assert np.max(drift) <= 1e-10

    def test_overflow_exit_code(self, capsys):
        code = main(
            ["evolve", "--e0", "1", "--gamma", "2", "--psi0", "1,0",
             "--t-stop", "200", "--t-points", "11"]
        )
        assert code == 5
        assert "overflow" in capsys.readouterr().err

    def test_exceptional_exit_code(self, matrices):
        assert main(
            ["evolve", "--input", matrices["m1"], "--psi0", "1,0", "--t-points", "5"]
        ) == 3

    def test_bad_psi0(self, matrices, capsys):
        assert main(
            ["evolve", "--input", matrices["m06"], "--psi0", "1,0,0", "--t-points", "5"]
        ) == 1
        assert "--psi0" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        code = main(
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "0,1",
             "--t-points", "5", "--format", "json", "--output", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["times"]) == 5
        assert obj["v_norms"] is not None


class TestResponse:
    def test_advance_peak_in_curves(self, tmp_path):
        prefix = str(tmp_path / "resp")
        code = main(
            ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "0.8",
             "--t-points", "11", "--output", prefix]
        )
        assert code == 0
        data = np.genfromtxt(prefix + "_curves.csv", delimiter=",", names=True)
        centre = np.argmin(np.abs(data["E"] - 1.0))
        assert data["dt_advance"][centre] == pytest.approx(-1.0 / 0.8, rel=1e-12)

    def test_delay_peak_in_curves(self, tmp_path):
        prefix = str(tmp_path / "resp")
        code = main(
            ["response", "--kind", "breit-wigner", "--e0", "1", "--gamma", "0.8",
             "--t-points", "11", "--output", prefix]
        )
        assert code == 0
        data = np.genfromtxt(prefix + "_curves.csv", delimiter=",", names=True)
        centre = np.argmin(np.abs(data["E"] - 1.0))
        assert data["dt_delay"][centre] == pytest.approx(1.0 / 0.8, rel=1e-12)

    def test_pair_time_track_starts_at_zero(self, tmp_path):
        prefix = str(tmp_path / "resp")
        main(
            ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "0.8",
             "--t-points", "11", "--output", prefix]
        )
        data = np.genfromtxt(prefix + "_time.csv", delimiter=",", names=True)
        assert data["re_d"][0] == 0.0 and data["im_d"][0] == 0.0

    def test_model_json(self, tmp_path):
        prefix = str(tmp_path / "resp")
        main(
            ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "0.8",
             "--t-points", "5", "--output", prefix]
        )
        model = json.loads((tmp_path / "resp_model.json").read_text())
        assert model["poles"] == [[1.0, -0.8], [1.0, 0.8]]
        assert model["residues"] == [[1.0, 0.0], [-1.0, 0.0]]
        assert model["closure"] == ["lower", "lower"]


class TestOde:
    def test_balanced_pair_run(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = main(
            ["ode", "--equation", "pt-wave", "--e0", "1", "--gamma", "0.8",
             "--t-points", "26", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        expected = -1j * (
            np.exp(-1j * data["t"] - 0.8 * data["t"])
            - np.exp(-1j * data["t"] + 0.8 * data["t"])
        )
        npt.assert_allclose(data["re_psi"] + 1j * data["im_psi"], expected, atol=1e-6)

    def test_damped_run(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = main(
            ["ode", "--equation", "damped-oscillator", "--e0", "1", "--gamma", "0.8",
             "--t-points", "26", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        expected = np.exp(-1j * data["t"] - 0.8 * data["t"])
        npt.assert_allclose(data["re_psi"] + 1j * data["im_psi"], expected, atol=1e-6)

    def test_zero_initial_data(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = main(
            ["ode", "--equation", "pt-wave", "--e0", "1", "--gamma", "0.8",
             "--init", "0,0", "--t-points", "6", "--output", str(out)]
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(data["re_psi"] == 0.0) and np.all(data["im_psi"] == 0.0)

    def test_step_guard(self, capsys):
        assert main(
            ["ode", "--equation", "pt-wave", "--e0", "1", "--gamma", "0.8",
             "--step", "0.5", "--t-points", "6"]
        ) == 1
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["--equation", "pt-wave", "--e0", "1e308", "--gamma", "0.8"], 5, "overflow: "),
            (["--equation", "damped-oscillator", "--e0", "1", "--gamma", "1e308"], 5,
             "overflow: "),
            (["--equation", "pt-wave", "--e0", "1e154", "--gamma", "0.8"], 5, "overflow: "),
            (["--equation", "pt-wave", "--e0", "1", "--gamma", "0.8", "--step", "1e-320"], 1,
             "input error: "),
            (["--equation", "pt-wave", "--e0", "1", "--gamma", "0.8", "--step", "1e-300"], 1,
             "input error: step 1e-300 needs more than "),
            (["--equation", "pt-wave", "--e0", "1", "--gamma", "0.8", "--step", "1e-12"], 1,
             "input error: step 1e-12 needs more than "),
            (["--equation", "pt-wave", "--e0", "1", "--gamma", "0.8", "--init", "nan,0"], 1,
             "input error: --init: components must be finite"),
        ],
        ids=["pt-wave-e0", "damped-gamma", "discriminant", "step", "step-1e-300", "step-1e-12",
             "init-nan"],
    )
    def test_edge_values_exit_without_traceback(self, argv, code, prefix, tmp_path, capsys):
        """Each of these raised a Python exception out of ``main``, ran for
        hours (a step far below the grid spacing) or named the wrong option."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ode", *argv, "--output", str(tmp_path / "out.csv")]) == code
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(prefix)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("equation", ["pt-wave", "damped-oscillator"])
    @pytest.mark.parametrize("e0, gamma", [("1e-200", "1e-200"), ("1e308", "0.8")])
    def test_coefficients_out_of_the_normal_range(self, equation, e0, gamma, tmp_path, capsys):
        """E0^2 + Gamma^2 goes through the range rule of (E - E0)^2 + Gamma^2 at
        E = 0: at 1e-200 it rounded to 0 and the run exited 0."""
        argv = ["ode", "--equation", equation, "--e0", e0, "--gamma", gamma]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 5
        assert capsys.readouterr().err == (
            "overflow: coefficients leave the double range: "
            "(E - E0)^2 + Gamma^2 leaves the normal double range\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_response_byte_identical(self, tmp_path):
        args = ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "0.8",
                "--grid-points", "101", "--t-points", "11"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--output", a]) == 0
        assert main(args + ["--output", b]) == 0
        for suffix in ("_curves.csv", "_time.csv", "_model.json"):
            assert open(a + suffix, "rb").read() == open(b + suffix, "rb").read()

    def test_evolve_byte_identical(self, matrices, tmp_path):
        args = ["evolve", "--input", matrices["m06"], "--psi0", "1,0", "--t-points", "51"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_classify_byte_identical(self, matrices, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["classify", "--input", matrices["m06"], "--output", str(a)]) == 0
        assert main(["classify", "--input", matrices["m06"], "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_rows_match_the_per_value_format(self, tmp_path):
        """One ``%`` per row writes what ``format(float(v), ".17g")`` writes for
        each value: random bit patterns, signed zeros, subnormals, infinities,
        NaN and the 1e16-1e21 band where ``g`` switches to exponents."""
        rng = np.random.default_rng(20)
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, np.inf,
                -np.inf, np.nan, 1.7976931348623157e308]
        band = [sign * (10.0**k + d) for k in range(16, 22) for d in (0, 1) for sign in (1, -1)]
        values = np.concatenate([rng.integers(0, 2**64, 6930, dtype=np.uint64).view(float),
                                 edge, band, rng.uniform(1e16, 1e21, 36)])
        columns = list(values.reshape(7, -1))
        header = [f"c{k}" for k in range(7)]
        cli._write_csv(str(tmp_path / "t.csv"), header, columns)
        rows = [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
        assert (tmp_path / "t.csv").read_text() == "\n".join([",".join(header)] + rows) + "\n"


BAND = [(k, sign) for k in range(8, 17) for sign in (1, -1)]


class TestOneVerdictPerMatrix:
    """``classify``, ``metric`` and ``evolve`` decide the exceptional point by
    one backward-error rule.  Along the dimer s = 1 +/- 10^-k, classify called
    the spectrum real (s > 1) or broken (s < 1) for k = 12-14 while metric
    found no intertwiner and evolve ran; each now exits 0 up to k = 9 and 3
    (exceptional) from k = 10 on, where the dimer lies within the backward
    error of its exceptional point."""

    @pytest.mark.parametrize("k, sign", BAND, ids=[f"1{'+-'[sign < 0]}1e-{k}" for k, sign in BAND])
    def test_band(self, k, sign, tmp_path):
        s = 1 + sign * 10.0**-k
        expected = 0 if k <= 9 else 3
        codes = {
            argv[0]: main([*argv, "--s", repr(s), "--output", str(tmp_path / argv[0])])
            for argv in (["classify"], ["metric"], ["evolve", "--psi0", "1,0"])
        }
        assert codes == dict.fromkeys(codes, expected)

    def test_near_real_value_is_unmatched(self, tmp_path):
        """1 + 5e-10i lies beyond its radius 2e-10 of the real axis: classify
        reports it unmatched (exit 2), as metric finds no metric (exit 4),
        where classify had counted it real (exit 0)."""
        path = write_matrix(tmp_path / "h.json", np.diag([1 + 5e-10j, 2]))
        assert main(["classify", "--input", path, "--output", str(tmp_path / "r")]) == 2
        assert main(["metric", "--input", path, "--output", str(tmp_path / "v")]) == 4

    def test_paper_gauge_on_a_pair_within_the_backward_error(self, tmp_path):
        """The pair misses conjugacy by 1.5e-10, within its cutoff 2.56e-10, so
        the intertwiner space is not empty and the paper gauge, whose residual
        meets ``RESIDUAL_CAP``, is returned, where metric exited 4."""
        path = write_matrix(tmp_path / "h.json", np.diag([1 + 0.8j, 1 - 0.8j + 1.5e-10]))
        out = tmp_path / "v.json"
        assert main(["classify", "--input", path, "--output", str(tmp_path / "r")]) == 0
        argv = ["metric", "--input", path, "--policy", "paper-gauge", "--output", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["residual"] <= metric.RESIDUAL_CAP


class TestFiniteOut:
    """Each subcommand runs under ``np.errstate`` raising on overflow, invalid
    values and division by zero: a non-finite intermediate exits 5 with one
    stderr line and no file, where these wrote NaN rows with exit 0 or
    reported a misleading input error after numpy warnings."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--s", "1e308", "--psi0", "1,0"],
            ["evolve", "--e0", "1e308", "--gamma", "0.8", "--psi0", "0,1"],
            ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "1e308,1e308"],
            ["response", "--kind", "pt-pair", "--e0", "1e308", "--gamma", "0.8"],
            ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "1e-320"],
            ["response", "--kind", "breit-wigner", "--e0", "1", "--gamma", "1e300"],
            ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "1e308"],
            ["response", "--kind", "pt-pair", "--e0", "0", "--gamma", "1e-160"],
        ],
        ids=["evolve-s", "evolve-e0", "evolve-psi0", "response-e0",
             "response-gamma", "response-bw-gamma", "response-gamma-large",
             "response-gamma-subnormal"],
    )
    def test_exit_5_with_one_line(self, argv, tmp_path, capsys):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(tmp_path / "out")]) == 5
        assert np.geterr() == before  # the library keeps numpy's defaults
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("overflow: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["classify", "metric"], ids=["classify-s", "metric-s"])
    def test_exit_0_at_the_top_of_the_double_range(self, command, tmp_path):
        """The dimer at s = 1e308 has the real eigenvalues 1 +/- sqrt(s^2 - 1),
        about +/-1e308, and ||H||_2 = 1e308: its eigen-equation residual,
        scaled by ``_frobenius``, is a double, so classify reports two real
        values and metric a V, both exit 0 with finite JSON, where eig's
        residual overflowed and both exited 5."""
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--s", "1e308", "--output", str(out)]) == 0
        obj = json.loads(out.read_text(), parse_constant=pytest.fail)
        if command == "classify":
            assert obj["real"] == [{"value": -1e308, "multiplicity": 1},
                                   {"value": 1e308, "multiplicity": 1}]
            assert obj["pairs"] == obj["unmatched"] == obj["exceptional"] == []
        else:
            assert obj["invertible"] and obj["hermitian"]
            assert obj["residual"] <= metric.RESIDUAL_CAP

    def test_paper_gauge_at_the_top_names_its_residual(self, tmp_path, capsys):
        # [[0, -1], [1, 0]] H - H^dag [[0, -1], [1, 0]] has entries +/-2e308 at
        # s = 1e308, but the residual is formed from H at unit scale: the gauge
        # is refused as it is for the dimer at s = 0.6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["metric", "--s", "1e308", "--policy", "paper-gauge"]
            assert main(argv + ["--output", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == (
            "input error: paper-gauge needs a 2x2 H that [[0, -1], [1, 0]] intertwines\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_growing_mode_beyond_the_double_range_names_the_guard(self, tmp_path, capsys):
        # Im p * t = 1e308 * t overflows: the guard reports the exponent as inf,
        # where numpy's bare "overflow encountered in multiply" came first
        argv = ["response", "--kind", "pt-pair", "--e0", "1", "--gamma", "1e308"]
        assert main(argv + ["--output", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err == "overflow: residue exponent inf exceeds cap 300\n"

    def test_subnormal_denominator_names_the_propagator_check(self, tmp_path, capsys):
        # Gamma^2 = 1e-320 is subnormal at E = E0: refused by the propagator's
        # range rule before the time delay's
        argv = ["response", "--kind", "pt-pair", "--e0", "0", "--gamma", "1e-160"]
        assert main(argv + ["--output", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err == (
            "overflow: propagator check: (E - E0)^2 + Gamma^2 leaves the normal double range\n"
        )

    def test_offset_beyond_the_double_range_names_the_propagator_check(self, tmp_path, capsys):
        # E - E0 = 2e308 has no double: the offset is infinite, refused by the
        # range rule, where numpy's bare "overflow encountered in subtract" came first
        argv = ["response", "--kind", "breit-wigner", "--e0=-1e308", "--gamma", "1",
                "--t-stop", "1", "--grid-start", "9e307", "--grid-stop", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(tmp_path / "far")]) == 5
        assert capsys.readouterr().err == (
            "overflow: propagator check: (E - E0)^2 + Gamma^2 leaves the normal double range\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_state_beyond_the_double_range_names_the_state_check(self, tmp_path, capsys):
        # |psi|^2 = 2e616 has no double: refused by the state check, where
        # numpy's bare "overflow encountered in multiply" came first
        argv = ["evolve", "--e0", "1", "--gamma", "0.8", "--psi0", "1e308,1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err == (
            "overflow: state check: a state or its Dirac norm is beyond the double range\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_level_pair_names_the_resonance_parameters(self, tmp_path, capsys):
        # the preset's pair enters by ResonanceParams, as in response and ode
        argv = ["evolve", "--e0", "nan", "--gamma", "0.8", "--psi0", "0,1"]
        assert main(argv + ["--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "input error: resonance parameters must be finite\n"

    def test_frobenius_norm_within_the_double_range(self, tmp_path, capsys):
        # entries whose squares overflow, in an H whose ||H||_F is a double: the
        # antilinear check and the metric answer, where both exited 5
        big = write_matrix(tmp_path / "big.json", [[1e200, 1.0], [1.0, -1e200]])
        wide = write_matrix(tmp_path / "wide.json", [[1e308, 1.0], [1.0, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for H in (big, wide):
                assert main(["metric", "--input", H]) == 0
                assert json.loads(capsys.readouterr().out)["hermitian"]
                # P conj(H) P^-1 - H holds -2e308 for wide, but the check reads H
                # at unit scale
                assert main(["classify", "--input", H]) == 0
                assert json.loads(capsys.readouterr().out)["antilinear_check"]["residual"] == 2.0
        assert capsys.readouterr().err == ""


EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "abc")

# A working command line per subcommand.  An option is added to the first of
# them, or replaces its value in the one that already sets it.
_RESPONSE = ["--kind", "pt-pair", "--e0", "1", "--gamma", "0.8"]
SWEEP_BASES = {
    "classify": (["--s", "0.6"],),
    "metric": (["--s", "0.6"],),
    "evolve": (["--e0", "1", "--gamma", "0.8", "--psi0", "0,1"], ["--s", "2", "--psi0", "1,0"]),
    "response": (_RESPONSE, _RESPONSE + ["--grid-start", "-15", "--grid-stop", "17"]),
    "ode": (["--equation", "pt-wave", "--e0", "1", "--gamma", "0.8"],),
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_options():
    """(subcommand, option) for every float or int store action of the parser."""
    return [
        (command, action.option_strings[0])
        for command, sub in _subparsers(build_parser()).items()
        for action in sub._actions
        if isinstance(action, argparse._StoreAction) and action.type in (float, int)
    ]


def _all_finite(text: str) -> bool:
    """A JSON document without NaN/Infinity, or a CSV of finite numbers."""
    if text.startswith("{"):
        def refuse(token):
            raise ValueError(token)

        try:
            json.loads(text, parse_constant=refuse)
        except ValueError:
            return False
        return True
    values = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    return values.size > 0 and bool(np.all(np.isfinite(values)))


class TestEdgeValueSweep:
    """Every numeric option of every subcommand, generated from the parser so
    a new option is covered, at each edge value: exit 0 with non-empty,
    all-finite output, or exit 1-5 with one stderr line (after the usage
    lines of an argparse error) and no file written -- except ``classify``'s
    exit 2/3, which writes its finite report.  A warning fails the run."""

    def test_covers_every_subcommand(self):
        assert {command for command, _ in _numeric_options()} == set(SWEEP_BASES)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("command, option", _numeric_options())
    def test_edge_value(self, command, option, value, tmp_path, capsys):
        bases = SWEEP_BASES[command]
        base = list(next((b for b in bases if option in b), bases[0]))
        if option in base:
            del base[base.index(option):base.index(option) + 2]
        # "--opt=value", since argparse reads a bare "-inf" as an option
        argv = [command, *base, f"{option}={value}", "--output", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        written = sorted(tmp_path.iterdir())
        assert captured.out == ""
        if code == 0 or (command == "classify" and code in (2, 3)):
            assert written and all(_all_finite(path.read_text()) for path in written)
            assert captured.err == ""
            return
        assert 1 <= code <= 5
        usage = _subparsers(build_parser())[command].format_usage()
        err = captured.err[len(usage):] if captured.err.startswith(usage) else captured.err
        assert err.count("\n") == 1 and err.endswith("\n"), captured.err
        assert written == []


class TestInputErrors:
    """Malformed files and conflicting options exit 1 with one stderr line
    naming the problem."""

    @pytest.fixture
    def files(self, tmp_path, matrices):
        (tmp_path / "bad.json").write_text("{")
        write_matrix(tmp_path / "singular.json", np.diag([1.0, 1e-13]))
        return {**matrices, "bad": str(tmp_path / "bad.json"),
                "missing": str(tmp_path / "missing.json"),
                "singular": str(tmp_path / "singular.json")}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--input", "{missing}"], "cannot read"),
            (["classify", "--input", "{bad}"], "not valid JSON"),
            (["metric", "--input", "{m06}", "--s", "0.6"], "either --input or --s"),
            (["evolve", "--s", "0.6", "--psi0", "1,abc"], "--psi0: cannot parse component"),
            (["evolve", "--e0", "1", "--gamma", "0.8", "--s", "0.6", "--psi0", "0,1"],
             "excludes --input and --s"),
            (["evolve", "--e0", "1", "--psi0", "0,1"], "needs both --e0 and --gamma"),
            (["evolve", "--s", "0.6", "--v-file", "{singular}", "--psi0", "1,0"],
             "V is singular"),
        ],
        ids=["unreadable", "invalid-json", "input-and-s", "psi0", "preset-and-s",
             "preset-half", "singular-v-file"],
    )
    def test_exit_1_with_one_line(self, argv, message, files, capsys):
        code = main([arg.format(**files) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_evolve_json_without_metric(self, matrices, tmp_path):
        out = tmp_path / "traj.json"
        code = main(["evolve", "--input", matrices["herm"], "--psi0", "1,0", "--t-points", "3",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["v_norms"] is None


# Edge matrices for classify and the three metric policies: the paper's dimer and
# its exceptional point, unpaired and near-real spectra, degenerate 2x2s, a coupled
# pair that the paper gauge intertwines, and both ends of the double range.
SWEEP_MATRICES = {
    "dimer-0.6": gain_loss_dimer(0.6),
    "exceptional-point": gain_loss_dimer(1.0),
    "unpaired-3": np.diag([1 + 1j, 1 - 1j, 2 + 0.5j]),
    "near-real": np.diag([1 + 5e-10j, 2]),
    "identity": np.eye(2),
    "real-pair": np.diag([1.0, 2.0]),
    "zero": np.zeros((2, 2)),
    "coupled-pair": np.array([[1 + 0.8j, 0.3j], [0.2j, 1 - 0.8j]]),
    "tiny-exceptional-point": 1e-300 * gain_loss_dimer(1.0),
    "huge-dimer": 1e300 * gain_loss_dimer(0.6),
}
SWEEP_RUNS = [["classify"]] + [["metric", "--policy", p] for p in metric.POLICIES]


def _library_exit(run, H) -> int:
    """The exit code of the library outcome, computed under the CLI's errstate:
    0 returned, 1 ValueError, 3 DefectiveMatrixError, 4 NoMetricError, 5 an
    overflow (and classify's own 2/3 for a broken or exceptional report)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if run[0] == "classify":
                report, _ = classify_hamiltonian(H)
                return 3 if report.exceptional else 2 if report.broken else 0
            build_metric(eig(H), solve_intertwiner(H), run[2], H=H)
            return 0
    except ValueError:
        return 1
    except DefectiveMatrixError:
        return 3
    except NoMetricError:
        return 4
    except FloatingPointError:
        return 5


class TestMatrixInputSweep:
    """Exit 0 with strictly finite JSON, or exit 1-5 with one stderr line (a
    classify report with exit 2/3 and no stderr line), and always the exit
    code of the library outcome.  ``first-basis`` exited 0 on the unpaired
    spectra with an infinite ``condition_estimate``."""

    @pytest.mark.parametrize("run", SWEEP_RUNS, ids=[" ".join(r) for r in SWEEP_RUNS])
    @pytest.mark.parametrize("name", SWEEP_MATRICES)
    def test_run(self, name, run, tmp_path, capsys):
        H = SWEEP_MATRICES[name].astype(complex)
        path = write_matrix(tmp_path / "h.json", H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*run, "--input", path])
        captured = capsys.readouterr()
        assert code == _library_exit(run, H)
        if code == 0 or (run[0] == "classify" and code in (2, 3)):
            assert captured.err == ""
            assert captured.out.startswith("{") and _all_finite(captured.out)
        else:
            assert 1 <= code <= 5
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
