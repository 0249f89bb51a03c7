"""Command-line behavior: exit codes, artifacts, determinism, fixtures."""

import json
import subprocess
import sys

import pytest

from appellsys.cli import main
from appellsys.appell import AppellBasis, q_seq
from appellsys.fixtures import format_kernel_seq
from appellsys.measures import GaussianModel
from appellsys.symtensor import SymTensor, scalar_tensor


def run_cli(args):
    return main(args)


def test_missing_subcommand_is_usage_error(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "appellsys.cli"], capture_output=True, text=True, env=cli_env
    )
    assert proc.returncode == 2


def test_unknown_suite_is_usage_error(tmp_path):
    assert run_cli(["verify", "--suite", "no-such-suite", "--out", str(tmp_path)]) == 2


def test_list_suites(capsys):
    assert run_cli(["list-suites"]) == 0
    out = capsys.readouterr().out.split()
    assert "charlier-poisson" in out
    assert "biorth-gaussian-id" in out
    assert "remeasure-transport" in out


def test_verify_single_suite_writes_artifacts(tmp_path):
    code = run_cli(["verify", "--suite", "nondegeneracy", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert (tmp_path / "nondegeneracy.csv").exists()


def test_verify_deterministic_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run_cli(
                [
                    "verify",
                    "--suite",
                    "charlier-poisson",
                    "--suite",
                    "wick-calculus",
                    "--seed",
                    "777",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "wick-calculus.csv").read_bytes() == (b / "wick-calculus.csv").read_bytes()


def test_kernels_charlier_table(tmp_path):
    code = run_cli(
        [
            "kernels",
            "--measure",
            "poisson",
            "--nu",
            "1.0",
            "--alpha",
            "log1p",
            "--N",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "kernels.csv").read_text().splitlines()
    # row for n=2, k=0 must carry the constant coefficient of the quadratic
    # system polynomial: x^2 - 3x + 1
    vals = {}
    for line in rows[1:]:
        n, k, v = line.split(",")[:3]
        vals[(int(n), int(k))] = float(v)
    assert vals[(2, 0)] == pytest.approx(1.0, abs=1e-12)
    assert vals[(2, 1)] == pytest.approx(-3.0, abs=1e-12)
    assert vals[(2, 2)] == pytest.approx(1.0, abs=1e-12)


def test_hermite_and_biorth_commands(tmp_path):
    assert run_cli(["hermite", "--out", str(tmp_path)]) == 0
    assert run_cli(["biorth", "--measure", "poisson", "--alpha", "log1p", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "hermite-gaussian.json").exists()
    assert (tmp_path / "biorth-poisson-log1p.csv").exists()


def test_growth_command(tmp_path):
    assert run_cli(["growth", "--measure", "gaussian", "--N", "5", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "growth.json").read_text())
    assert report["passed"] is True


def test_wick_fixture_flow(tmp_path):
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    Phi = q_seq(
        basis, {0: scalar_tensor(1, 2.0), 1: SymTensor(1, 1, {(1,): 1.0})}
    )
    fixture = tmp_path / "phi.fixture"
    fixture.write_text(format_kernel_seq(Phi))
    code = run_cli(
        [
            "wick",
            "inv",
            "--phi",
            str(fixture),
            "--measure",
            "gaussian",
            "--N",
            "4",
            "--dim",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "wick_report.json").read_text())
    assert report["checks"]["roundtrip_error"] < 1e-11
    result = (tmp_path / "wick_result.fixture").read_text()
    assert "0.5" in result  # inverse expectation

    code = run_cli(
        [
            "wick",
            "mul",
            "--phi",
            str(fixture),
            "--psi",
            str(fixture),
            "--measure",
            "gaussian",
            "--N",
            "4",
            "--dim",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0

    base = ["--measure", "gaussian", "--N", "4", "--dim", "1", "--out", str(tmp_path)]
    # missing psi for mul and missing coeffs for fn are usage errors
    assert run_cli(["wick", "mul", "--phi", str(fixture)] + base) == 2
    assert run_cli(["wick", "fn", "--phi", str(fixture)] + base) == 2
    # power and analytic function paths produce fixtures and pass the
    # transform consistency checks
    assert run_cli(["wick", "pow", "--phi", str(fixture), "--power", "3"] + base) == 0
    report = json.loads((tmp_path / "wick_report.json").read_text())
    assert report["checks"]["s_power_error"] < 1e-11
    assert run_cli(
        ["wick", "fn", "--phi", str(fixture), "--coeffs", "2.0,1.0,0.5"] + base
    ) == 0
    report = json.loads((tmp_path / "wick_report.json").read_text())
    assert report["checks"]["s_series_error"] < 1e-11


def test_transport_command(tmp_path):
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    Phi = q_seq(basis, {0: scalar_tensor(1, 1.0), 2: SymTensor(1, 2, {(1, 1): 0.5})})
    fixture = tmp_path / "phi.fixture"
    fixture.write_text(format_kernel_seq(Phi))
    code = run_cli(
        [
            "transport",
            "--measure",
            "gaussian",
            "--measure2",
            "poisson",
            "--nu",
            "1.0",
            "--alpha",
            "id",
            "--N",
            "4",
            "--dim",
            "1",
            "--phi",
            str(fixture),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "transport_report.json").read_text())
    assert report["pairing_invariance_error"] < 1e-10
    assert report["double_transport_error"] < 1e-10


def test_shipped_configs_verify(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "gaussian_id.cfg"
    code = run_cli(
        [
            "verify",
            "--config",
            str(cfg),
            "--suite",
            "nondegeneracy",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 12345


def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nseed = 99\nout = {out}\n\n"
        "[model]\nmeasure = poisson\ndim = 1\nnu = 1.0\n\n"
        "[basis]\nalpha = log1p\ndegree = 4\n".format(out=tmp_path / "results")
    )
    assert run_cli(["kernels", "--config", str(cfg)]) == 0
    assert (tmp_path / "results" / "kernels.csv").exists()


def test_missing_config_file_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernels", "--config", "/nonexistent/path.cfg"])
    assert exc.value.code == 2
    assert "config file not found" in capsys.readouterr().err
