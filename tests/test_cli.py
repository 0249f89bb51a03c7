"""Command-line behavior: exit codes, artifacts, determinism, fixtures."""

import argparse
import csv
import io
import json
import re
import subprocess
import sys
from types import ModuleType

import numpy as np
import pytest

import appellsys
from appellsys import cli
from appellsys.cli import _CSV_FIELDS, _dump_csv, main
from appellsys.appell import AppellBasis, q_seq
from appellsys.fixtures import format_kernel_seq
from appellsys.measures import GaussianModel, PoissonModel
from appellsys.remeasure import transport_dist
from appellsys.suites import run_suite
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


def test_transport_honours_nu(tmp_path):
    # nu = 2.0 differs from the default 1.0, so a source model built from the
    # config alone would move Phi differently
    src = AppellBasis(PoissonModel((2.0,)), degree=4)
    dst = AppellBasis(GaussianModel.standard(1), degree=4)
    Phi = q_seq(src, {0: scalar_tensor(1, 1.0), 2: SymTensor(1, 2, {(1, 1): 0.5})})
    fixture = tmp_path / "phi.fixture"
    fixture.write_text(format_kernel_seq(Phi))
    args = ["transport", "--measure", "poisson", "--nu", "2.0", "--measure2", "gaussian"]
    args += ["--N", "4", "--dim", "1", "--phi", str(fixture), "--out", str(tmp_path)]
    assert run_cli(args) == 0
    expected = format_kernel_seq(transport_dist(src, dst, Phi))
    assert (tmp_path / "transport_result.fixture").read_text() == expected


def test_nu_length_mismatch_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nmeasure = poisson\ndim = 3\nnu = 1.0, 2.0\n\n[basis]\ndegree = 2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernels", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "nu needs 1 or 3 values, got 2" in capsys.readouterr().err


def clear_package_caches():
    """Empty every functools cache in the package's modules, as in a new process."""
    for mod in vars(appellsys).values():
        if isinstance(mod, ModuleType):
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_verify_cold_then_warm_writes_identical_artifacts(tmp_path):
    # the memoised moment jets, plans and nodes must not change a byte
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    clear_package_caches()
    assert run_cli(["verify", "--seed", "5", "--out", str(cold)]) == 0
    assert run_cli(["verify", "--seed", "5", "--out", str(warm)]) == 0
    names = sorted(p.name for p in cold.iterdir())
    assert len(names) == 21 and "report.json" in names
    assert sorted(p.name for p in warm.iterdir()) == names
    for name in names:
        assert (cold / name).read_bytes() == (warm / name).read_bytes(), name


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


def test_biorth_reads_measure_and_alpha_from_config(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "poisson_log1p.cfg"
    assert run_cli(["biorth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "biorth-poisson-log1p.json").exists()
    assert not (tmp_path / "biorth-gaussian-id.json").exists()


def _dim2_fixture(tmp_path):
    basis = AppellBasis(GaussianModel.standard(2), degree=4)
    fixture = tmp_path / "dim2.fixture"
    fixture.write_text(format_kernel_seq(q_seq(basis, {0: scalar_tensor(2, 1.0)})))
    return fixture


@pytest.mark.parametrize("command", ["wick", "transport"])
@pytest.mark.parametrize("problem", ["missing", "dim-mismatch", "malformed"])
def test_bad_phi_fixture_is_usage_error(tmp_path, capsys, command, problem):
    if problem == "missing":
        fixture = tmp_path / "absent.fixture"
    elif problem == "dim-mismatch":
        fixture = _dim2_fixture(tmp_path)
    else:
        fixture = tmp_path / "bad.fixture"
        fixture.write_text("kernelseq\ntag Q\ndim one\n")
    args = [command, "inv"] if command == "wick" else [command, "--measure2", "poisson"]
    args += ["--N", "4", "--dim", "1", "--phi", str(fixture), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"bad fixture {fixture}" in err and len(err.splitlines()) == 1


def test_bad_psi_and_alpha_fixtures_are_usage_errors(tmp_path, capsys):
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    phi = tmp_path / "phi.fixture"
    phi.write_text(format_kernel_seq(q_seq(basis, {0: scalar_tensor(1, 2.0)})))
    psi = _dim2_fixture(tmp_path)
    alpha = tmp_path / "alpha.fixture"
    alpha.write_text("vectorjet\ndim 1\ndegree 4\nkernel 1 component 1\n1 nan\n")
    for args in (
        ["wick", "mul", "--phi", str(phi), "--psi", str(psi)],
        ["kernels", "--alpha", str(alpha)],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--N", "4", "--dim", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "bad fixture" in capsys.readouterr().err


def exit_code(args):
    """The exit code of main(args), whether returned or raised as SystemExit."""
    try:
        return main(args)
    except SystemExit as e:
        return e.code


_BASIS_FLAGS = {"--N", "--dim", "--measure", "--alpha", "--nu"}
_COMMAND_FLAGS = {
    "verify": {"--seed", "--suite"},
    "charlier": {"--seed"},
    "hermite": {"--seed"},
    "biorth": {"--seed", "--measure", "--alpha"},
    "kernels": _BASIS_FLAGS,
    "growth": {"--seed"} | _BASIS_FLAGS,
    "wick": _BASIS_FLAGS | {"--tol", "--phi", "--psi", "--power", "--coeffs"},
    "transport": {"--seed", "--tol", "--measure2", "--phi"} | _BASIS_FLAGS,
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[A-Za-z0-9]+", capsys.readouterr().out)) - {"--help"}
    assert flags == {"--config", "--out"} | _COMMAND_FLAGS[command]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--N", "5"],
        ["hermite", "--measure", "poisson"],
        ["charlier", "--nu", "2"],
        ["biorth", "--dim", "2"],
        ["kernels", "--seed", "1"],
        ["growth", "--tol", "1"],
        ["wick", "inv", "--phi", "phi.fixture", "--seed", "1"],
    ],
    ids=lambda args: " ".join(args[:1] + args[-2:-1]),
)
def test_flag_the_command_does_not_read_is_usage_error(args, tmp_path, capsys):
    assert exit_code(args + ["--out", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config",
    [
        (["kernels", "--N", "0"], None),
        (["kernels", "--N", "-1"], None),
        (["kernels", "--dim", "0"], None),
        (["kernels", "--nu", "-1"], None),
        (["kernels", "--measure", "poisson", "--nu", "-1"], None),
        (["kernels", "--measure", "poisson", "--nu", "nan"], None),
        (["growth", "--N", "0"], None),
        (["kernels"], "[basis]\ndegree = 0\n"),
        (["kernels"], "[model]\ndim = 0\n"),
        (["kernels"], "[model]\nmeasure = poisson\nnu = 1.0, -1.0\ndim = 2\n"),
        (["kernels"], "[model]\nsigma2 = inf\n"),
        (["transport", "--measure2", "poisson", "--phi", "phi.fixture"], "[model2]\nnu = -1\n"),
    ],
    ids=[
        "N-0", "N-minus-1", "dim-0", "nu-minus-1", "poisson-nu-minus-1", "poisson-nu-nan", "growth-N-0",
        "config-degree-0", "config-dim-0", "config-nu-minus-1", "config-sigma2-inf", "config-nu2-minus-1",
    ],
)
def test_out_of_range_input_is_usage_error(args, config, tmp_path, capsys):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    assert exit_code(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must be" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ("epsilon = -0.5", "epsilon must be positive and finite, got -0.5"),
        ("epsilon = 0", "epsilon must be positive and finite, got 0.0"),
        ("epsilon = nan", "epsilon must be positive and finite, got nan"),
        ("epsilon = inf", "epsilon must be positive and finite, got inf"),
        ("trials = -3", "trials must be positive, got -3"),
        ("trials = 0", "trials must be positive, got 0"),
    ],
    ids=["epsilon-minus-0.5", "epsilon-0", "epsilon-nan", "epsilon-inf", "trials-minus-3", "trials-0"],
)
def test_bad_growth_check_setting_is_usage_error(config, message, tmp_path, capsys):
    # before, a negative epsilon passed, 0 raised ZeroDivisionError, a
    # negative trials count numpy's "negative dimensions" error, and zero
    # trials passed having checked nothing
    (tmp_path / "run.cfg").write_text(f"[check]\n{config}\n")
    out = tmp_path / "out"
    assert exit_code(["growth", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ("[basis]\ndegre = 9\n", "unknown config key [basis] degre"),
        ("[check]\nbeta = 1.0\n", "unknown config key [check] beta"),
        ("[model]\nmeasure = poisson\n\n[plot]\ncolor = red\n", "unknown config section [plot]"),
    ],
    ids=["misspelt-key", "dropped-key", "unknown-section"],
)
def test_unknown_config_section_or_key_is_usage_error(config, message, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(config)
    assert exit_code(["kernels", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize(
    "args, code",
    [
        (["kernels", "--dim", "2", "--N", "3"], 0),
        (["wick", "solve", "--phi", "{phi}", "--psi", "{phi}", "--N", "4"], 0),
        (["charlier"], 0),
        (["kernels", "--measure", "poisson", "--alpha", "expm1", "--N", "4"], 0),
        (["kernels", "--measure", "nosuch"], 2),
        (["kernels", "--alpha", "nosuch"], 2),
        (["kernels", "--alpha", "{alpha}", "--N", "4"], 2),
        (["biorth", "--measure", "delta"], 2),
        (["transport", "--phi", "{phi}", "--N", "4"], 2),
    ],
    ids=[
        "kernels-nd-table", "wick-solve", "charlier", "alpha-expm1", "unknown-measure",
        "unknown-alpha", "alpha-fixture-wrong-shape", "biorth-no-suite", "transport-no-measure2",
    ],
)
def test_exit_codes_of_remaining_branches(args, code, tmp_path):
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    phi = tmp_path / "phi.fixture"
    phi.write_text(format_kernel_seq(q_seq(basis, {0: scalar_tensor(1, 2.0), 1: SymTensor(1, 1, {(1,): 1.0})})))
    alpha = tmp_path / "alpha.fixture"
    alpha.write_text("vectorjet\ndim 1\ndegree 2\nkernel 1 component 1\n1 1.0\n")
    args = [a.format(phi=phi, alpha=alpha) for a in args]
    assert exit_code(args + ["--out", str(tmp_path)]) == code
    if args[0] == "kernels" and code == 0:
        rows = (tmp_path / "kernels.csv").read_text().splitlines()
        assert rows[0] == "n,m,value,expected,abs_error" and len(rows) > 1


def test_readme_config_sample_loads(tmp_path):
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "sample.cfg").write_text(sample)
    assert exit_code(["kernels", "--config", str(tmp_path / "sample.cfg"), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["verify", "--suite", "symtensor-algebra", "--seed", "-1"], None, "seed must be in [0, 2**128), got -1"),
        (["verify", "--seed", str(2**128)], None, f"seed must be in [0, 2**128), got {2**128}"),
        (["growth", "--seed", "-5"], None, "seed must be in [0, 2**128), got -5"),
        (["hermite"], "[run]\nseed = -3\n", "seed must be in [0, 2**128), got -3"),
        (["wick", "pow", "--power", "-1", "--phi", "{phi}", "--N", "4"], None, "--power must be non-negative, got -1"),
        (
            ["wick", "fn", "--coeffs", "1,x", "--phi", "{phi}", "--N", "4"],
            None,
            "bad --coeffs: could not convert string to float: 'x'",
        ),
        (["wick", "fn", "--coeffs", "1,nan", "--phi", "{phi}", "--N", "4"], None, "--coeffs must be finite numbers, got 1,nan"),
        (["wick", "fn", "--coeffs", "inf", "--phi", "{phi}", "--N", "4"], None, "--coeffs must be finite numbers, got inf"),
    ],
    ids=["verify-seed-minus-1", "verify-seed-2-128", "growth-seed-minus-5", "config-seed-minus-3",
         "wick-power-minus-1", "wick-coeffs-x", "wick-coeffs-nan", "wick-coeffs-inf"],
)
def test_value_the_library_rejects_is_usage_error(args, config, message, tmp_path, capsys):
    # before, each raised from numpy or the library: a traceback and exit 1
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    phi = tmp_path / "phi.fixture"
    phi.write_text(format_kernel_seq(q_seq(basis, {0: scalar_tensor(1, 2.0)})))
    args = [a.format(phi=phi) for a in args]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    assert exit_code(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--suite", "nosuch"], "unknown suite name(s): nosuch"),
        (["kernels", "--measure", "nosuch"], "unknown measure 'nosuch' (expected gaussian|poisson|delta)"),
        (["transport", "--phi", "{phi}"], "transport needs --measure2 or a [model2] config section"),
        (
            ["wick", "inv", "--phi", "{missing}"],
            "bad fixture {missing}: [Errno 2] No such file or directory: '{missing}'",
        ),
    ],
    ids=["verify-unknown-suite", "kernels-unknown-measure", "transport-no-measure2", "wick-missing-phi"],
)
def test_usage_error_leaves_no_output_directory(args, message, tmp_path, capsys):
    # before, each of these made the --out directory, then exited 2
    basis = AppellBasis(GaussianModel.standard(1), degree=4)
    phi, missing = tmp_path / "phi.fixture", tmp_path / "missing.fixture"
    phi.write_text(format_kernel_seq(q_seq(basis, {0: scalar_tensor(1, 2.0)})))
    args = [a.format(phi=phi, missing=missing) for a in args]
    out = tmp_path / "out"
    assert exit_code(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message.format(missing=missing) + "\n" and captured.out == ""
    assert not out.exists()


def test_largest_seed_is_accepted(tmp_path):
    assert run_cli(["verify", "--suite", "symtensor-algebra", "--seed", str(2**128 - 1), "--out", str(tmp_path)]) == 0


# -- report rows against csv.DictWriter ---------------------------------------


def reference_csv(rows):
    """The report table as csv.DictWriter writes it, floats by repr."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in r.items()})
    return buf.getvalue()


def assert_csv_matches_reference(path, rows):
    _dump_csv(path, rows)
    assert path.read_bytes() == reference_csv(rows).encode()


@pytest.fixture(scope="module")
def suite_results_seed5():
    return run_suite(None, seed=5)


def test_every_suite_table_matches_dictwriter(suite_results_seed5, tmp_path):
    assert len(suite_results_seed5) == 20
    for res in suite_results_seed5:
        assert_csv_matches_reference(tmp_path / f"{res.name}.csv", res.rows)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernels_table_matches_dictwriter(dim, tmp_path, monkeypatch):
    # the d >= 2 table's m column holds indices such as 1,2, which get quoted
    written = []
    dump = cli._dump_csv
    monkeypatch.setattr(cli, "_dump_csv", lambda path, rows: written.append(rows) or dump(path, rows))
    assert run_cli(["kernels", "--dim", str(dim), "--N", "3", "--out", str(tmp_path)]) == 0
    (rows,) = written
    assert (tmp_path / "kernels.csv").read_bytes() == reference_csv(rows).encode()
    assert ('"1,2"' in (tmp_path / "kernels.csv").read_text()) == (dim == 2)


def test_hand_rows_match_dictwriter(tmp_path):
    rows = [
        {"n": 0, "m": 1, "value": 1.5, "expected": 2, "abs_error": 0.5},
        {"n": 1, "value": np.float64(0.1), "band": "inner"},
        {"abs_error": -0.0, "m": "quad", "n": 2, "extra": [1, 2]},
        {"n": 3, "m": "1,2", "value": float("inf"), "expected": float("-inf"), "abs_error": float("nan")},
        {"n": 4, "m": 'say "hi"', "value": 5e-324, "expected": "a\nb", "abs_error": "x,y"},
        {"n": True, "m": None, "value": 1e308, "expected": -2.5e-310, "abs_error": ""},
        {},
    ]
    assert_csv_matches_reference(tmp_path / "hand.csv", rows)
    assert_csv_matches_reference(tmp_path / "empty.csv", [])


# -- one parser per process ---------------------------------------------------


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_the_module_parser_equals_a_fresh_one():
    fresh = cli._build_parser()
    assert cli._PARSER.format_help() == fresh.format_help()
    built, new = subparsers(cli._PARSER), subparsers(fresh)
    assert list(built) == list(new)
    for name in built:
        assert built[name].format_help() == new[name].format_help(), name


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    assert run_cli(["list-suites"]) == 0
    assert run_cli(["verify", "--suite", "nondegeneracy", "--out", str(tmp_path)]) == 0
    assert made == []


def test_two_calls_in_one_process_stay_independent(tmp_path, capsys):
    one, every = tmp_path / "one", tmp_path / "all"
    assert run_cli(["verify", "--suite", "nondegeneracy", "--seed", "5", "--out", str(one)]) == 0
    assert run_cli(["verify", "--seed", "5", "--out", str(every)]) == 0
    assert [s["name"] for s in json.loads((one / "report.json").read_text())["suites"]] == ["nondegeneracy"]
    report = json.loads((every / "report.json").read_text())
    assert report["seed"] == 5 and len(report["suites"]) == 20
