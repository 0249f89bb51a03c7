"""Command-line front end: build bases, dump kernels, run suites, transport.

Configuration comes from an INI file plus flag overrides; every run writes
deterministic JSON (sorted keys, no timestamps) and CSV tables to the output
directory, so identical configs and seeds give byte-identical reports.
Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .appell import (
    AppellBasis,
    _check_sweep,
    appell_constants,
    growth_bound_check,
    pair,
    p_seq,
    to_monomial,
)
from .fixtures import (
    format_kernel_seq,
    parse_kernel_seq,
    parse_vector_jet,
)
from .jets import expm1_vjet, identity_vjet, jet_mul, log1p_vjet
from .measures import DeltaModel, GaussianModel, PoissonModel
from .suites import UnknownSuiteError, list_suites, run_suite
from .symtensor import SymTensor, multi_indices, random_tensor
from . import remeasure, wick

__all__ = ["main"]

_RESULTS_ENV = "APPELLSYS_RESULTS_DIR"


def _write(path: Path, text: str) -> None:
    """Write text to path; the first write makes the directory, so a usage error leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _dump_json(path: Path, payload) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


_CSV_FIELDS = ["n", "m", "value", "expected", "abs_error"]


def _dump_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        writer.writerows(
            [repr(v) if isinstance(v, float) else v for v in (r.get(k, "") for k in _CSV_FIELDS)] for r in rows
        )
    _write(path, buf.getvalue())


def _usage_error(message: str) -> int:
    """Print message to stderr and return the exit code of a usage error."""
    print(message, file=sys.stderr)
    return 2


def _floats(text: str) -> tuple[float, ...]:
    values = tuple(float(x) for x in text.replace(",", " ").split())
    if not values:
        raise ValueError("expected at least one number")
    return values


# (section, key) -> (setting, parser, default); any other section or key is an error
_CONFIG = {
    ("run", "seed"): ("seed", int, 12345),
    ("run", "out"): ("out", str, None),
    ("model", "measure"): ("measure", str, "gaussian"),
    ("model", "dim"): ("dim", int, 1),
    ("model", "sigma2"): ("sigma2", float, 1.0),
    ("model", "nu"): ("nu", _floats, (1.0,)),
    ("model2", "measure"): ("measure2", str, None),
    ("model2", "nu"): ("nu2", _floats, (1.0,)),
    ("model2", "sigma2"): ("sigma2_2", float, 1.0),
    ("basis", "alpha"): ("alpha", str, "id"),
    ("basis", "degree"): ("degree", int, 6),
    ("check", "epsilon"): ("epsilon", float, 0.5),
    ("check", "trials"): ("trials", int, 1000),
    ("check", "tolerance"): ("tolerance", float, 1e-10),
    ("check", "p"): ("p", float, 2.0),
    ("check", "q"): ("q", float, 6.0),
}


def _load_config(path: str | None) -> dict:
    cfg = {setting: default for setting, _, default in _CONFIG.values()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise SystemExit(_usage_error(f"config file not found: {path}"))
    for section in parser.sections():
        if section not in {s for s, _ in _CONFIG}:
            raise SystemExit(_usage_error(f"unknown config section [{section}] in {path}"))
        for key, text in parser.items(section):
            if (section, key) not in _CONFIG:
                raise SystemExit(_usage_error(f"unknown config key [{section}] {key} in {path}"))
            setting, cast, _ = _CONFIG[section, key]
            try:
                cfg[setting] = cast(text)
            except ValueError as e:
                raise SystemExit(_usage_error(f"bad config value for [{section}] {key}: {e}"))
    return cfg


def _make_model(kind: str, dim: int, sigma2: float, nu):
    if not all(0 < x < inf for x in nu):
        raise SystemExit(_usage_error(f"nu must be positive and finite, got {', '.join(map(repr, nu))}"))
    if not 0 < sigma2 < inf:
        raise SystemExit(_usage_error(f"sigma2 must be positive and finite, got {sigma2!r}"))
    kind = kind.lower()
    if kind == "gaussian":
        return GaussianModel.standard(dim, sigma2)
    if kind == "poisson":
        if len(nu) not in (1, dim):
            raise SystemExit(_usage_error(f"poisson nu needs 1 or {dim} values, got {len(nu)}"))
        return PoissonModel(tuple(nu) if len(nu) == dim else tuple(nu) * dim)
    if kind == "delta":
        return DeltaModel(dim)
    raise SystemExit(_usage_error(f"unknown measure {kind!r} (expected gaussian|poisson|delta)"))


def _make_alpha(spec: str, dim: int, degree: int):
    spec_l = spec.lower()
    if spec_l == "id":
        return identity_vjet(dim, degree)
    if spec_l == "log1p":
        return log1p_vjet(dim, degree)
    if spec_l == "expm1":
        return expm1_vjet(dim, degree)
    if Path(spec).exists():
        jet = _read_fixture(spec, parse_vector_jet)
        if jet.dim != dim or jet.degree != degree:
            raise SystemExit(_usage_error(f"alpha fixture shape mismatch: {spec}"))
        return jet
    raise SystemExit(_usage_error(f"unknown alpha spec {spec!r} (id|log1p|expm1|<fixture path>)"))


def _read_fixture(path: str, parse, *args):
    """Parse the fixture file at path; an unreadable or malformed one is a usage error."""
    try:
        return parse(Path(path).read_text(), *args)
    except (OSError, ValueError) as e:  # FixtureFormatError is a ValueError
        raise SystemExit(_usage_error(f"bad fixture {path}: {e}"))


# flag -> (the setting it overrides, argparse keywords); --config and --out
# are on every command, the rest only where the command reads them
_FLAGS = {
    "seed": ("seed", {"type": int, "help": "seed override"}),
    "N": ("degree", {"type": int, "help": "truncation degree override"}),
    "dim": ("dim", {"type": int, "help": "dimension override"}),
    "measure": ("measure", {"help": "gaussian | poisson | delta"}),
    "alpha": ("alpha", {"help": "id | log1p | expm1 | fixture path"}),
    "nu": ("nu", {"type": float, "help": "Poisson intensity (scalar, repeated per axis)"}),
    "tol": ("tolerance", {"type": float, "help": "tolerance override"}),
    "measure2": ("measure2", {"help": "destination measure"}),
    "out": ("out", {"help": f"results directory (default: results or ${_RESULTS_ENV})"}),
}
_BASIS_FLAGS = ("N", "dim", "measure", "alpha", "nu")


def _add_flags(sub, flags) -> None:
    sub.add_argument("--config", help="INI configuration file")
    for flag in ("out",) + flags:
        sub.add_argument("--" + flag, **_FLAGS[flag][1])


def _settings(args) -> dict:
    """The config file's settings with every flag given on top."""
    cfg = _load_config(args.config)
    for flag, (setting, _) in _FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[setting] = (value,) if flag == "nu" else value
    # the commands that take --seed key numpy's Philox with it
    if hasattr(args, "seed") and not 0 <= cfg["seed"] < 2**128:
        raise SystemExit(_usage_error(f"seed must be in [0, 2**128), got {cfg['seed']}"))
    return cfg


def _out_dir(cfg) -> Path:
    return Path(cfg["out"] or os.environ.get(_RESULTS_ENV, "results"))


def _basis_from(cfg) -> AppellBasis:
    dim, degree = cfg["dim"], cfg["degree"]
    for name, value in (("degree N", degree), ("dim", dim)):
        if value < 1:
            raise SystemExit(_usage_error(f"{name} must be at least 1, got {value}"))
    model = _make_model(cfg["measure"], dim, cfg["sigma2"], cfg["nu"])
    return AppellBasis(model, _make_alpha(cfg["alpha"], dim, degree), degree=degree)


def cmd_verify(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    try:
        results = run_suite(args.suite or None, seed=cfg["seed"])
    except UnknownSuiteError as e:
        return _usage_error(str(e))
    for res in results:
        _dump_csv(out / f"{res.name}.csv", res.rows)
    report = {
        "seed": cfg["seed"],
        "suites": [r.summary() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _dump_json(out / "report.json", report)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (max error {r.max_error:.3e}, tolerance {r.tolerance:.1e})")
    print(("all suites passed" if report["all_passed"] else "FAILURES present") + f"; report in {out}")
    return 0 if report["all_passed"] else 1


def cmd_list_suites(args) -> int:
    for name in list_suites():
        print(name)
    return 0


def cmd_kernels(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    basis = _basis_from(cfg)
    rows = []
    if basis.dim == 1:
        # monomial coefficient table of each system polynomial
        for n in range(basis.degree + 1):
            seq = to_monomial(basis, p_seq(basis, {n: SymTensor(1, n, {(1,) * n: 1.0})}))
            for k in range(basis.degree + 1):
                v = seq.kernels[k][(1,) * k] if k > 0 else seq.kernels[0].item()
                rows.append({"n": n, "m": k, "value": v, "expected": "", "abs_error": ""})
    else:
        for n in range(basis.degree + 1):
            const = appell_constants(basis)[n]
            for idx in multi_indices(basis.dim, n):
                rows.append(
                    {
                        "n": n,
                        "m": ",".join(map(str, idx)) or ".",
                        "value": const[idx],
                        "expected": "",
                        "abs_error": "",
                    }
                )
    _dump_csv(out / "kernels.csv", rows)
    print(f"kernel table written to {out/'kernels.csv'}")
    return 0


def _run_single_suite(cfg, name: str) -> int:
    out = _out_dir(cfg)
    (res,) = run_suite([name], seed=cfg["seed"])
    _dump_csv(out / f"{res.name}.csv", res.rows)
    _dump_json(out / f"{res.name}.json", res.summary())
    status = "PASS" if res.passed else "FAIL"
    print(f"{status} {res.name} (max error {res.max_error:.3e})")
    return 0 if res.passed else 1


def cmd_biorth(args) -> int:
    cfg = _settings(args)
    measure, alpha = cfg["measure"].lower(), cfg["alpha"].lower()
    name = f"biorth-{measure}-{alpha}"
    if name not in list_suites():
        return _usage_error(f"no biorthogonality suite for {measure}/{alpha}")
    return _run_single_suite(cfg, name)


def cmd_charlier(args) -> int:
    return _run_single_suite(_settings(args), "charlier-poisson")


def cmd_hermite(args) -> int:
    return _run_single_suite(_settings(args), "hermite-gaussian")


def cmd_growth(args) -> int:
    cfg = _settings(args)
    try:
        _check_sweep(cfg["epsilon"], cfg["trials"])
    except ValueError as e:
        return _usage_error(str(e))
    out = _out_dir(cfg)
    basis = _basis_from(cfg)
    rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
    phi = p_seq(
        basis,
        {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)},
    )
    report = growth_bound_check(
        basis,
        phi,
        cfg["p"],
        cfg["q"],
        cfg["epsilon"],
        trials=cfg["trials"],
        seed=cfg["seed"],
    )
    _dump_json(out / "growth.json", report)
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"{status} growth bound: max ratio {report['max_ratio']:.4g} vs "
        f"envelope constant {report['c_theory']:.4g} (sigma {report['sigma_eps']:.4g})"
    )
    return 0 if report["passed"] else 1


def cmd_wick(args) -> int:
    cfg = _settings(args)
    if args.operation in ("mul", "solve") and not args.psi:
        return _usage_error(f"operation {args.operation} needs --psi")
    if args.operation == "pow" and args.power < 0:
        return _usage_error(f"--power must be non-negative, got {args.power}")
    if args.operation == "fn":
        if not args.coeffs:
            return _usage_error("operation fn needs --coeffs (Taylor coefficients at the mean)")
        try:
            coeffs = [float(c) for c in args.coeffs.split(",")]
        except ValueError as e:
            return _usage_error(f"bad --coeffs: {e}")
        if not all(map(isfinite, coeffs)):
            return _usage_error(f"--coeffs must be finite numbers, got {args.coeffs}")
    out = _out_dir(cfg)
    basis = _basis_from(cfg)
    Phi = _read_fixture(args.phi, parse_kernel_seq, basis)
    Psi = _read_fixture(args.psi, parse_kernel_seq, basis) if args.psi else None
    if args.operation == "mul":
        result = wick.wick_mul(Phi, Psi)
    elif args.operation == "pow":
        result = wick.wick_pow(Phi, args.power)
    elif args.operation == "inv":
        result = wick.wick_inv(Phi)
    elif args.operation == "solve":
        result = wick.wick_solve(Phi, Psi)
    else:
        result = wick.wick_fn(coeffs, Phi)
    _write(out / "wick_result.fixture", format_kernel_seq(result))

    # transform consistency: the result transform vs the independently
    # recomputed jet for every operation
    from .appell import s_transform
    from .jets import constant_jet

    s_res = s_transform(basis, result)
    s_phi = s_transform(basis, Phi)
    checks = {}

    def jet_gap(a, b):
        return max((a.kernels[n] - b.kernels[n]).max_abs() for n in range(basis.degree + 1))

    if args.operation == "mul":
        checks["s_multiplicativity_error"] = jet_gap(
            s_res, jet_mul(s_phi, s_transform(basis, Psi))
        )
    elif args.operation == "pow":
        ref = constant_jet(basis.dim, basis.degree, 1.0)
        for _ in range(args.power):
            ref = jet_mul(ref, s_phi)
        checks["s_power_error"] = jet_gap(s_res, ref)
    elif args.operation == "fn":
        z0 = Phi.kernels[0].item()
        centered = s_phi.shift_constant(-z0)
        ref = constant_jet(basis.dim, basis.degree, coeffs[0])
        power = constant_jet(basis.dim, basis.degree, 1.0)
        for a_k in coeffs[1 : basis.degree + 2]:
            power = jet_mul(power, centered)
            if a_k:
                ref = ref + power.scale(a_k)
        checks["s_series_error"] = jet_gap(s_res, ref)
    elif args.operation in ("inv", "solve"):
        target = wick.wick_unit(basis) if args.operation == "inv" else Psi
        back = wick.wick_mul(Phi, result)
        checks["roundtrip_error"] = max(
            (back.kernels[n] - target.kernels[n]).max_abs() for n in range(basis.degree + 1)
        )
    payload = {"operation": args.operation, "checks": checks}
    _dump_json(out / "wick_report.json", payload)
    ok = all(v <= cfg["tolerance"] for v in checks.values())
    print(f"wick {args.operation}: checks {checks or '(none)'}")
    return 0 if ok else 1


def cmd_transport(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    if cfg["measure2"] is None:
        return _usage_error("transport needs --measure2 or a [model2] config section")
    basis_src = _basis_from(cfg)
    dim, degree = basis_src.dim, basis_src.degree
    model_dst = _make_model(cfg["measure2"], dim, cfg["sigma2_2"], cfg["nu2"])
    basis_dst = AppellBasis(model_dst, basis_src.alpha, degree=degree)
    Phi = _read_fixture(args.phi, parse_kernel_seq, basis_src)
    moved = remeasure.transport_dist(basis_src, basis_dst, Phi)
    _write(out / "transport_result.fixture", format_kernel_seq(moved))

    rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
    worst = 0.0
    for _ in range(8):
        phi = p_seq(basis_dst, {n: random_tensor(rng, dim, n) for n in range(degree + 1)})
        lhs = pair(basis_dst, moved, phi)
        rhs = pair(basis_src, Phi, remeasure.reorder_test(basis_dst, basis_src, phi))
        worst = max(worst, abs(lhs - rhs))
    back = remeasure.transport_dist(basis_dst, basis_src, moved)
    round_err = max(
        (back.kernels[n] - Phi.kernels[n]).max_abs() for n in range(degree + 1)
    )
    payload = {"pairing_invariance_error": worst, "double_transport_error": round_err}
    _dump_json(out / "transport_report.json", payload)
    ok = max(worst, round_err) <= cfg["tolerance"]
    print(
        f"transport {basis_src.model.name} -> {model_dst.name}: pairing error {worst:.3e}, "
        f"round trip {round_err:.3e}"
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appellsys",
        description="Biorthogonal polynomial/distribution systems at finite "
        "dimension and truncation degree: kernel tables, identity "
        "verification suites, Wick calculus, measure transport.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    seed, basis = ("seed",), _BASIS_FLAGS
    commands = {}
    for name, fn, flags, help_text in [
        ("verify", cmd_verify, seed, "run verification suites"),
        ("kernels", cmd_kernels, basis, "dump kernel tables for a basis"),
        ("biorth", cmd_biorth, seed + ("measure", "alpha"), "biorthogonality table for measure/alpha"),
        ("charlier", cmd_charlier, seed, "Poisson specialization checks"),
        ("hermite", cmd_hermite, seed, "Gaussian specialization checks"),
        ("growth", cmd_growth, seed + basis, "growth-bound sweep for a random test function"),
        ("wick", cmd_wick, basis + ("tol",), "Wick operations on kernel fixtures"),
        ("transport", cmd_transport, seed + basis + ("tol", "measure2"), "move a distribution between measures"),
    ]:
        commands[name] = sp = subs.add_parser(name, help=help_text)
        _add_flags(sp, flags)
        sp.set_defaults(func=fn)
    sp = subs.add_parser("list-suites", help="list registered suite names")
    sp.set_defaults(func=cmd_list_suites)

    commands["verify"].add_argument("--suite", action="append", help="suite name (repeatable; default all)")
    sp = commands["wick"]
    sp.add_argument("operation", choices=["mul", "pow", "fn", "inv", "solve"])
    sp.add_argument("--phi", required=True, help="kernel sequence fixture")
    sp.add_argument("--psi", help="second kernel sequence fixture")
    sp.add_argument("--power", type=int, default=2, help="exponent for pow")
    sp.add_argument("--coeffs", help="comma-separated Taylor coefficients for fn")
    commands["transport"].add_argument("--phi", required=True, help="kernel sequence fixture (source basis)")
    return parser


# static configuration like _FLAGS: built once at import, read by every call
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
