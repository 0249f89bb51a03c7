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
from pathlib import Path

import numpy as np

from .appell import (
    AppellBasis,
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


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _dump_csv(path: Path, rows, fieldnames=None) -> None:
    if not rows:
        path.write_text("")
        return
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in r.items()})
    path.write_text(buf.getvalue())


def _load_config(path: str | None) -> dict:
    cfg = {
        "seed": 12345,
        "out": None,
        "measure": "gaussian",
        "dim": 1,
        "sigma2": 1.0,
        "nu": (1.0,),
        "measure2": None,
        "nu2": (1.0,),
        "sigma2_2": 1.0,
        "alpha": "id",
        "degree": 6,
        "epsilon": 0.5,
        "trials": 1000,
        "tolerance": 1e-10,
        "p": 2.0,
        "q": 6.0,
        "beta": 1.0,
    }
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        print(f"config file not found: {path}", file=sys.stderr)
        raise SystemExit(2)

    def grab(section, key, cast, target=None):
        if parser.has_option(section, key):
            try:
                cfg[target or key] = cast(parser.get(section, key))
            except ValueError as e:
                print(f"bad config value for [{section}] {key}: {e}", file=sys.stderr)
                raise SystemExit(2)

    def floats(text):
        return tuple(float(x) for x in text.replace(",", " ").split())

    grab("run", "seed", int)
    grab("run", "out", str)
    grab("model", "measure", str)
    grab("model", "dim", int)
    grab("model", "sigma2", float)
    grab("model", "nu", floats)
    grab("model2", "measure", str, target="measure2")
    grab("model2", "nu", floats, target="nu2")
    grab("model2", "sigma2", float, target="sigma2_2")
    grab("basis", "alpha", str)
    grab("basis", "degree", int)
    grab("check", "epsilon", float)
    grab("check", "trials", int)
    grab("check", "tolerance", float)
    grab("check", "p", float)
    grab("check", "q", float)
    grab("check", "beta", float)
    return cfg


def _make_model(kind: str, dim: int, sigma2: float, nu):
    kind = kind.lower()
    if kind == "gaussian":
        return GaussianModel.standard(dim, sigma2)
    if kind == "poisson":
        if len(nu) not in (1, dim):
            print(f"poisson nu needs 1 or {dim} values, got {len(nu)}", file=sys.stderr)
            raise SystemExit(2)
        return PoissonModel(tuple(nu) if len(nu) == dim else tuple(nu) * dim)
    if kind == "delta":
        return DeltaModel(dim)
    print(f"unknown measure {kind!r} (expected gaussian|poisson|delta)", file=sys.stderr)
    raise SystemExit(2)


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
            print(f"alpha fixture shape mismatch: {spec}", file=sys.stderr)
            raise SystemExit(2)
        return jet
    print(f"unknown alpha spec {spec!r} (id|log1p|expm1|<fixture path>)", file=sys.stderr)
    raise SystemExit(2)


def _read_fixture(path: str, parse, *args):
    """Parse the fixture file at path; an unreadable or malformed one is a usage error."""
    try:
        return parse(Path(path).read_text(), *args)
    except (OSError, ValueError) as e:  # FixtureFormatError is a ValueError
        print(f"bad fixture {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _out_dir(cfg, args) -> Path:
    out = getattr(args, "out", None) or cfg.get("out") or os.environ.get(_RESULTS_ENV, "results")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _basis_from(cfg, args) -> AppellBasis:
    dim = args.dim if args.dim is not None else cfg["dim"]
    degree = args.N if args.N is not None else cfg["degree"]
    measure = args.measure or cfg["measure"]
    nu = (args.nu,) if args.nu is not None else cfg["nu"]
    model = _make_model(measure, dim, cfg["sigma2"], nu)
    alpha = _make_alpha(args.alpha or cfg["alpha"], dim, degree)
    return AppellBasis(model, alpha, degree=degree)


def _add_common(sub):
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", help="results directory (default: results or $%s)" % _RESULTS_ENV)
    sub.add_argument("--seed", type=int, help="seed override")
    sub.add_argument("--N", type=int, help="truncation degree override")
    sub.add_argument("--dim", type=int, help="dimension override")
    sub.add_argument("--measure", help="gaussian | poisson | delta")
    sub.add_argument("--alpha", help="id | log1p | expm1 | fixture path")
    sub.add_argument("--nu", type=float, help="Poisson intensity (scalar, repeated per axis)")
    sub.add_argument("--tol", type=float, help="tolerance override")


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = _out_dir(cfg, args)
    names = args.suite or None
    try:
        results = run_suite(names, seed=seed)
    except UnknownSuiteError as e:
        print(str(e), file=sys.stderr)
        return 2
    for res in results:
        _dump_csv(
            out / f"{res.name}.csv",
            res.rows,
            fieldnames=["n", "m", "value", "expected", "abs_error"],
        )
    report = {
        "seed": seed,
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
    cfg = _load_config(args.config)
    out = _out_dir(cfg, args)
    basis = _basis_from(cfg, args)
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
    _dump_csv(out / "kernels.csv", rows, fieldnames=["n", "m", "value", "expected", "abs_error"])
    print(f"kernel table written to {out/'kernels.csv'}")
    return 0


def _run_single_suite(cfg, args, name: str) -> int:
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = _out_dir(cfg, args)
    (res,) = run_suite([name], seed=seed)
    _dump_csv(out / f"{res.name}.csv", res.rows, fieldnames=["n", "m", "value", "expected", "abs_error"])
    _dump_json(out / f"{res.name}.json", res.summary())
    status = "PASS" if res.passed else "FAIL"
    print(f"{status} {res.name} (max error {res.max_error:.3e})")
    return 0 if res.passed else 1


def cmd_biorth(args) -> int:
    cfg = _load_config(args.config)
    measure = (args.measure or cfg["measure"]).lower()
    alpha = (args.alpha or cfg["alpha"]).lower()
    name = f"biorth-{measure}-{alpha}"
    if name not in list_suites():
        print(f"no biorthogonality suite for {measure}/{alpha}", file=sys.stderr)
        return 2
    return _run_single_suite(cfg, args, name)


def cmd_charlier(args) -> int:
    return _run_single_suite(_load_config(args.config), args, "charlier-poisson")


def cmd_hermite(args) -> int:
    return _run_single_suite(_load_config(args.config), args, "hermite-gaussian")


def cmd_growth(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = _out_dir(cfg, args)
    basis = _basis_from(cfg, args)
    rng = np.random.Generator(np.random.Philox(key=seed))
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
        seed=seed,
    )
    _dump_json(out / "growth.json", report)
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"{status} growth bound: max ratio {report['max_ratio']:.4g} vs "
        f"envelope constant {report['c_theory']:.4g} (sigma {report['sigma_eps']:.4g})"
    )
    return 0 if report["passed"] else 1


def cmd_wick(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(cfg, args)
    basis = _basis_from(cfg, args)
    Phi = _read_fixture(args.phi, parse_kernel_seq, basis)
    if args.operation in ("mul", "solve") and not args.psi:
        print(f"operation {args.operation} needs --psi", file=sys.stderr)
        return 2
    if args.operation == "fn" and not args.coeffs:
        print("operation fn needs --coeffs (Taylor coefficients at the mean)", file=sys.stderr)
        return 2
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
        coeffs = [float(c) for c in args.coeffs.split(",")]
        result = wick.wick_fn(coeffs, Phi)
    (out / "wick_result.fixture").write_text(format_kernel_seq(result))

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
    tol = args.tol if args.tol is not None else cfg["tolerance"]
    ok = all(v <= tol for v in checks.values())
    print(f"wick {args.operation}: checks {checks or '(none)'}")
    return 0 if ok else 1


def cmd_transport(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(cfg, args)
    seed = args.seed if args.seed is not None else cfg["seed"]
    kind2 = args.measure2 or cfg["measure2"]
    if kind2 is None:
        print("transport needs --measure2 or a [model2] config section", file=sys.stderr)
        return 2
    basis_src = _basis_from(cfg, args)
    dim, degree = basis_src.dim, basis_src.degree
    model_dst = _make_model(kind2, dim, cfg["sigma2_2"], cfg["nu2"])
    basis_dst = AppellBasis(model_dst, basis_src.alpha, degree=degree)
    Phi = _read_fixture(args.phi, parse_kernel_seq, basis_src)
    moved = remeasure.transport_dist(basis_src, basis_dst, Phi)
    (out / "transport_result.fixture").write_text(format_kernel_seq(moved))

    rng = np.random.Generator(np.random.Philox(key=seed))
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
    tol = args.tol if args.tol is not None else cfg["tolerance"]
    ok = worst <= tol and round_err <= tol
    print(
        f"transport {basis_src.model.name} -> {model_dst.name}: pairing error {worst:.3e}, "
        f"round trip {round_err:.3e}"
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="appellsys",
        description="Biorthogonal polynomial/distribution systems at finite "
        "dimension and truncation degree: kernel tables, identity "
        "verification suites, Wick calculus, measure transport.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("verify", help="run verification suites")
    _add_common(sp)
    sp.add_argument("--suite", action="append", help="suite name (repeatable; default all)")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("list-suites", help="list registered suite names")
    sp.set_defaults(func=cmd_list_suites)

    for name, fn, extra_help in [
        ("kernels", cmd_kernels, "dump kernel tables for a basis"),
        ("biorth", cmd_biorth, "biorthogonality table for measure/alpha"),
        ("charlier", cmd_charlier, "Poisson specialization checks"),
        ("hermite", cmd_hermite, "Gaussian specialization checks"),
        ("growth", cmd_growth, "growth-bound sweep for a random test function"),
    ]:
        sp = subs.add_parser(name, help=extra_help)
        _add_common(sp)
        sp.set_defaults(func=fn)

    sp = subs.add_parser("wick", help="Wick operations on kernel fixtures")
    _add_common(sp)
    sp.add_argument("operation", choices=["mul", "pow", "fn", "inv", "solve"])
    sp.add_argument("--phi", required=True, help="kernel sequence fixture")
    sp.add_argument("--psi", help="second kernel sequence fixture")
    sp.add_argument("--power", type=int, default=2, help="exponent for pow")
    sp.add_argument("--coeffs", help="comma-separated Taylor coefficients for fn")
    sp.set_defaults(func=cmd_wick)

    sp = subs.add_parser("transport", help="move a distribution between measures")
    _add_common(sp)
    sp.add_argument("--measure2", help="destination measure")
    sp.add_argument("--phi", required=True, help="kernel sequence fixture (source basis)")
    sp.set_defaults(func=cmd_transport)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
