"""The benchmark's three workloads: build, query and verify.

Each workload is set up from the package modules and a seed, and exposes a
fixed list of ops.  One client runs the ops in a closed loop: the next op is
sent when the previous one returns.  An op may carry a check that runs once,
outside the timed region, on its first result; exact references come from
``exact.py``, never from the package's float oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial
from pathlib import Path
from typing import Callable

import numpy as np

import exact

# Fewer correct significant digits than this fails an op's exact check.
DIGITS_FLOOR = 6.0

# Evaluation grid of the build checks.  It is fixed, not seeded, so that the
# accuracy of the seed-independent bases reads the same on every seed.
CHECK_GRID = (0.0, 1.0, 3.0, 5.0)

EXACT_FAMILIES = {
    ("gaussian", "id"): exact.hermite,
    ("poisson", "id"): exact.poisson_identity,
    ("poisson", "log1p"): exact.charlier,
}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # check(result) -> (passed, digits); runs once on the first result
    check: Callable[[object], tuple[bool, list[float]]] | None = None
    # the check is known to fail: the case lies beyond the package's
    # precision ceiling (ROADMAP item 4), so it counts in fail_rate only
    beyond_ceiling: bool = False
    # runs untimed before every run
    prepare: Callable[[], None] | None = None


def _cold_start(pkg) -> Callable[[], None]:
    """Empty every functools cache of the package, as in a fresh process.

    Build and verify ops run cold so that each op costs the same on every
    pass and a run's figures do not depend on how many passes fit in it.
    """

    def clear() -> None:
        for mod in vars(pkg).values():
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    return clear


def _model(pkg, measure: str, d: int):
    if measure == "gaussian":
        return pkg.measures.GaussianModel.standard(d)
    return pkg.measures.PoissonModel(tuple(1.0 for _ in range(d)))


def _alpha(pkg, kind: str, d: int, N: int, rng):
    if kind == "id":
        return pkg.jets.identity_vjet(d, N)
    if kind == "log1p":
        return pkg.jets.log1p_vjet(d, N)
    return pkg.jets.random_vjet(rng, d, N)


def _tensor_digits(tensors, polys, z) -> float:
    """Normwise digits of value tensors P_0..P_N at z against exact ones."""
    values = exact.coordinate_values(polys, z)
    got = [v for t in tensors for v in t.coeffs.values()]
    ref = [exact.tensor_entry(values, idx) for t in tensors for idx in t.coeffs]
    return exact.vector_digits(got, ref)


def _basis_check(pkg, family, N: int, points):
    """Check a built basis through gen_appell_all on the check grid."""

    def check(basis):
        polys = family(N)
        digits = [_tensor_digits(pkg.appell.gen_appell_all(basis, z), polys, z) for z in points]
        return min(digits) >= DIGITS_FLOOR, digits

    return check


class Workload:
    ops: list[Op]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# build: AppellBasis construction over the ROADMAP ladder

# Every shape builds in under a second on a quiet machine, so each op is
# timed at least five times in a 30 s run and its median is steady; (3,8),
# (4,6) and (5,5) take 3-4 s a build, so a run would time each only twice.
LADDER = [(1, 12), (2, 8), (3, 6), (4, 5), (5, 4)]
LOG1P_DEGREES = (14, 18)
# log1p Charlier at N = 18 keeps under one correct digit (ROADMAP item 4)
BEYOND_CEILING = {("poisson", "log1p", 1, 18)}


class Build(Workload):
    """Each shape is built once with identity alpha and once with a seeded
    random alpha; the measures swap between alternate shapes so that both
    measures meet both alphas."""

    def __init__(self, pkg, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        cases = []
        for k, (d, N) in enumerate(LADDER):
            id_measure, random_measure = ("gaussian", "poisson") if k % 2 == 0 else ("poisson", "gaussian")
            cases.append((id_measure, "id", d, N))
            cases.append((random_measure, "random", d, N))
        cases += [("poisson", "log1p", 1, N) for N in LOG1P_DEGREES]
        cold = _cold_start(pkg)
        self.ops = []
        for measure, alpha_kind, d, N in cases:
            model = _model(pkg, measure, d)
            alpha = _alpha(pkg, alpha_kind, d, N, rng)
            family = EXACT_FAMILIES.get((measure, alpha_kind))
            points = [[CHECK_GRID[(k + i) % len(CHECK_GRID)] for i in range(d)] for k in range(len(CHECK_GRID))]
            self.ops.append(
                Op(
                    kind=alpha_kind,
                    run=lambda model=model, alpha=alpha, N=N: pkg.appell.AppellBasis(model, alpha, degree=N),
                    check=_basis_check(pkg, family, N, points) if family else None,
                    beyond_ceiling=(measure, alpha_kind, d, N) in BEYOND_CEILING,
                    prepare=cold,
                )
            )


# ---------------------------------------------------------------------------
# query: calls on prebuilt bases

# (measure, alpha, d, N, partner measure sharing alpha)
QUERY_BASES = [
    ("gaussian", "id", 3, 6, "poisson"),
    ("poisson", "log1p", 1, 12, "gaussian"),
    ("poisson", "random", 2, 7, "gaussian"),
]
INPUTS_PER_KIND = 8
NORM_P, NORM_Q = 1.0, 2.0


class Query(Workload):
    def __init__(self, pkg, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        per_basis = []
        for measure, alpha_kind, d, N, partner_measure in QUERY_BASES:
            alpha = _alpha(pkg, alpha_kind, d, N, rng)
            basis = pkg.appell.AppellBasis(_model(pkg, measure, d), alpha, degree=N)
            partner = pkg.appell.AppellBasis(_model(pkg, partner_measure, d), alpha, degree=N)
            family = EXACT_FAMILIES.get((measure, alpha_kind))
            per_basis.append([self._ops(pkg, rng, measure, basis, partner, family) for _ in range(INPUTS_PER_KIND)])
        # interleave so that every stretch of a pass holds the whole mix
        self.ops = [op for j in range(INPUTS_PER_KIND) for ops in per_basis for op in ops[j]]

    @staticmethod
    def _ops(pkg, rng, measure, basis, partner, family) -> list[Op]:
        ap, sym, jets = pkg.appell, pkg.symtensor, pkg.jets
        d, N = basis.dim, basis.degree

        def kernels(scale0=None):
            ks = {n: sym.random_tensor(rng, d, n, scale=1.0 / factorial(n)) for n in range(N + 1)}
            if scale0 is not None:
                ks[0] = sym.scalar_tensor(d, scale0)
            return ks

        z = rng.standard_normal(d) if measure == "gaussian" else rng.uniform(0.0, 6.0, d)
        xi = rng.standard_normal(d)
        phi = ap.p_seq(basis, kernels())
        mono = ap.monomial_seq(d, N, kernels())
        Phi = ap.q_seq(basis, kernels(1.0 + abs(rng.standard_normal())))
        Psi = ap.q_seq(basis, kernels())
        Phi_t = ap.q_seq(partner, kernels())
        jet = jets.ScalarJet(d, N, tuple(kernels()[n] for n in range(N + 1)))
        text = pkg.fixtures.format_kernel_seq(Phi)

        value_check = point_check = None
        if family is not None:

            def value_check(tensors):
                digits = _tensor_digits(tensors, family(N), z)
                return digits >= DIGITS_FLOOR, [digits]

            def point_check(value):
                values = exact.coordinate_values(family(N), z)
                terms = exact.pairing_terms(values, [k.coeffs for k in phi.kernels])
                digits = exact.sum_digits(value, terms)
                return digits >= DIGITS_FLOOR, [digits]

        def ingest():
            return pkg.fixtures.format_kernel_seq(pkg.fixtures.parse_kernel_seq(text, basis))

        return [
            Op("gen_appell_all", lambda: ap.gen_appell_all(basis, z), value_check),
            Op("eval_test", lambda: ap.eval_test(basis, phi, z), point_check),
            Op("delta_z_pair", lambda: ap.pair(basis, ap.delta_z(basis, z), phi), point_check),
            Op("to_monomial", lambda: ap.to_monomial(basis, phi)),
            Op("to_appell", lambda: ap.to_appell(basis, mono)),
            Op("s_transform", lambda: ap.s_transform(basis, Phi)),
            Op("s_inverse", lambda: ap.s_inverse(basis, jet)),
            Op("g_nabla_apply", lambda: ap.g_nabla_apply(basis, xi, mono)),
            Op("wick_mul", lambda: pkg.wick.wick_mul(Phi, Psi)),
            Op("wick_inv", lambda: pkg.wick.wick_inv(Phi)),
            Op("transport_dist", lambda: pkg.remeasure.transport_dist(partner, basis, Phi_t)),
            Op("reorder_test", lambda: pkg.remeasure.reorder_test(basis, partner, phi)),
            Op("norms", lambda: (ap.test_norm(basis, phi, NORM_P, NORM_Q), ap.dist_norm(basis, Phi, NORM_P, NORM_Q))),
            Op("fixture_ingest", ingest, lambda r: (r == text, [])),
        ]


# ---------------------------------------------------------------------------
# verify: the CLI acceptance path, one suite per op


class Verify(Workload):
    def __init__(self, pkg, seed: int, root: Path) -> None:
        self.out = root / ".perfbench_out" / "verify"
        self.out.mkdir(parents=True, exist_ok=True)
        cold = _cold_start(pkg)
        self.ops = []
        for name in pkg.suites.list_suites():
            out = self.out / name
            argv = ["verify", "--suite", name, "--seed", str(seed), "--out", str(out)]
            check = _SUITE_CHECKS.get(name, _passed)
            self.ops.append(Op(name, partial(_verify, pkg, argv, out, name), check, prepare=cold))

    def close(self) -> None:
        shutil.rmtree(self.out.parent, ignore_errors=True)


def _verify(pkg, argv, out: Path, name: str):
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, (out / "report.json").read_bytes(), (out / f"{name}.csv").read_bytes()


def _passed(result) -> tuple[bool, list[float]]:
    code, report, _ = result
    return code == 0 and json.loads(report)["all_passed"] is True, []


def _csv_rows(result, count: int) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(result[2].decode())))
    if len(rows) < count:
        raise ValueError(f"expected at least {count} CSV rows, got {len(rows)}")
    return rows[:count]


def _hermite_check(result):
    """The suite's leading rows are the monomial coefficients of He_0..He_8."""
    N = 8
    polys = exact.hermite(N)
    rows = _csv_rows(result, (N + 1) ** 2)
    digits = []
    for n in range(N + 1):
        block = rows[n * (N + 1) : (n + 1) * (N + 1)]
        if [(int(r["n"]), int(r["m"])) for r in block] != [(n, k) for k in range(N + 1)]:
            return False, []
        ref = polys[n] + [Fraction(0)] * (N - n)
        digits.append(exact.vector_digits([float(r["value"]) for r in block], ref))
    return _passed(result)[0] and min(digits) >= DIGITS_FLOOR, digits


def _charlier_check(result):
    """The suite's leading rows are C_0..C_6 at six points, point-major."""
    N, points = 6, 6
    polys = exact.charlier(N)
    rows = _csv_rows(result, points * (N + 1))
    digits = []
    for p in range(points):
        block = rows[p * (N + 1) : (p + 1) * (N + 1)]
        x = Fraction(float(block[0]["m"]))
        if [int(r["n"]) for r in block] != list(range(N + 1)) or any(Fraction(float(r["m"])) != x for r in block):
            return False, []
        digits.append(exact.vector_digits([float(r["value"]) for r in block], exact.poly_values(polys, x)))
    return _passed(result)[0] and min(digits) >= DIGITS_FLOOR, digits


_SUITE_CHECKS = {"hermite-gaussian": _hermite_check, "charlier-poisson": _charlier_check}

WORKLOADS = {"build": Build, "query": Query, "verify": Verify}
