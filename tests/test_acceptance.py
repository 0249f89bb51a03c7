"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line so the acceptance table can be
read off a verbose run; the underlying sweeps are the registered suites
plus a few direct checks at desk scale (d <= 3, N <= 6 unless stated).
"""

import json
import math
import subprocess
import sys
from math import comb, factorial, sqrt

import numpy as np

from appellsys.appell import (
    AppellBasis,
    delta_appell_eval,
    delta_z,
    estimate_sigma_eps,
    eval_monomial_seq,
    eval_test,
    gen_appell_all,
    g_nabla_apply,
    monomial_seq,
    pair,
    p_seq,
    q_seq,
    radon_nikodym,
    s_transform,
    to_appell,
    to_monomial,
)
from appellsys.jets import identity_vjet, jet_mul, log1p_vjet
from appellsys.measures import DeltaModel, GaussianModel, PoissonModel
from appellsys.oracle import (
    charlier,
    exact_expectation,
    hermite_h,
    hermite_he_coeffs,
    mc_expectation,
    pmf_sum,
    quad_1d,
)
from appellsys.suites import run_suite
from appellsys.symtensor import (
    SymTensor,
    pairing,
    partial_pairing,
    power_tensor,
    random_tensor,
    scalar_tensor,
    sym_product,
    tensor_norm,
    vector_tensor,
    zero_tensor,
)
from appellsys import wick

SEED = 424242


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


def test_criterion_1_hermite_specialization():
    # Gaussian, identity alpha, d = 1: coefficient tables to 1e-12 for
    # n <= 8; density-route distribution side matches the scaled physicists'
    # polynomials at 50 points to 1e-9.
    N = 8
    basis = AppellBasis(GaussianModel.standard(1), degree=N)
    coeff_err = 0.0
    for n in range(N + 1):
        seq = to_monomial(basis, p_seq(basis, {n: tensor_1d(n, 1.0)}))
        coeffs = hermite_he_coeffs(n)
        for k in range(N + 1):
            got = seq.kernels[k][(1,) * k] if k > 0 else seq.kernels[0].item()
            want = coeffs[k] if k < len(coeffs) else 0.0
            coeff_err = max(coeff_err, abs(got - want))

    model = basis.model
    dens_err = 0.0
    for x in np.linspace(-4.0, 4.0, 50):
        ders = model.density_derivatives(float(x), N)
        rho = model.density1d(float(x))
        for n in range(N + 1):
            qn = (-1.0) ** n * ders[n] / rho
            expected = 2.0 ** (-n / 2.0) * hermite_h(n, float(x) / sqrt(2.0))
            dens_err = max(dens_err, abs(qn - expected))

    passed = coeff_err <= 1e-12 and dens_err <= 1e-9
    report(
        "criterion 1 (Hermite specialization)",
        passed,
        f"coefficient error {coeff_err:.2e} (tol 1e-12), "
        f"density route error {dens_err:.2e} (tol 1e-9)",
    )


def test_criterion_2_charlier_specialization():
    # Poisson(1), logarithmic alpha, d = 1: recurrence match to 1e-10 for
    # n <= 6; orthogonality table to 1e-10.
    N, nu = 6, 1.0
    basis = AppellBasis(PoissonModel((nu,)), log1p_vjet(1, N), degree=N)
    rec_err = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5):
        tensors = gen_appell_all(basis, [x])
        for n in range(N + 1):
            got = tensors[n][(1,) * n] if n > 0 else tensors[0].item()
            rec_err = max(rec_err, abs(got - charlier(n, x, nu)))

    orth_err = 0.0
    for n in range(N + 1):
        for m in range(N + 1):
            val = pmf_sum(basis.model, lambda k: charlier(n, k, nu) * charlier(m, k, nu))
            expected = factorial(n) * nu**n if n == m else 0.0
            orth_err = max(orth_err, abs(val - expected))

    passed = rec_err <= 1e-10 and orth_err <= 1e-10
    report(
        "criterion 2 (Charlier specialization)",
        passed,
        f"recurrence error {rec_err:.2e}, orthogonality error {orth_err:.2e} (tol 1e-10)",
    )


def test_criterion_3_biorthogonality():
    # Gram of adjoint-route distributions against single-grade test
    # functions equals the diagonal n! <xi^n, phi> for n, m <= 5, d <= 2,
    # both alpha presets, to 1e-9.
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind in ("gaussian", "poisson"):
        for alpha_kind in ("id", "log1p"):
            for dim in (1, 2):
                model = (
                    GaussianModel.standard(dim)
                    if kind == "gaussian"
                    else PoissonModel(tuple(1.0 for _ in range(dim)))
                )
                alpha = (
                    identity_vjet(dim, 5) if alpha_kind == "id" else log1p_vjet(dim, 5)
                )
                basis = AppellBasis(model, alpha, degree=5)
                xi = rng.standard_normal(dim)
                for m in range(6):
                    phi_m = random_tensor(rng, dim, m)
                    mono = to_monomial(basis, p_seq(basis, {m: phi_m}))
                    work = mono
                    for n in range(6):
                        value = exact_expectation(basis.model, work)
                        expected = (
                            factorial(n) * pairing(power_tensor(xi, n), phi_m)
                            if n == m
                            else 0.0
                        )
                        worst = max(worst, abs(value - expected))
                        work = g_nabla_apply(basis, xi, work)
    report(
        "criterion 3 (biorthogonality)",
        worst <= 1e-9,
        f"max Gram discrepancy {worst:.2e} (tol 1e-9)",
    )


def test_criterion_4_structural_identities():
    # the translate/reconstruction/addition identities and the conversion
    # round trip on randomized inputs to 1e-10
    results = run_suite(
        ["structure-plain", "structure-generalized", "kernels-generating"], seed=SEED
    )
    worst = max(r.max_error for r in results)
    passed = all(r.passed for r in results)
    report(
        "criterion 4 (structural identities)",
        passed and worst <= 1e-10,
        f"max identity error {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_growth_and_continuity():
    # growth of the system tensors with the estimated radius on 1000 points
    # and the Wick continuity inequality on 1000 pairs, zero violations
    rng = np.random.default_rng(SEED)
    eps = 0.5
    violations = 0
    trials = 0
    for kind, alpha_kind, dim in [
        ("gaussian", "id", 1),
        ("poisson", "log1p", 1),
        ("gaussian", "log1p", 2),
    ]:
        model = (
            GaussianModel.standard(dim)
            if kind == "gaussian"
            else PoissonModel(tuple(1.0 for _ in range(dim)))
        )
        alpha = identity_vjet(dim, 5) if alpha_kind == "id" else log1p_vjet(dim, 5)
        basis = AppellBasis(model, alpha, degree=5)
        sigma = estimate_sigma_eps(basis, 1.0, eps, seed=SEED)
        for _ in range(334):
            trials += 1
            direction = rng.standard_normal(dim)
            z = rng.uniform(0.0, 8.0) * direction / np.linalg.norm(direction)
            znorm = tensor_norm(vector_tensor(z), -1.0, basis.scale)
            tensors = gen_appell_all(basis, z)
            for n in range(6):
                lhs = tensor_norm(tensors[n], -2.0, basis.scale)
                if lhs > 2.0 * factorial(n) * sigma ** (-n) * math.exp(eps * znorm):
                    violations += 1

    basis2 = AppellBasis(GaussianModel.standard(2), degree=5)
    cont = wick.wick_norm_check(basis2, 1, 1, 2, 2, trials=1000, seed=SEED)
    passed = violations == 0 and cont["violations"] == 0
    report(
        "criterion 5 (growth/continuity bounds)",
        passed,
        f"growth violations {violations}/{trials} points, "
        f"continuity violations {cont['violations']}/1000 pairs",
    )


def test_criterion_6_wick_calculus():
    # transform multiplicativity to 1e-11, grade-1 powers, inverse and
    # solve round trips to 1e-11
    rng = np.random.default_rng(SEED)
    worst_smult = worst_pow = worst_inv = worst_solve = 0.0
    for kind, alpha_kind, dim in [("gaussian", "id", 2), ("poisson", "log1p", 1)]:
        model = (
            GaussianModel.standard(dim)
            if kind == "gaussian"
            else PoissonModel(tuple(1.0 for _ in range(dim)))
        )
        alpha = identity_vjet(dim, 5) if alpha_kind == "id" else log1p_vjet(dim, 5)
        basis = AppellBasis(model, alpha, degree=5)
        Phi = q_seq(basis, {n: random_tensor(rng, dim, n) for n in range(6)})
        Psi = q_seq(basis, {n: random_tensor(rng, dim, n) for n in range(6)})
        lhs = s_transform(basis, wick.wick_mul(Phi, Psi))
        rhs = jet_mul(s_transform(basis, Phi), s_transform(basis, Psi))
        worst_smult = max(
            worst_smult,
            max((lhs.kernels[n] - rhs.kernels[n]).max_abs() for n in range(6)),
        )
        xi = rng.standard_normal(dim)
        powed = wick.wick_pow(q_seq(basis, {1: vector_tensor(xi)}), 4)
        worst_pow = max(worst_pow, (powed.kernels[4] - power_tensor(xi, 4)).max_abs())
        kernels = dict(enumerate(Phi.kernels))
        kernels[0] = scalar_tensor(dim, 1.3)
        Phi0 = q_seq(basis, kernels)
        unit = wick.wick_unit(basis)
        inv_round = wick.wick_mul(Phi0, wick.wick_inv(Phi0))
        worst_inv = max(
            worst_inv,
            max((inv_round.kernels[n] - unit.kernels[n]).max_abs() for n in range(6)),
        )
        X = wick.wick_solve(Phi0, Psi)
        back = wick.wick_mul(Phi0, X)
        worst_solve = max(
            worst_solve,
            max((back.kernels[n] - Psi.kernels[n]).max_abs() for n in range(6)),
        )
    worst = max(worst_smult, worst_pow, worst_inv, worst_solve)
    report(
        "criterion 6 (Wick calculus)",
        worst <= 1e-11,
        f"S-mult {worst_smult:.2e}, power {worst_pow:.2e}, inverse {worst_inv:.2e}, "
        f"solve {worst_solve:.2e} (tol 1e-11)",
    )


def test_criterion_7_delta_and_shift_kernels():
    # evaluation functional and shift kernel against independent routes,
    # random test functions of degree <= N, to 1e-10
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind, alpha_kind, dim in [
        ("gaussian", "id", 1),
        ("poisson", "log1p", 1),
        ("gaussian", "log1p", 2),
        ("poisson", "id", 2),
    ]:
        model = (
            GaussianModel.standard(dim)
            if kind == "gaussian"
            else PoissonModel(tuple(1.0 for _ in range(dim)))
        )
        alpha = identity_vjet(dim, 5) if alpha_kind == "id" else log1p_vjet(dim, 5)
        basis = AppellBasis(model, alpha, degree=5)
        for _ in range(5):
            phi = p_seq(basis, {n: random_tensor(rng, dim, n) for n in range(6)})
            z = rng.standard_normal(dim)
            worst = max(
                worst,
                abs(pair(basis, delta_z(basis, z), phi) - eval_test(basis, phi, z)),
            )
            mono = to_monomial(basis, phi)
            shifted = {n: zero_tensor(dim, n) for n in range(6)}
            for m_deg in range(6):
                src = mono.kernels[m_deg]
                if src.max_abs() == 0.0:
                    continue
                for k in range(m_deg + 1):
                    shifted[k] = shifted[k] + partial_pairing(
                        src, power_tensor(-z, m_deg - k)
                    ).scale(comb(m_deg, k))
            expected = exact_expectation(basis.model, monomial_seq(dim, 5, shifted))
            worst = max(worst, abs(pair(basis, radon_nikodym(basis, z), phi) - expected))
    report(
        "criterion 7 (evaluation and shift kernels)",
        worst <= 1e-10,
        f"max pairing discrepancy {worst:.2e} (tol 1e-10)",
    )


def test_criterion_8_change_of_measure():
    # pairing invariance and double transport to 1e-10 across the
    # measure/alpha grid
    (res,) = run_suite(["remeasure-transport"], seed=SEED)
    report(
        "criterion 8 (change of measure)",
        res.passed and res.max_error <= 1e-10,
        f"max transport error {res.max_error:.2e} (tol 1e-10)",
    )


def test_criterion_9_oracle_consistency():
    # exact vs sampled expectations within 4 standard errors at 1e5 samples
    # on 20 random polynomials per sampler model; quadrature route to 1e-9
    rng = np.random.default_rng(SEED)
    mc_ok = True
    worst_band = 0.0
    for model in (GaussianModel.standard(2), PoissonModel((1.0, 2.0)), DeltaModel(2)):
        for i in range(20):
            f = monomial_seq(
                2, 4, {n: random_tensor(rng, 2, n, scale=0.5) for n in range(5)}
            )
            exact = exact_expectation(model, f)
            mean, err = mc_expectation(
                model, lambda xs: eval_monomial_seq(f, xs), 100_000, seed=SEED + i
            )
            gap = abs(mean - exact)
            band = 4 * err + 1e-9
            mc_ok = mc_ok and gap <= band
            worst_band = max(worst_band, gap / band if band > 0 else 0.0)
    model1 = GaussianModel.standard(1)
    quad_err = 0.0
    for n in range(11):
        f = monomial_seq(1, n, {n: tensor_1d(n, 1.0)})
        quad_err = max(
            quad_err,
            abs(quad_1d(model1, lambda x, n=n: x**n) - exact_expectation(model1, f)),
        )
    passed = mc_ok and quad_err <= 1e-9
    report(
        "criterion 9 (oracle consistency)",
        passed,
        f"MC worst gap {worst_band:.2f} of the 4-stderr band, quadrature error "
        f"{quad_err:.2e} (tol 1e-9)",
    )


def test_every_suite_under_time_budget():
    # desk-scale requirement: each registered suite finishes within 60 s
    import time

    from appellsys.suites import list_suites

    worst_name, worst_time = "", 0.0
    for name in list_suites():
        t0 = time.time()
        (res,) = run_suite([name], seed=SEED)
        elapsed = time.time() - t0
        if elapsed > worst_time:
            worst_name, worst_time = name, elapsed
        assert elapsed < 60.0, f"suite {name} took {elapsed:.1f}s"
    report(
        "suite time budget",
        worst_time < 60.0,
        f"slowest suite {worst_name} at {worst_time:.2f}s (budget 60s each)",
    )


def test_criterion_10_determinism(tmp_path, cli_env):
    # repeated verify runs with a fixed seed produce byte-identical reports
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "appellsys.cli",
                "verify",
                "--seed",
                "31415",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    a, b = outs
    identical = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    csv_identical = all(
        (a / f.name).read_bytes() == (b / f.name).read_bytes()
        for f in sorted(a.glob("*.csv"))
    )
    report(
        "criterion 10 (determinism)",
        identical and csv_identical,
        "byte-identical JSON report and CSV tables across repeated runs",
    )
