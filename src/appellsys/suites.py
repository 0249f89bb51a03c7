"""Named verification suites with machine-readable pass/fail results.

Each suite realizes one family of identities at pinned tolerances and desk
scale (d <= 3, N <= 6 unless noted) and returns a table of rows
(n, m, value, expected, abs_error).  The registry drives both the command
line `verify` and the acceptance tests; results are deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, factorial, sqrt

import numpy as np

from . import wick
from .appell import (
    AppellBasis,
    appell_eval,
    convolution,
    delta_appell_eval,
    delta_z,
    estimate_sigma_eps,
    eval_monomial_seq,
    eval_test,
    gen_appell_all,
    gen_appell_batch,
    generating_jet,
    g_nabla_apply,
    growth_bound_check,
    monomial_seq,
    pair,
    p_seq,
    q_seq,
    radon_nikodym,
    s_transform,
    to_appell,
    to_monomial,
)
from .jets import (
    identity_vjet,
    jet_compose_vector,
    jet_exp,
    jet_invert,
    jet_log,
    jet_mul,
    jet_recip,
    log1p_vjet,
    random_vjet,
)
from .measures import (
    DeltaModel,
    GaussianModel,
    PoissonModel,
    nondegeneracy_check,
)
from .oracle import (
    charlier,
    exact_expectation,
    hermite_h,
    hermite_he_coeffs,
    mc_expectation,
    pmf_sum,
    quad_1d,
)
from .symtensor import (
    SymTensor,
    is_live,
    norm_rows,
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

__all__ = ["SuiteResult", "run_suite", "list_suites", "UnknownSuiteError"]


class UnknownSuiteError(ValueError):
    pass


def _plain(obj):
    """Coerce numpy scalars so reports serialize as plain JSON."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


@dataclass
class SuiteResult:
    name: str
    passed: bool
    tolerance: float
    max_error: float
    rows: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "max_error": float(self.max_error),
            "rows": len(self.rows),
            "details": _plain(self.details),
        }


def _result(name, tol, rows):
    max_error = max((r["abs_error"] for r in rows), default=0.0)
    return SuiteResult(name, bool(max_error <= tol), tol, float(max_error), rows)


def _row(n, m, value, expected):
    return {
        "n": n,
        "m": m,
        "value": float(value),
        "expected": float(expected),
        "abs_error": float(abs(value - expected)),
    }


def _tensor_row(n, m, got: SymTensor, expected: SymTensor):
    err = (got - expected).max_abs()
    return {
        "n": n,
        "m": m,
        "value": float(got.max_abs()),
        "expected": float(expected.max_abs()),
        "abs_error": float(err),
    }


def _tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


def _basis(kind: str, alpha_kind: str, dim: int, degree: int) -> AppellBasis:
    if kind == "gaussian":
        model = GaussianModel.standard(dim)
    elif kind == "poisson":
        model = PoissonModel(tuple(1.0 for _ in range(dim)))
    elif kind == "delta":
        model = DeltaModel(dim)
    else:
        raise ValueError(f"unknown measure kind {kind!r}")
    alpha = identity_vjet(dim, degree) if alpha_kind == "id" else log1p_vjet(dim, degree)
    return AppellBasis(model, alpha, degree=degree)


def _random_pseq(rng, basis, max_grade=None, scale=1.0):
    top = basis.degree if max_grade is None else max_grade
    return p_seq(
        basis, {n: random_tensor(rng, basis.dim, n, scale=scale) for n in range(top + 1)}
    )


def _random_qseq(rng, basis):
    return q_seq(basis, {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)})


# ---------------------------------------------------------------------------
# suite bodies


def suite_hermite_gaussian(seed: int) -> SuiteResult:
    """1D Gaussian specialization: coefficient tables, density route, quadrature."""
    N = 8
    basis = AppellBasis(GaussianModel.standard(1), degree=N)
    rows = []
    # coefficient tables of the polynomial system vs the classical recurrence
    for n in range(N + 1):
        seq = to_monomial(basis, p_seq(basis, {n: _tensor_1d(n, 1.0)}))
        coeffs = hermite_he_coeffs(n)
        for k in range(N + 1):
            got = seq.kernels[k][(1,) * k] if k > 0 else seq.kernels[0].item()
            want = coeffs[k] if k < len(coeffs) else 0.0
            rows.append(_row(n, k, got, want))
    coeff_err = max(r["abs_error"] for r in rows)

    # distribution side from the density: (-1)^n rho^(n)/rho vs scaled
    # physicists' polynomials at 50 points
    model = basis.model
    density_rows = []
    xs = np.linspace(-4.0, 4.0, 50)
    for n in range(N + 1):
        for x in xs:
            ders = model.density_derivatives(float(x), n)
            qn = (-1.0) ** n * ders[n] / model.density1d(float(x))
            expected = 2.0 ** (-n / 2.0) * hermite_h(n, float(x) / sqrt(2.0))
            density_rows.append(_row(n, float(x), qn, expected))
    density_err = max(r["abs_error"] for r in density_rows)

    # quadrature biorthogonality of the density-route distribution side
    quad_rows = []
    for n in range(7):
        for m in range(7):
            terms = list(enumerate(hermite_he_coeffs(m)))

            # ders[0] is the density bit for bit: 1.0 * 1.0 * rho
            def integrand(x, n=n, terms=terms):
                ders = model.density_derivatives(x, n)
                qn = (-1.0) ** n * ders[n] / ders[0]
                return qn * sum(c * x**k for k, c in terms)

            val = quad_1d(model, integrand)
            expected = factorial(n) if n == m else 0.0
            quad_rows.append(_row(n, m, val, expected))
    quad_err = max(r["abs_error"] for r in quad_rows)

    passed = coeff_err <= 1e-12 and density_err <= 1e-9 and quad_err <= 1e-8
    return SuiteResult(
        "hermite-gaussian",
        passed,
        1e-12,
        coeff_err,
        rows + density_rows + quad_rows,
        {
            "coefficient_error": coeff_err,
            "density_route_error": density_err,
            "quadrature_error": quad_err,
            "tolerances": {"coefficients": 1e-12, "density": 1e-9, "quadrature": 1e-8},
        },
    )


def suite_charlier_poisson(seed: int) -> SuiteResult:
    """1D Poisson specialization with the logarithmic reparametrization."""
    N = 6
    nu = 1.0
    basis = _basis("poisson", "log1p", 1, N)
    rows = []
    for x in (0.0, 0.5, 1.0, 2.0, 3.5, 5.0):
        tensors = gen_appell_all(basis, [x])
        for n in range(N + 1):
            got = tensors[n][(1,) * n] if n > 0 else tensors[0].item()
            rows.append(_row(n, x, got, charlier(n, x, nu)))
    rec_err = max(r["abs_error"] for r in rows)

    model = basis.model
    orth_rows = []
    for n in range(N + 1):
        for m in range(N + 1):
            val = pmf_sum(model, lambda k: charlier(n, k, nu) * charlier(m, k, nu))
            expected = factorial(n) * nu**n if n == m else 0.0
            orth_rows.append(_row(n, m, val, expected))
    orth_err = max(r["abs_error"] for r in orth_rows)

    passed = rec_err <= 1e-10 and orth_err <= 1e-10
    return SuiteResult(
        "charlier-poisson",
        passed,
        1e-10,
        max(rec_err, orth_err),
        rows + orth_rows,
        {"recurrence_error": rec_err, "orthogonality_error": orth_err},
    )


def _biorth_suite(kind: str, alpha_kind: str):
    def run(seed: int) -> SuiteResult:
        rng = np.random.Generator(np.random.Philox(key=seed))
        rows = []
        for dim in (1, 2):
            basis = _basis(kind, alpha_kind, dim, 5)
            xi = rng.standard_normal(dim)
            for m in range(6):
                phi_m = random_tensor(rng, dim, m)
                phi = p_seq(basis, {m: phi_m})
                mono = to_monomial(basis, phi)
                work = mono
                for n in range(6):
                    value = exact_expectation(basis.model, work)
                    expected = (
                        factorial(n) * pairing(power_tensor(xi, n), phi_m)
                        if n == m
                        else 0.0
                    )
                    rows.append(_row(n, m, value, expected))
                    work = g_nabla_apply(basis, xi, work)
        return _result(f"biorth-{kind}-{alpha_kind}", 1e-9, rows)

    return run


def suite_kernels_generating(seed: int) -> SuiteResult:
    """Polynomial tensors at z match the kernels of the normalized exponential."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    cases = [
        ("gaussian", "id", 1, 6),
        ("gaussian", "log1p", 2, 5),
        ("gaussian", "id", 3, 4),
        ("poisson", "id", 2, 5),
        ("poisson", "log1p", 1, 6),
        ("poisson", "log1p", 3, 4),
        ("delta", "log1p", 2, 5),
    ]
    for kind, alpha_kind, dim, degree in cases:
        basis = _basis(kind, alpha_kind, dim, degree)
        for _ in range(3):
            z = rng.standard_normal(dim)
            jet = generating_jet(basis, z)
            tensors = gen_appell_all(basis, z)
            for n in range(degree + 1):
                rows.append(_tensor_row(n, f"{kind}-{alpha_kind}-d{dim}", tensors[n], jet.kernels[n]))
    return _result("kernels-generating", 1e-10, rows)


def suite_structure_plain(seed: int) -> SuiteResult:
    """Binomial translate/reconstruction identities and centered expectations."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for kind, dim in [("gaussian", 2), ("poisson", 2), ("gaussian", 1)]:
        basis = _basis(kind, "id", dim, 5)
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        for n in range(6):
            # value at x from powers against the constants
            lhs = appell_eval(basis, n, x)
            rhs = zero_tensor(dim, n)
            for k in range(n + 1):
                rhs = rhs + sym_product(power_tensor(x, k), basis.u_jet.kernels[n - k]).scale(comb(n, k))
            rows.append(_tensor_row(n, "translate", lhs, rhs))
            # monomial reconstruction from system tensors and moments
            rec = zero_tensor(dim, n)
            for k in range(n + 1):
                rec = rec + sym_product(appell_eval(basis, k, x), basis.m_jet.kernels[n - k]).scale(comb(n, k))
            rows.append(_tensor_row(n, "reconstruct", rec, power_tensor(x, n)))
            # binomial addition with plain powers of the second argument
            add = zero_tensor(dim, n)
            for k in range(n + 1):
                add = add + sym_product(appell_eval(basis, k, x), power_tensor(y, n - k)).scale(comb(n, k))
            rows.append(_tensor_row(n, "addition", appell_eval(basis, n, x + y), add))
        for m in range(1, 6):
            phi = p_seq(basis, {m: random_tensor(rng, dim, m)})
            rows.append(_row(m, "centered", exact_expectation(basis.model, to_monomial(basis, phi)), 0.0))
    return _result("structure-plain", 1e-10, rows)


def suite_structure_generalized(seed: int) -> SuiteResult:
    """Trinomial/point-mass addition laws, centered expectations, conversions."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for kind, alpha_kind, dim in [("poisson", "log1p", 2), ("gaussian", "log1p", 1), ("gaussian", "id", 2)]:
        basis = _basis(kind, alpha_kind, dim, 5)
        z = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        tensors_z = gen_appell_all(basis, z)
        tensors_w = gen_appell_all(basis, w)
        tensors_zw = gen_appell_all(basis, z + w)
        for n in range(6):
            tri = zero_tensor(dim, n)
            for k in range(n + 1):
                for l in range(n - k + 1):
                    m = n - k - l
                    coeff = factorial(n) / (factorial(k) * factorial(l) * factorial(m))
                    tri = tri + sym_product(
                        sym_product(tensors_z[k], tensors_w[l]), basis.malpha_jet.kernels[m]
                    ).scale(coeff)
            rows.append(_tensor_row(n, "trinomial", tensors_zw[n], tri))
            dd = zero_tensor(dim, n)
            for k in range(n + 1):
                dd = dd + sym_product(tensors_z[k], delta_appell_eval(basis, n - k, w)).scale(comb(n, k))
            rows.append(_tensor_row(n, "pointmass", tensors_zw[n], dd))
        for m in range(1, 6):
            phi = p_seq(basis, {m: random_tensor(rng, dim, m)})
            rows.append(_row(m, "centered", exact_expectation(basis.model, to_monomial(basis, phi)), 0.0))
        # conversion round trip
        phi = _random_pseq(rng, basis)
        back = to_appell(basis, to_monomial(basis, phi))
        for n in range(6):
            rows.append(_tensor_row(n, "roundtrip", back.kernels[n], phi.kernels[n]))
    return _result("structure-generalized", 1e-10, rows)


def suite_growth_bounds(seed: int) -> SuiteResult:
    """Tensor-norm growth of the system polynomials with the estimated radius."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    eps = 0.5
    rows = []
    details = {}
    violations = 0
    for kind, alpha_kind, dim in [("gaussian", "id", 1), ("poisson", "log1p", 1), ("gaussian", "log1p", 2)]:
        basis = _basis(kind, alpha_kind, dim, 5)
        sigma = estimate_sigma_eps(basis, 1.0, eps, seed=seed)
        details[f"sigma-{kind}-{alpha_kind}-d{dim}"] = sigma
        zs = np.empty((334, dim))
        for t in range(334):
            direction = rng.standard_normal(dim)
            zs[t] = rng.uniform(0.0, 8.0) * direction / np.linalg.norm(direction)
        znorms = norm_rows(zs, 1, -1.0, basis.scale).tolist()
        lhs = [norm_rows(t, n, -2.0, basis.scale).tolist() for n, t in enumerate(gen_appell_batch(basis, zs))]
        for t, znorm in enumerate(znorms):
            for n in range(basis.degree + 1):
                bound = 2.0 * factorial(n) * sigma ** (-n) * exp(eps * znorm)
                if lhs[n][t] > bound:
                    violations += 1
                    rows.append(_row(n, "violation", lhs[n][t], bound))
    details["violations"] = violations
    details["trials"] = 3 * 334
    ok = violations == 0
    return SuiteResult("growth-bounds", ok, 0.0, 0.0 if ok else 1.0, rows, details)


def suite_test_growth(seed: int) -> SuiteResult:
    """Pointwise growth of test functions against the graded-norm envelope."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    all_ok = True
    details = {}
    for kind, alpha_kind in [("gaussian", "id"), ("poisson", "log1p")]:
        basis = _basis(kind, alpha_kind, 1, 6)
        phi = _random_pseq(rng, basis, scale=0.5)
        report = growth_bound_check(basis, phi, 2, 8, 0.5, trials=300, seed=seed)
        details[f"{kind}-{alpha_kind}"] = report
        all_ok = all_ok and report["passed"]
        rows.append(_row(0, f"{kind}-{alpha_kind}", report["max_ratio"], 0.0))
    return SuiteResult("test-growth", all_ok, float("inf"), 0.0, rows, details)


def suite_wick_continuity(seed: int) -> SuiteResult:
    """Graded-norm continuity of the Wick product on random pairs."""
    basis = _basis("gaussian", "id", 2, 5)
    report = wick.wick_norm_check(basis, 1, 1, 2, 2, trials=1000, seed=seed)
    rows = [_row(0, "max_quotient", report["max_quotient"], 0.0)]
    return SuiteResult(
        "wick-continuity", report["passed"], 1.0, report["max_quotient"], rows, report
    )


def suite_wick_calculus(seed: int) -> SuiteResult:
    """Transform multiplicativity, grade-1 powers, inverse and solve."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for kind, alpha_kind, dim in [("gaussian", "id", 2), ("poisson", "log1p", 1)]:
        basis = _basis(kind, alpha_kind, dim, 5)
        Phi = _random_qseq(rng, basis)
        Psi = _random_qseq(rng, basis)
        lhs = s_transform(basis, wick.wick_mul(Phi, Psi))
        rhs = jet_mul(s_transform(basis, Phi), s_transform(basis, Psi))
        for n in range(6):
            rows.append(_tensor_row(n, "s-mult", lhs.kernels[n], rhs.kernels[n]))
        xi = rng.standard_normal(dim)
        unit_grade1 = q_seq(basis, {1: vector_tensor(xi)})
        powed = wick.wick_pow(unit_grade1, 4)
        for n in range(6):
            expected = power_tensor(xi, 4) if n == 4 else zero_tensor(dim, n)
            rows.append(_tensor_row(n, "grade1-power", powed.kernels[n], expected))
        kernels = dict(enumerate(Phi.kernels))
        kernels[0] = scalar_tensor(dim, 1.0 + float(rng.uniform(0.2, 1.0)))
        Phi0 = q_seq(basis, kernels)
        inv_round = wick.wick_mul(Phi0, wick.wick_inv(Phi0))
        unit = wick.wick_unit(basis)
        for n in range(6):
            rows.append(_tensor_row(n, "inv-roundtrip", inv_round.kernels[n], unit.kernels[n]))
        X = wick.wick_solve(Phi0, Psi)
        back = wick.wick_mul(Phi0, X)
        for n in range(6):
            rows.append(_tensor_row(n, "solve", back.kernels[n], Psi.kernels[n]))
    return _result("wick-calculus", 1e-11, rows)


def suite_delta_density(seed: int) -> SuiteResult:
    """Evaluation functional and shift kernel against exact moments."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for kind, alpha_kind, dim in [("gaussian", "id", 1), ("poisson", "log1p", 1), ("gaussian", "log1p", 2)]:
        basis = _basis(kind, alpha_kind, dim, 5)
        for _ in range(4):
            phi = _random_pseq(rng, basis)
            z = rng.standard_normal(dim)
            got = pair(basis, delta_z(basis, z), phi)
            rows.append(_row("delta", float(np.linalg.norm(z)), got, eval_test(basis, phi, z)))
            # shift kernel: pairing equals the exact moment of the shifted
            # argument; expand phi(x - z) by contracting shift powers into
            # the monomial kernels
            mono = to_monomial(basis, phi)
            shifted = {n: zero_tensor(dim, n) for n in range(basis.degree + 1)}
            for m_deg in range(basis.degree + 1):
                src = mono.kernels[m_deg]
                if not is_live(src):
                    continue
                for k in range(m_deg + 1):
                    shifted[k] = shifted[k] + partial_pairing(src, power_tensor(-z, m_deg - k)).scale(comb(m_deg, k))
            shifted_seq = monomial_seq(dim, basis.degree, shifted)
            expected = exact_expectation(basis.model, shifted_seq)
            got_rn = pair(basis, radon_nikodym(basis, z), phi)
            rows.append(_row("shift", float(np.linalg.norm(z)), got_rn, expected))
    return _result("delta-density", 1e-10, rows)


def suite_convolution(seed: int) -> SuiteResult:
    """Identity-basis convolution equals exact shifted moments; transform
    comparison separates the Gaussian from the Poisson case."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    from .oracle import s_transform_of_polynomial

    for kind, dim in [("gaussian", 1), ("gaussian", 2), ("poisson", 1)]:
        basis = _basis(kind, "id", dim, 5)
        phi = _random_pseq(rng, basis, max_grade=4)
        mono = to_monomial(basis, phi)
        z = rng.standard_normal(dim)
        shifted_total = 0.0
        for n in range(basis.degree + 1):
            psi = mono.kernels[n]
            if not is_live(psi):
                continue
            acc = zero_tensor(dim, n)
            for k in range(n + 1):
                acc = acc + sym_product(power_tensor(z, n - k), basis.m_jet.kernels[k]).scale(comb(n, k))
            shifted_total += pairing(acc, psi)
        rows.append(_row("conv", kind, convolution(basis, phi, z), shifted_total))
    # transform comparison on the square
    gbasis = _basis("gaussian", "id", 1, 6)
    pbasis = _basis("poisson", "id", 1, 6)
    square = monomial_seq(1, 6, {2: _tensor_1d(2, 1.0)})
    details = {}
    g_jet = s_transform_of_polynomial(gbasis.model, square, 6)
    p_jet = s_transform_of_polynomial(pbasis.model, square, 6)
    g_diff = max(
        abs(convolution(gbasis, to_appell(gbasis, square), [z]) - g_jet.eval_batch([[z]]).item())
        for z in (0.5, 1.5)
    )
    p_diff = max(
        abs(convolution(pbasis, to_appell(pbasis, square), [z]) - p_jet.eval_batch([[z]]).item())
        for z in (0.5, 1.5)
    )
    details["gaussian_transform_gap"] = g_diff
    details["poisson_transform_gap"] = p_diff
    rows.append(_row("transform-gap", "gaussian", g_diff, 0.0))
    ok = all(r["abs_error"] <= 1e-10 for r in rows) and p_diff > 1e-3
    max_err = max(r["abs_error"] for r in rows)
    return SuiteResult("convolution", ok, 1e-10, max_err, rows, details)


def suite_remeasure_transport(seed: int) -> SuiteResult:
    """Pairing invariance and double transport across measure pairs."""
    from .remeasure import reorder_test, transport_dist

    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for alpha_kind in ("id", "log1p"):
        for dim in (1, 2):
            bases = {
                "gaussian": _basis("gaussian", alpha_kind, dim, 5),
                "poisson": _basis("poisson", alpha_kind, dim, 5),
                "delta": _basis("delta", alpha_kind, dim, 5),
            }
            for src in ("gaussian", "poisson", "delta"):
                for dst in ("gaussian", "poisson"):
                    if src == dst:
                        continue
                    bsrc, bdst = bases[src], bases[dst]
                    Phi = _random_qseq(rng, bsrc)
                    phi = _random_pseq(rng, bdst)
                    lhs = pair(bdst, transport_dist(bsrc, bdst, Phi), phi)
                    rhs = pair(bsrc, Phi, reorder_test(bdst, bsrc, phi))
                    rows.append(_row(src, dst, lhs, rhs))
                    if src != "delta":
                        back = transport_dist(bdst, bsrc, transport_dist(bsrc, bdst, Phi))
                        for n in range(6):
                            rows.append(_tensor_row(n, f"{src}->{dst}->{src}", back.kernels[n], Phi.kernels[n]))
    return _result("remeasure-transport", 1e-10, rows)


def suite_oracle_consistency(seed: int) -> SuiteResult:
    """Exact expectations vs sampling and vs quadrature."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    mc_ok = True
    for model in (GaussianModel.standard(2), PoissonModel((1.0, 2.0)), DeltaModel(2)):
        for i in range(20):
            f = monomial_seq(2, 4, {n: random_tensor(rng, 2, n, scale=0.5) for n in range(5)})
            exact = exact_expectation(model, f)
            mean, err = mc_expectation(
                model, lambda xs: eval_monomial_seq(f, xs), 100_000, seed=seed + i
            )
            band = 4 * err + 1e-9
            ok = abs(mean - exact) <= band
            mc_ok = mc_ok and ok
            rows.append(
                {
                    "n": model.name,
                    "m": i,
                    "value": mean,
                    "expected": exact,
                    "abs_error": abs(mean - exact),
                    "band": band,
                }
            )
    quad_rows = []
    model1 = GaussianModel.standard(1)
    for n in range(0, 11):
        f = monomial_seq(1, n, {n: _tensor_1d(n, 1.0)})
        exact = exact_expectation(model1, f)
        val = quad_1d(model1, lambda x, n=n: x**n)
        quad_rows.append(_row(n, "quad", val, exact))
    quad_err = max(r["abs_error"] for r in quad_rows)
    passed = mc_ok and quad_err <= 1e-9
    return SuiteResult(
        "oracle-consistency",
        passed,
        1e-9,
        quad_err,
        rows + quad_rows,
        {"mc_within_band": mc_ok, "quadrature_error": quad_err},
    )


def suite_nondegeneracy(seed: int) -> SuiteResult:
    """Gram spectra of the provided models; the point mass must flag."""
    reports = {
        "gaussian": nondegeneracy_check(GaussianModel.standard(2), 3),
        "poisson": nondegeneracy_check(PoissonModel((1.0, 1.0)), 3),
        "delta": nondegeneracy_check(DeltaModel(1), 1),
    }
    rows = [
        _row(k, "min_eig", v["min_eigenvalue"], v["min_eigenvalue"])
        for k, v in reports.items()
    ]
    ok = (
        not reports["gaussian"]["degenerate"]
        and not reports["poisson"]["degenerate"]
        and reports["delta"]["degenerate"]
    )
    return SuiteResult("nondegeneracy", ok, 0.0, 0.0, rows, reports)


def suite_symtensor_algebra(seed: int) -> SuiteResult:
    """Adjointness, cross-norm and duality sweeps on random tensors."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    ok = True
    for _ in range(60):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        a = random_tensor(rng, d, m)
        b = random_tensor(rng, d, n)
        c = random_tensor(rng, d, m + n)
        lhs = pairing(sym_product(a, b), c)
        rhs = pairing(a, partial_pairing(c, b))
        denom = max(1.0, abs(lhs))
        rows.append(_row("adjoint", d, lhs / denom, rhs / denom))
        e = random_tensor(rng, d, m)
        for p in (0.0, 1.0, 2.0):
            ok = ok and tensor_norm(sym_product(a, b), p) <= tensor_norm(a, p) * tensor_norm(b, p) * (1 + 1e-12)
            ok = ok and abs(pairing(a, e)) <= tensor_norm(a, -p) * tensor_norm(e, p) * (1 + 1e-12)
    max_err = max(r["abs_error"] for r in rows)
    return SuiteResult("symtensor-algebra", ok and max_err <= 1e-12, 1e-12, max_err, rows, {})


def suite_jets_roundtrips(seed: int) -> SuiteResult:
    """Inversion, reciprocal and log/exp round trips on random jets."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for d in (1, 2, 3):
        a = random_vjet(rng, d, 5)
        g = jet_invert(a)
        back = jet_compose_vector(a, g)
        ident = identity_vjet(d, 5)
        for j in range(d):
            for n in range(1, 6):
                rows.append(
                    _tensor_row(n, f"invert-d{d}", back.components[j].kernels[n], ident.components[j].kernels[n])
                )
        ks = [scalar_tensor(d, 1.3)] + [random_tensor(rng, d, n, scale=0.4) for n in range(1, 6)]
        from .jets import ScalarJet

        f = ScalarJet(d, 5, tuple(ks))
        prod = jet_mul(f, jet_recip(f))
        unit_k = [scalar_tensor(d, 1.0)] + [zero_tensor(d, n) for n in range(1, 6)]
        for n in range(6):
            rows.append(_tensor_row(n, f"recip-d{d}", prod.kernels[n], unit_k[n]))
        lg = jet_log(f)
        back_f = jet_exp(lg)
        for n in range(6):
            rows.append(_tensor_row(n, f"logexp-d{d}", back_f.kernels[n], f.kernels[n]))
    return _result("jets-roundtrips", 1e-11, rows)


_REGISTRY = {
    "symtensor-algebra": suite_symtensor_algebra,
    "jets-roundtrips": suite_jets_roundtrips,
    "kernels-generating": suite_kernels_generating,
    "structure-plain": suite_structure_plain,
    "structure-generalized": suite_structure_generalized,
    "hermite-gaussian": suite_hermite_gaussian,
    "charlier-poisson": suite_charlier_poisson,
    "biorth-gaussian-id": _biorth_suite("gaussian", "id"),
    "biorth-gaussian-log1p": _biorth_suite("gaussian", "log1p"),
    "biorth-poisson-id": _biorth_suite("poisson", "id"),
    "biorth-poisson-log1p": _biorth_suite("poisson", "log1p"),
    "delta-density": suite_delta_density,
    "convolution": suite_convolution,
    "growth-bounds": suite_growth_bounds,
    "test-growth": suite_test_growth,
    "wick-calculus": suite_wick_calculus,
    "wick-continuity": suite_wick_continuity,
    "remeasure-transport": suite_remeasure_transport,
    "oracle-consistency": suite_oracle_consistency,
    "nondegeneracy": suite_nondegeneracy,
}


def list_suites() -> list[str]:
    return list(_REGISTRY)


def run_suite(names, seed: int = 12345) -> list[SuiteResult]:
    """Run the named suites (all when names is None/empty) with one seed."""
    if not names:
        names = list_suites()
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise UnknownSuiteError(f"unknown suite name(s): {', '.join(unknown)}")
    return [_REGISTRY[name](seed) for name in names]
