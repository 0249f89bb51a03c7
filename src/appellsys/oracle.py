"""Independent verification engines.

Exact expectations read polynomial integrals straight off the moment
tensors; Monte Carlo re-estimates them from samples; one-dimensional checks
integrate against the density with composite Gauss-Legendre panels or sum
the Poisson mass function to a vanishing tail.  Classical Hermite and
Charlier recurrences live here as reference implementations kept separate
from the kernel machinery they validate.
"""

from __future__ import annotations

from math import exp, sqrt

import numpy as np

from .appell import (
    AppellBasis,
    KernelSeq,
    MONOMIAL,
    P_TAG,
    monomial_seq,
    to_monomial,
)
from .jets import ScalarJet, jet_mul, jet_recip
from .measures import (
    GaussianModel,
    MeasureModel,
    PoissonModel,
    UnsupportedModelError,
    moment_kernels,
    sample_batch,
)
from .symtensor import (
    SymTensor,
    eval_power_batch,
    pairing,
    partial_pairing,
    sym_product,
    zero_tensor,
)

__all__ = [
    "exact_expectation",
    "exact_product_expectation",
    "poly_product",
    "mc_expectation",
    "eval_polynomial_batch",
    "quad_1d",
    "pmf_sum",
    "hermite_he",
    "hermite_h",
    "charlier",
    "hermite_he_coeffs",
    "s_transform_of_polynomial",
]


def _require_monomial(f: KernelSeq) -> None:
    if f.tag != MONOMIAL:
        raise ValueError("expected monomial kernels; convert with to_monomial first")


def exact_expectation(model: MeasureModel, f: KernelSeq) -> float:
    """Integral of a polynomial against the measure, from moment tensors."""
    _require_monomial(f)
    mjet = moment_kernels(model, f.degree)
    return sum(pairing(mjet.kernels[n], f.kernels[n]) for n in range(f.degree + 1))


def poly_product(f: KernelSeq, g: KernelSeq) -> KernelSeq:
    """Pointwise product of two polynomials in monomial kernels."""
    _require_monomial(f)
    _require_monomial(g)
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    deg = f.degree + g.degree
    out = {}
    for n in range(deg + 1):
        acc = zero_tensor(f.dim, n)
        for i in range(max(0, n - g.degree), min(n, f.degree) + 1):
            acc = acc + sym_product(f.kernels[i], g.kernels[n - i])
        out[n] = acc
    return monomial_seq(f.dim, deg, out)


def exact_product_expectation(basis: AppellBasis, phi: KernelSeq, psi: KernelSeq) -> float:
    """Exact integral of the product of two P-tagged test functions.

    Converts both to monomial kernels, multiplies them as polynomials, and
    pairs against the moment tensors up to twice the degree.
    """
    if phi.tag != P_TAG or psi.tag != P_TAG:
        raise ValueError("expected P-tagged test functions")
    prod = poly_product(to_monomial(basis, phi), to_monomial(basis, psi))
    return exact_expectation(basis.model, prod)


def eval_polynomial_batch(f: KernelSeq, xs: np.ndarray) -> np.ndarray:
    _require_monomial(f)
    out = np.zeros(xs.shape[0])
    for n in range(f.degree + 1):
        if f.kernels[n].max_abs() != 0.0:
            out += eval_power_batch(f.kernels[n], xs)
    return out


def mc_expectation(model: MeasureModel, evaluator, count: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of evaluator over model samples.

    evaluator maps an (count, dim) array to a length-count vector; results
    are deterministic for a fixed seed.
    """
    xs = sample_batch(model, count, seed)
    vals = np.asarray(evaluator(xs), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / sqrt(count)) if count > 1 else 0.0
    return mean, stderr


def quad_1d(
    model: MeasureModel,
    integrand,
    sigmas: float = 12.0,
    nodes: int = 32,
    tol: float = 1e-12,
    max_panels: int = 64,
) -> float:
    """Integrate integrand(x) * density(x) over the real line (d = 1).

    Gaussian models use composite Gauss-Legendre panels on +-sigmas standard
    deviations, doubling the panel count until two estimates agree below
    tol; Poisson models sum the mass function until the cumulative tail is
    below 1e-14.
    """
    if isinstance(model, GaussianModel):
        if model.dim != 1:
            raise UnsupportedModelError("quad_1d needs d = 1")
        s = sqrt(model.cov[0][0])
        L = sigmas * s
        x0, w0 = np.polynomial.legendre.leggauss(nodes)

        def estimate(panels: int) -> float:
            edges = np.linspace(-L, L, panels + 1)
            total = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = (a + b) / 2.0, (b - a) / 2.0
                xs = mid + half * x0
                total += half * sum(
                    w * integrand(x) * model.density1d(x) for x, w in zip(xs, w0)
                )
            return total

        panels = 4
        prev = estimate(panels)
        while panels < max_panels:
            panels *= 2
            cur = estimate(panels)
            if abs(cur - prev) < tol:
                return cur
            prev = cur
        return prev
    if isinstance(model, PoissonModel):
        return pmf_sum(model, integrand)
    raise UnsupportedModelError(f"no 1D integration route for {model.name!r}")


def pmf_sum(model: PoissonModel, f, tail: float = 1e-15) -> float:
    """Sum f(k) pmf(k) over the Poisson support (d = 1).

    Polynomial integrands grow while the mass decays factorially, so the
    stop rule watches the terms, not the remaining mass: past the bulk the
    terms fall superexponentially and a run of negligibly small ones bounds
    the tail at machine level.
    """
    if model.dim != 1:
        raise UnsupportedModelError("pmf_sum needs d = 1")
    nu = model.nu[0]
    total = 0.0
    pk = exp(-nu)
    k = 0
    small_run = 0
    while k <= 10_000:
        term = f(k) * pk
        total += term
        k += 1
        pk *= nu / k
        if k > nu + 10:
            if abs(term) <= tail * max(1.0, abs(total)):
                small_run += 1
                if small_run >= 5:
                    break
            else:
                small_run = 0
    return total


# ---------------------------------------------------------------------------
# classical reference polynomials


def hermite_he(n: int, x: float) -> float:
    """Probabilists' Hermite polynomial by the three-term recurrence."""
    prev, cur = 1.0, x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def hermite_h(n: int, x: float) -> float:
    """Physicists' Hermite polynomial by the three-term recurrence."""
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def hermite_he_coeffs(n: int) -> list[float]:
    """Monomial coefficients of the probabilists' Hermite polynomial."""
    prev, cur = [1.0], [0.0, 1.0]
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [0.0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        prev, cur = cur, nxt
    return cur


def charlier(n: int, x: float, nu: float) -> float:
    """Charlier polynomial normalized by its exponential generating function,
    via C_{k+1} = (x - k - nu) C_k - nu k C_{k-1}."""
    prev, cur = 1.0, x - nu
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, (x - k - nu) * cur - nu * k * prev
    return cur


def s_transform_of_polynomial(model: MeasureModel, f: KernelSeq, degree: int) -> ScalarJet:
    """Scalar transform of a polynomial test function as a jet.

    The numerator kernels are partial contractions of higher moment tensors
    against the monomial kernels; division by the moment jet normalizes.
    """
    _require_monomial(f)
    mjet = moment_kernels(model, degree + f.degree)
    ks = []
    for m in range(degree + 1):
        acc = zero_tensor(f.dim, m)
        for k in range(f.degree + 1):
            if f.kernels[k].max_abs() != 0.0:
                acc = acc + partial_pairing(mjet.kernels[m + k], f.kernels[k])
        ks.append(acc)
    numerator = ScalarJet(f.dim, degree, tuple(ks))
    denom = ScalarJet(f.dim, degree, tuple(mjet.kernels[: degree + 1]))
    return jet_mul(numerator, jet_recip(denom))
