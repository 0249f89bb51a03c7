"""Wick calculus on distribution kernel sequences.

The Wick product is the graded symmetric convolution of distribution
kernels; under the scalar transform it becomes ordinary multiplication of
jets, which is what every consistency check here leans on.  Powers, analytic
functions given by Taylor coefficients, and the inverse are built from it.
"""

from __future__ import annotations

import numpy as np

from .appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    Q_TAG,
    dist_norm,
    q_seq,
)
from .jets import graded_product, graded_solve
from .symtensor import random_tensor, scalar_tensor

__all__ = [
    "wick_mul",
    "wick_pow",
    "wick_fn",
    "wick_inv",
    "wick_solve",
    "wick_unit",
    "wick_norm_check",
]


def _require_q(x: KernelSeq) -> None:
    if x.tag != Q_TAG:
        raise ValueError("Wick calculus operates on Q-tagged sequences")


def _same_basis(a: KernelSeq, b: KernelSeq) -> AppellBasis:
    _require_q(a)
    _require_q(b)
    if not a.basis.same_basis(b.basis):
        raise BasisMismatchError("Wick operands live in different bases")
    return a.basis


def wick_unit(basis: AppellBasis) -> KernelSeq:
    return q_seq(basis, {0: scalar_tensor(basis.dim, 1.0)})


def wick_mul(Phi: KernelSeq, Psi: KernelSeq) -> KernelSeq:
    """Graded convolution: grade n collects Phi^(k) sym Psi^(n-k)."""
    basis = _same_basis(Phi, Psi)
    out = graded_product(Phi.kernels, Psi.kernels, range(basis.degree + 1), lambda n, k: 1)
    return q_seq(basis, dict(enumerate(out)))


def wick_pow(Phi: KernelSeq, n: int) -> KernelSeq:
    if n < 0:
        raise ValueError("power must be non-negative")
    _require_q(Phi)
    out = wick_unit(Phi.basis)
    for _ in range(n):
        out = wick_mul(out, Phi)
    return out


def wick_fn(coeffs, Phi: KernelSeq) -> KernelSeq:
    """Apply an analytic function with Taylor coefficients a_k at the mean.

    The expansion point is the grade-0 kernel of Phi (its expectation); the
    result is sum_k a_k (Phi - mean)^{wick k}, truncated at the degree.
    """
    _require_q(Phi)
    basis = Phi.basis
    centered_kernels = dict(enumerate(Phi.kernels))
    centered_kernels[0] = scalar_tensor(basis.dim, 0.0)
    centered = q_seq(basis, centered_kernels)
    coeffs = list(coeffs)
    acc = q_seq(basis, {0: scalar_tensor(basis.dim, float(coeffs[0]) if coeffs else 0.0)})
    power = wick_unit(basis)
    for k in range(1, min(len(coeffs), basis.degree + 1)):
        power = wick_mul(power, centered)
        if coeffs[k]:
            acc = _axpy(acc, float(coeffs[k]), power)
    return acc


def _axpy(acc: KernelSeq, a: float, x: KernelSeq) -> KernelSeq:
    out = {n: acc.kernels[n] + x.kernels[n].scale(a) for n in range(acc.degree + 1)}
    return q_seq(acc.basis, out)


def wick_inv(Phi: KernelSeq) -> KernelSeq:
    """Wick reciprocal; requires a nonzero expectation (grade-0 kernel)."""
    _require_q(Phi)
    basis = Phi.basis
    c0 = Phi.kernels[0].item()
    if c0 == 0.0:
        raise ValueError("Wick inverse needs a nonzero grade-0 kernel (expectation)")
    inv = graded_solve(Phi.kernels, scalar_tensor(basis.dim, 1.0 / c0), -1.0 / c0, lambda n, k: 1)
    return q_seq(basis, dict(enumerate(inv)))


def wick_solve(Phi: KernelSeq, Psi: KernelSeq) -> KernelSeq:
    """Solve Phi wick X = Psi for X."""
    _same_basis(Phi, Psi)
    return wick_mul(wick_inv(Phi), Psi)


def wick_norm_check(
    basis: AppellBasis,
    p1: float,
    q1: float,
    p2: float,
    q2: float,
    trials: int,
    seed: int = 0,
) -> dict:
    """Randomized continuity sweep for the Wick product.

    Checks the product norm at p = max(p1, p2), q = q1 + q2 + 1 against the
    factor norms on every trial; reports the worst observed quotient.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = max(p1, p2)
    q = q1 + q2 + 1
    violations = 0
    worst = 0.0
    for _ in range(trials):
        Phi = q_seq(
            basis,
            {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)},
        )
        Psi = q_seq(
            basis,
            {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)},
        )
        lhs = dist_norm(basis, wick_mul(Phi, Psi), p, q)
        rhs = dist_norm(basis, Phi, p1, q1) * dist_norm(basis, Psi, p2, q2)
        quotient = lhs / rhs if rhs > 0 else 0.0
        worst = max(worst, quotient)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    return {
        "p": p,
        "q": q,
        "trials": trials,
        "violations": violations,
        "max_quotient": worst,
        "passed": violations == 0,
    }
