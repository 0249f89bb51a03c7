"""Wick calculus on distribution kernel sequences.

The Wick product is the graded symmetric convolution of distribution
kernels; under the scalar transform it becomes ordinary multiplication of
jets, which is what every consistency check here leans on.  Powers, analytic
functions given by Taylor coefficients, and the inverse are built from it.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    Q_TAG,
    _check_trials,
    _dist_norm_rows,
    q_seq,
)
from .jets import _starts, graded_product, graded_rows, graded_solve_view, unit_weight
from .symtensor import _reject_text, scalar_tensor

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
    out = graded_product(basis.dim, range(basis.degree + 1), Phi._view(), Psi._view(), unit_weight)
    return KernelSeq._from_view(Q_TAG, basis.dim, basis.degree, out, basis)


def wick_pow(Phi: KernelSeq, n: int) -> KernelSeq:
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise TypeError(f"power must be an integer, got {n!r}")
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
    result is sum_k a_k (Phi - mean)^{wick k}, truncated at the degree, the
    terms of nonzero a_k added in k order from +0.0.  A coefficient given as
    text raises TypeError, as it does in a SymTensor.
    """
    _require_q(Phi)
    basis = Phi.basis
    centered = KernelSeq._from_view(Q_TAG, basis.dim, basis.degree, np.append(0.0, Phi._view()[1:]), basis)
    coeffs = list(coeffs)
    _reject_text(enumerate(coeffs))
    a = [float(c) for c in coeffs[: basis.degree + 1]]
    powers = [wick_unit(basis)]
    for _ in a[1:]:
        powers.append(wick_mul(powers[-1], centered))
    with np.errstate(over="ignore", invalid="ignore"):
        out = sum((ak * p._view() for ak, p in zip(a, powers) if ak), np.zeros_like(centered._view()))
    return KernelSeq._from_view(Q_TAG, basis.dim, basis.degree, out, basis)


def wick_inv(Phi: KernelSeq) -> KernelSeq:
    """Wick reciprocal; requires a nonzero expectation (grade-0 kernel).

    h_0 = 1/c0 and h_n = -(1/c0) sum_{k=1..n} Phi_k wick h_{n-k}, solved
    grade by grade on the view of Phi by graded_solve_view.
    """
    _require_q(Phi)
    basis = Phi.basis
    x = Phi._view()
    c0 = x.item(0)
    if c0 == 0.0:
        raise ValueError("Wick inverse needs a nonzero grade-0 kernel (expectation)")
    inv = graded_solve_view(basis.dim, basis.degree, x, 1.0 / c0, -1.0 / c0, unit_weight)
    return KernelSeq._from_view(Q_TAG, basis.dim, basis.degree, inv, basis)


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
    factor norms on every trial; reports the worst observed quotient.  Each
    trial draws the standard normal kernels of grades 0..N of Phi, then of
    Psi, in multi_indices order, as random_tensor does; all trials are drawn
    at once and multiplied and normed as one stack of rows.  A trials count
    below 1 raises ValueError.
    """
    _check_trials(trials)
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = max(p1, p2)
    q = q1 + q2 + 1
    grades = range(basis.degree + 1)
    size = _starts(basis.dim, basis.degree).item(-1)
    draws = rng.standard_normal(trials * 2 * size).reshape(trials, 2, size)
    Phi, Psi = draws[:, 0], draws[:, 1]
    product = graded_rows(basis.dim, grades, Phi, Psi, unit_weight)
    products = _dist_norm_rows(basis, product, p, q).tolist()
    factors = (_dist_norm_rows(basis, Phi, p1, q1) * _dist_norm_rows(basis, Psi, p2, q2)).tolist()
    violations = 0
    worst = 0.0
    for lhs, rhs in zip(products, factors):
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
