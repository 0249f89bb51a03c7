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
    q_seq,
)
from .jets import _frozen, _graded_plan, _row_tensors, _stack, graded_product, graded_rows, graded_solve
from .symtensor import multi_indices, norm_rows, scalar_tensor, weighted_sum

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
    grades = tuple(range(basis.degree + 1))
    starts = _graded_plan(basis.dim, grades).starts
    x, y = (_frozen(_stack(seq.kernels), starts) for seq in (Phi, Psi))
    out = graded_product(basis.dim, grades, x, y, lambda n, k: 1)
    return q_seq(basis, dict(enumerate(_row_tensors(basis.dim, grades, out))))


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
    centered = q_seq(basis, dict(enumerate(Phi.kernels[1:], start=1)))
    a = [float(c) for c in list(coeffs)[: basis.degree + 1]]
    powers = [wick_unit(basis)]
    for _ in a[1:]:
        powers.append(wick_mul(powers[-1], centered))
    return q_seq(basis, {
        n: weighted_sum(basis.dim, n, ((ak, p.kernels[n]) for ak, p in zip(a, powers) if ak))
        for n in range(basis.degree + 1)
    })


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


def _dist_norm_rows(basis: AppellBasis, values: np.ndarray, p: float, q: float) -> np.ndarray:
    """dist_norm with beta = 1 of each row of values, the kernels of grades
    0..N of one distribution read as one vector, bit for bit: grade n adds
    2^(-qn) * v * v from +0.0, v its norm |.|_{-p} by norm_rows."""
    s, col = np.zeros(len(values)), 0
    for n in range(basis.degree + 1):
        width = len(multi_indices(basis.dim, n))
        v = norm_rows(values[:, col : col + width], n, -p, basis.scale)
        s = s + (2.0 ** (-q * n)) * v * v
        col += width
    return np.sqrt(s)


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
    at once and multiplied and normed as one stack of rows.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = max(p1, p2)
    q = q1 + q2 + 1
    grades = range(basis.degree + 1)
    size = sum(len(multi_indices(basis.dim, n)) for n in grades)
    draws = rng.standard_normal(trials * 2 * size).reshape(trials, 2, size)
    Phi, Psi = draws[:, 0], draws[:, 1]
    product = graded_rows(basis.dim, grades, Phi, Psi, lambda n, k: 1)
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
