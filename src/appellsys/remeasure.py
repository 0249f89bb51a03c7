"""Change of measure: re-express test and distribution kernels.

Two bases sharing the dimension, degree and reparametrization jet admit an
explicit transport through one weight jet, the ratio l_mut(alpha)/l_mu(alpha)
of the reparametrized transforms: test kernels are reordered through
partial contractions against its kernels, and distribution kernels are
multiplied by it, so that every dual pairing is preserved.  Changing the
reparametrization itself for a fixed measure goes through the scalar
transform.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    P_TAG,
    Q_TAG,
    _check_grade,
    _factorials,
    binomial_contract,
    gen_appell_batch,
    p_seq,
    q_seq,
    s_inverse,
    s_transform,
)
from .jets import ScalarJet, _frozen, _graded_plan, _row_tensors, _stack, graded_product, graded_rows, jet_mul

__all__ = [
    "p_relation",
    "reorder_test",
    "transport_dist",
    "change_alpha_dist",
]


def _require_shared_alpha(a: AppellBasis, b: AppellBasis) -> None:
    if a.dim != b.dim or a.degree != b.degree:
        raise BasisMismatchError("bases must share dimension and degree")
    if not a.same_alpha(b):
        raise BasisMismatchError(
            "bases use different reparametrizations; change alpha first "
            "(change_alpha_dist) and then transport the measure"
        )


def _ratio_jet(basis_mu: AppellBasis, basis_mut: AppellBasis) -> ScalarJet:
    """Kernels of l_mut(alpha(theta)) / l_mu(alpha(theta))."""
    return jet_mul(basis_mu.ualpha_jet, basis_mut.malpha_jet)


def p_relation(basis_mu: AppellBasis, basis_mut: AppellBasis, n: int, points) -> dict:
    """Check the cross-measure expansion of the degree-n polynomial tensor.

    The tensor of the mu system at x must equal grade n of the product of
    the mut-system generating jet at x with the ratio jet.  Returns the
    worst entry discrepancy over the points, all evaluated in one batch per
    basis.
    """
    _require_shared_alpha(basis_mu, basis_mut)
    _check_grade(basis_mu, n)
    points = list(points)
    zs = np.asarray(points, dtype=float) if points else np.empty((0, basis_mu.dim))
    ratio = _ratio_jet(basis_mu, basis_mut)._view()[0]
    lhs = gen_appell_batch(basis_mu, zs)[n]
    rhs = graded_rows(basis_mu.dim, [n], np.concatenate(gen_appell_batch(basis_mut, zs), axis=1), ratio, comb)
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    return {"n": n, "max_discrepancy": worst, "points": len(points)}


def reorder_test(basis_mu: AppellBasis, basis_mut: AppellBasis, phi: KernelSeq) -> KernelSeq:
    """Rewrite a test function from the mu basis into the mut basis.

    Grade n gains contractions of the higher mu-kernels against the ratio
    jet; pointwise values are unchanged.
    """
    if phi.tag != P_TAG:
        raise ValueError("reorder_test expects a P-tagged sequence")
    if not basis_mu.same_basis(phi.basis):
        raise BasisMismatchError("phi does not live in the source basis")
    _require_shared_alpha(basis_mu, basis_mut)
    out = binomial_contract(phi.kernels, _ratio_jet(basis_mu, basis_mut).kernels)
    return p_seq(basis_mut, dict(enumerate(out)))


def transport_dist(
    basis_mut: AppellBasis, basis_mu: AppellBasis, Phi_t: KernelSeq
) -> KernelSeq:
    """Carry a distribution from the mut basis to the mu basis.

    The defining contract: pairing the transported kernels against any test
    function in the mu basis equals pairing the original against the
    reordered test function in the mut basis.
    """
    if Phi_t.tag != Q_TAG:
        raise ValueError("transport_dist expects a Q-tagged sequence")
    if not basis_mut.same_basis(Phi_t.basis):
        raise BasisMismatchError("distribution does not live in the source basis")
    _require_shared_alpha(basis_mu, basis_mut)
    dim, grades = basis_mu.dim, tuple(range(basis_mu.degree + 1))
    ratio = _ratio_jet(basis_mu, basis_mut)._view()[0] * (1.0 / _factorials(dim, basis_mu.degree))
    starts = _graded_plan(dim, grades).starts
    out = graded_product(dim, grades, _frozen(_stack(Phi_t.kernels), starts), _frozen(ratio, starts), lambda n, k: 1)
    return q_seq(basis_mu, dict(enumerate(_row_tensors(dim, grades, out))))


def change_alpha_dist(
    basis_src: AppellBasis, basis_dst: AppellBasis, Phi: KernelSeq
) -> KernelSeq:
    """Re-express a distribution under a different reparametrization of the
    same measure, matching scalar transforms."""
    if Phi.tag != Q_TAG:
        raise ValueError("change_alpha_dist expects a Q-tagged sequence")
    if basis_src.model != basis_dst.model:
        raise BasisMismatchError(
            "alpha change keeps the measure fixed; use transport_dist for measure changes"
        )
    if basis_src.degree != basis_dst.degree:
        raise BasisMismatchError("bases must share the degree")
    return s_inverse(basis_dst, s_transform(basis_src, Phi))
