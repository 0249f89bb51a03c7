"""Change of measure: re-express test and distribution kernels.

Two bases sharing the dimension, degree and reparametrization jet admit an
explicit transport through one weight jet, the ratio l_mut(alpha)/l_mu(alpha)
of the reparametrized transforms: test kernels are reordered through
partial contractions against its kernels, and distribution kernels are
multiplied by it, so that every dual pairing is preserved.  Each ordered
pair of bases builds its ratio and compiles the contraction once, into a
plan in the first basis's pair_plans that holds neither basis.
Changing the reparametrization itself for a fixed measure goes through the
scalar transform.
"""

from __future__ import annotations

from math import comb
from types import SimpleNamespace

import numpy as np

from .appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    P_TAG,
    Q_TAG,
    _check_grade,
    _contract_plan,
    _contract_stack,
    gen_appell_batch,
    s_inverse,
    s_transform,
)
from .jets import ScalarJet, _factorials, graded_product, graded_rows, jet_mul

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


def _pair(basis_mu: AppellBasis, basis_mut: AppellBasis) -> SimpleNamespace:
    """The pair's plan in basis_mu.pair_plans, binomial_contract against the
    ratio jet compiled, built on first use."""
    plan = basis_mu.pair_plans.get(basis_mut)
    if plan is None:
        plan = basis_mu.pair_plans[basis_mut] = _contract_plan(jet_mul(basis_mu.ualpha_jet, basis_mut.malpha_jet))
    return plan


def _ratio_jet(basis_mu: AppellBasis, basis_mut: AppellBasis) -> ScalarJet:
    """Kernels of l_mut(alpha(theta)) / l_mu(alpha(theta)), built once per pair."""
    return _pair(basis_mu, basis_mut).weights


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
    ratio = _ratio_jet(basis_mu, basis_mut)._view()
    lhs = gen_appell_batch(basis_mu, zs)[n]
    rhs = graded_rows(basis_mu.dim, [n], np.concatenate(gen_appell_batch(basis_mut, zs), axis=1), ratio, comb)
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    return {"n": n, "max_discrepancy": worst, "points": len(points)}


def reorder_test(basis_mu: AppellBasis, basis_mut: AppellBasis, phi: KernelSeq) -> KernelSeq:
    """Rewrite a test function from the mu basis into the mut basis.

    Grade n gains contractions of the higher mu-kernels against the ratio
    jet, binomial_contract's through the pair's compiled plan; pointwise
    values are unchanged.
    """
    if phi.tag != P_TAG:
        raise ValueError("reorder_test expects a P-tagged sequence")
    if not basis_mu.same_basis(phi.basis):
        raise BasisMismatchError("phi does not live in the source basis")
    _require_shared_alpha(basis_mu, basis_mut)
    out = _contract_stack(_pair(basis_mu, basis_mut), phi._view())
    return KernelSeq._from_view(P_TAG, basis_mut.dim, basis_mut.degree, out, basis_mut)


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
    ratio = _ratio_jet(basis_mu, basis_mut)._view() * (1.0 / _factorials(dim, basis_mu.degree))
    out = graded_product(dim, grades, Phi_t._view(), ratio, lambda n, k: 1)
    return KernelSeq._from_view(Q_TAG, dim, basis_mu.degree, out, basis_mu)


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
