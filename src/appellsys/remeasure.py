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

from math import factorial

from .appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    P_TAG,
    Q_TAG,
    binomial_contract,
    gen_appell_all,
    p_seq,
    q_seq,
    s_inverse,
    s_transform,
)
from .jets import ScalarJet, graded_product, jet_mul

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
    worst entry discrepancy over the points.
    """
    _require_shared_alpha(basis_mu, basis_mut)
    points = list(points)
    ratio = _ratio_jet(basis_mu, basis_mut)
    worst = 0.0
    for x in points:
        lhs = gen_appell_all(basis_mu, x)[n]
        rhs = graded_product(gen_appell_all(basis_mut, x), ratio.kernels, [n])[0]
        worst = max(worst, (lhs - rhs).max_abs())
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
    ratio = _ratio_jet(basis_mu, basis_mut)
    weights = [r.scale(1.0 / factorial(j)) for j, r in enumerate(ratio.kernels)]
    out = graded_product(Phi_t.kernels, weights, range(basis_mu.degree + 1), lambda n, k: 1)
    return q_seq(basis_mu, dict(enumerate(out)))


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
