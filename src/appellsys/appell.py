"""The biorthogonal system attached to a measure and a reparametrization.

An AppellBasis fixes a measure model, an invertible vector jet alpha with
alpha(0) = 0, and a truncation degree N.  From the moment jet l(theta) it
holds the ingredients the downstream operations read:

* m_jet      -- moment tensors of the measure,
* malpha_jet -- moment tensors of the reparametrized transform l(alpha(.)),
* u_jet      -- kernels of 1/l, i.e. the polynomial system constants at 0,
* ualpha_jet -- kernels of 1/l(alpha(.)), the generalized constants at 0,
* A, B       -- power kernels of alpha and of its inverse (B on first read),
* u_plan, m_plan -- binomial_contract against u_jet and m_jet, compiled
  on first read; to_monomial and to_appell apply them,
* pair_plans -- the transport of each partner basis, keyed weakly on it
  and filled by the remeasure module.

The polynomial (test) side P and the distribution side Q are represented
as graded kernel sequences tagged with their basis; pairing, basis
conversion, evaluation functionals, shift kernels and the graded norms all
operate on these sequences.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, exp, factorial, inf, sqrt
from numbers import Integral
from types import SimpleNamespace
from weakref import WeakKeyDictionary

import numpy as np

from .jets import (
    ScalarJet,
    VectorJet,
    _Graded,
    _cell_sums,
    _check_compatible,
    _check_rows,
    _factorials,
    _live,
    _merge_terms,
    _row_tensors,
    _stack,
    _starts,
    comp_kernels,
    graded_rows,
    identity_vjet,
    jet_compose_scalar,
    jet_exp,
    jet_invert,
    jet_mul,
    jet_recip,
    linear_jet,
)
from .measures import MeasureModel, moment_kernels
from .symtensor import (
    DimensionMismatchError,
    HilbertScale,
    SymTensor,
    _by_blocks,
    _multiplicities,
    eval_power_batch,
    is_live,
    multi_indices,
    norm_rows,
    pairing,
    partial_pairing,
    tensor_norm,
    vector_tensor,
    weighted_sum,
    zero_tensor,
)

__all__ = [
    "AppellBasis",
    "KernelSeq",
    "BasisMismatchError",
    "MONOMIAL",
    "P_TAG",
    "Q_TAG",
    "monomial_seq",
    "p_seq",
    "q_seq",
    "appell_constants",
    "appell_eval",
    "gen_appell_all",
    "gen_appell_batch",
    "delta_appell_eval",
    "to_monomial",
    "to_appell",
    "diff_op",
    "g_nabla_apply",
    "q_kernel_make",
    "s_transform",
    "s_inverse",
    "pair",
    "eval_test",
    "eval_monomial_seq",
    "delta_z",
    "radon_nikodym",
    "convolution",
    "test_norm",
    "dist_norm",
    "estimate_sigma_eps",
    "growth_bound_check",
    "generating_jet",
]

MONOMIAL = "monomial"
P_TAG = "P"
Q_TAG = "Q"


class BasisMismatchError(ValueError):
    pass


class AppellBasis:
    """Context for one (measure, alpha, dimension, degree) choice.

    B, u_plan, m_plan, pair_plans and alpha_is_identity are computed on
    first read and then fixed, but for the entries pair_plans gains; all
    operations below are pure functions of the basis and their arguments.
    """

    B = cached_property(lambda self: comp_kernels(self.g_alpha))
    u_plan = cached_property(lambda self: _contract_plan(self.u_jet))
    m_plan = cached_property(lambda self: _contract_plan(self.m_jet))
    pair_plans = cached_property(lambda self: WeakKeyDictionary())
    alpha_is_identity = cached_property(lambda self: self.alpha == identity_vjet(self.dim, self.degree))

    def __init__(
        self,
        model: MeasureModel,
        alpha: VectorJet | None = None,
        degree: int = 4,
        scale: HilbertScale | None = None,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if alpha is None:
            alpha = identity_vjet(model.dim, degree)
        if alpha.dim != model.dim or alpha.degree != degree:
            raise ValueError("alpha must share the model dimension and the degree")
        self.model = model
        self.alpha = alpha
        self.dim = model.dim
        self.degree = degree
        self.scale = scale if scale is not None else HilbertScale(model.dim)
        self.m_jet = moment_kernels(model, degree)
        self.A = comp_kernels(alpha)
        self.g_alpha = jet_invert(alpha, self.A)
        self.malpha_jet = jet_compose_scalar(self.m_jet, alpha, self.A)
        self.u_jet = jet_recip(self.m_jet)
        self.ualpha_jet = jet_recip(self.malpha_jet)

    def same_basis(self, other: "AppellBasis") -> bool:
        return self.model == other.model and self.same_alpha(other)

    def same_alpha(self, other: "AppellBasis") -> bool:
        return self.alpha == other.alpha and self.degree == other.degree


class KernelSeq(_Graded):
    """Graded kernels in a tagged basis; P/monomial are test functions, Q distributions."""

    __slots__ = ("tag", "basis")
    _fields = ("tag", "dim", "degree", "kernels", "basis")
    _count_error, _shape_error = "need one kernel per grade 0..N", "grade-{} kernel has wrong shape"

    def __init__(
        self, tag: str, dim: int, degree: int, kernels: tuple[SymTensor, ...], basis: AppellBasis | None = None
    ) -> None:
        if tag not in (MONOMIAL, P_TAG, Q_TAG):
            raise ValueError(f"unknown basis tag {tag!r}")
        if tag != MONOMIAL and basis is None:
            raise ValueError(f"{tag}-tagged sequences need an AppellBasis")
        if basis is not None and (basis.dim, basis.degree) != (dim, degree):
            raise ValueError(f"sequence has (dim, degree) {(dim, degree)}, its basis {(basis.dim, basis.degree)}")
        self._hold(kernels, tag=tag, dim=dim, degree=degree, basis=basis)

    @classmethod
    def _from_view(cls, tag: str, dim: int, degree: int, x: np.ndarray, basis: AppellBasis | None = None):
        """The sequence whose view is x, made read-only; the fields must fit together."""
        return object.__new__(cls)._hold(None, x, tag=tag, dim=dim, degree=degree, basis=basis)

    def max_grade(self) -> int:
        return max((n for n, live in enumerate(_live(self._view(), self.dim, self.degree)) if live), default=0)


def _filled(dim: int, degree: int, entries: dict[int, SymTensor]) -> tuple[SymTensor, ...]:
    over = [n for n in entries if n > degree]
    if over:
        raise ValueError(f"grade {max(over)} exceeds truncation degree {degree}")
    if any(n < 0 for n in entries):
        raise ValueError(f"grade {min(entries)} is negative")
    return tuple(entries[n] if n in entries else zero_tensor(dim, n) for n in range(degree + 1))


def monomial_seq(dim: int, degree: int, entries: dict[int, SymTensor]) -> KernelSeq:
    return KernelSeq(MONOMIAL, dim, degree, _filled(dim, degree, entries))


def p_seq(basis: AppellBasis, entries: dict[int, SymTensor]) -> KernelSeq:
    return KernelSeq(P_TAG, basis.dim, basis.degree, _filled(basis.dim, basis.degree, entries), basis)


def q_seq(basis: AppellBasis, entries: dict[int, SymTensor]) -> KernelSeq:
    return KernelSeq(Q_TAG, basis.dim, basis.degree, _filled(basis.dim, basis.degree, entries), basis)


def _require_tag(f: KernelSeq, tag: str) -> None:
    if f.tag != tag:
        raise ValueError(f"expected a {tag}-tagged sequence, got {f.tag}")


def _require_same_basis(a: AppellBasis, b: AppellBasis | None) -> None:
    if b is None or not a.same_basis(b):
        raise BasisMismatchError(
            "kernel sequences live in different (measure, alpha) bases; "
            "convert with the remeasure module before pairing"
        )


# ---------------------------------------------------------------------------
# polynomial side


def appell_constants(basis: AppellBasis) -> list[SymTensor]:
    """The value-at-zero tensors of the plain (alpha = id) polynomial system."""
    return list(basis.u_jet.kernels)


@lru_cache(maxsize=None)
def _power_plan(dim: int, top: int) -> np.ndarray:
    """The factors of the columns of z^{tensor k}, k = 0..top, stacked as a
    jet's view: row j lists the coordinates of column j's index, 1-based,
    after enough 0s, which read 1.0, to fill max(top, 1) places."""
    width = max(top, 1)
    keys = [idx for k in range(top + 1) for idx in multi_indices(dim, k)]
    return np.array([(0,) * (width - len(idx)) + idx for idx in keys], dtype=np.intp)


def _power_rows(dim: int, zs: np.ndarray, top: int) -> np.ndarray:
    """z^{tensor k}, k = 0..top, at each row z of zs, grade after grade: each
    column is its prefix column times the last factor, as power_tensor
    multiplies.  A non-finite power raises as SymTensor does, at the first
    row that holds one, with no warning."""
    factors = _power_plan(dim, top)

    def products(zs):
        table = np.concatenate([np.ones((len(zs), 1)), zs], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.multiply.accumulate(table[:, factors], axis=-1)[..., -1]

    powers = _by_blocks(factors.size, products, zs)
    _check_rows(dim, range(top + 1), powers)
    return powers


def _plain_rows(basis: AppellBasis, zs: np.ndarray, grades) -> np.ndarray:
    """The given grades of the plain tensors at each row z of zs, the
    kernels of exp<z, theta> / l(theta), one row of columns per point:
    binomial sums of z-powers against the constants at zero.  A non-finite
    power raises before the sums, then a non-finite sum."""
    grades = tuple(grades)
    powers = _power_rows(basis.dim, zs, max(grades))
    values = graded_rows(basis.dim, grades, powers, basis.u_jet._view(), comb)
    _check_rows(basis.dim, grades, values)
    return values


def _point(basis: AppellBasis, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (basis.dim,):
        raise DimensionMismatchError(f"z has shape {z.shape}, basis has dim {basis.dim}")
    return z


def _check_grade(basis: AppellBasis, n: int) -> None:
    if n > basis.degree:
        raise ValueError(f"grade {n} exceeds truncation degree {basis.degree}")
    if n < 0:
        raise ValueError(f"grade {n} is negative")


def appell_eval(basis: AppellBasis, n: int, z) -> SymTensor:
    """Rank-n tensor of the plain system at z."""
    _check_grade(basis, n)
    return _row_tensors(basis.dim, [n], _plain_rows(basis, _point(basis, z)[None], [n])[0])[0]


def gen_appell_batch(basis: AppellBasis, zs) -> list[np.ndarray]:
    """The generalized tensors at each row of zs, for n = 0..N.

    zs has shape (count, dim).  Grade n is a (count, C(dim+n-1, n)) array
    whose row k holds the coefficients of the tensor at row k of zs in
    multi_indices order: the plain tensors of every grade go through one
    composition with the power kernels of alpha, for all rows.  A
    non-finite entry raises ValueError as SymTensor does, at the first row
    that holds one.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != basis.dim:
        raise DimensionMismatchError(f"points have shape {zs.shape}, basis has dim {basis.dim}")
    return np.split(_generalized_rows(basis, zs), _starts(basis.dim, basis.degree)[1:-1], axis=1)


def _generalized_rows(basis: AppellBasis, zs: np.ndarray) -> np.ndarray:
    """gen_appell_batch's grades at each row of zs, grade after grade, with
    grade 0 one, checked."""
    values = basis.A.compose_stack(_plain_rows(basis, zs, range(basis.degree + 1)))
    values[:, 0] = 1.0
    _check_rows(basis.dim, range(basis.degree + 1), values)
    return values


def gen_appell_all(basis: AppellBasis, z) -> list[SymTensor]:
    """The generalized tensors at z for n = 0..N: row 0 of gen_appell_batch
    at [z], as tensors.  Grade n reduces to appell_eval when alpha is the
    identity.
    """
    row = _generalized_rows(basis, _point(basis, z)[None])[0]
    return _row_tensors(basis.dim, range(basis.degree + 1), row)


def delta_appell_eval(basis: AppellBasis, n: int, w) -> SymTensor:
    """Rank-n tensor of the point-mass system at w (kernels of exp<w, alpha(.)>)."""
    _check_grade(basis, n)
    w = np.asarray(w, dtype=float)
    if w.shape != (basis.dim,):
        raise DimensionMismatchError(f"w has shape {w.shape}, basis has dim {basis.dim}")
    powers = _power_rows(basis.dim, w[None], n)[0]
    return _row_tensors(basis.dim, [n], basis.A.compose_stack(powers, n))[0]


def generating_jet(basis: AppellBasis, z) -> ScalarJet:
    """Jet of exp<z, alpha(theta)> / l(alpha(theta)); kernel n is the
    generalized tensor at z.  Used as the independent route in tests."""
    lin = linear_jet(basis.dim, basis.degree, np.asarray(z, dtype=float))
    expo = jet_exp(jet_compose_scalar(lin, basis.alpha, basis.A))
    return jet_mul(expo, basis.ualpha_jet)


# ---------------------------------------------------------------------------
# basis conversion


def binomial_contract(kernels, weights) -> list[SymTensor]:
    """out_k = sum_{m>=k} C(m, k) times kernel m with weight kernel m-k
    contracted into its last m-k slots, over live kernels and weights.

    With the weights u_jet it takes plain test kernels to monomial ones,
    with m_jet monomial kernels to plain ones.
    """
    live = [m for m, t in enumerate(kernels) if is_live(t)]
    w_live = [is_live(w) for w in weights]

    def terms(k):
        for m in live:
            if m >= k and w_live[m - k]:
                yield comb(m, k), partial_pairing(kernels[m], weights[m - k])

    return [weighted_sum(weights[0].dim, k, terms(k)) for k in range(len(weights))]


@lru_cache(maxsize=None)
def _contract_terms(dim: int, N: int) -> SimpleNamespace:
    """The part of _contract_plan that does not read the weights.

    The terms are jet_mul's, from _merge_terms: term (u_i, v_j) of block
    (m, k) reads kernel k at u_i, weight m-k at v_j and kernel m at
    merge(u_i, v_j), and adds into cell (m, column of u_i).  Output column
    (k, u_i) reads cell (m, column of u_i) for m = 0..N, in out's order.
    combs[m, k] is C(m, k), 0 where m < k, and lag[m, k] is m - k.
    """
    grades, starts = np.arange(N + 1), _starts(dim, N)
    width, grade = starts[-1], np.repeat(grades, np.diff(starts))
    u_at, v_at, merge = _merge_terms(dim, N)
    return SimpleNamespace(
        grade=grade,
        v_at=v_at,
        merge=merge,
        cells=grade[merge] * width + u_at,
        mult=np.array([c for n in range(N + 1) for c in _multiplicities(dim, n)], dtype=float),
        out=np.tile(np.arange(width), N + 1),
        combs=np.array([[comb(m, k) for k in range(N + 1)] for m in range(N + 1)], dtype=float),
        lag=np.subtract.outer(grades, grades),
    )


def _contract_plan(weights: ScalarJet) -> SimpleNamespace:
    """binomial_contract(., weights.kernels) compiled for kernels 0..N read
    as one stack, as a view reads them: two bincounts, bit for bit.

    Cell (m, column of u_i) is entry u_i of the partial_pairing of kernel m
    with weight m-k: (multiplicity(v_j) * w[v_j]) * x[merge] over the
    nonzero w[v_j], in j order from +0.0; for m = k that is w_0 * x, as
    scale gives it.  Output column (k, u_i) adds C(m, k) times its cells in
    ascending m from +0.0, as weighted_sum does, with 0 in place of C(m, k)
    where weight m-k is dead or m < k.  A dead kernel, which
    binomial_contract skips, adds only +0.0 while its terms are finite.
    """
    dim, N = weights.dim, weights.degree
    terms, w = _contract_terms(dim, N), weights._view()
    keep, live = w[terms.v_at] != 0, np.array(_live(w, dim, N))
    return SimpleNamespace(
        weights=weights,
        at=terms.merge[keep],
        coef=(terms.mult * w)[terms.v_at[keep]],
        cells=terms.cells[keep],
        out=terms.out,
        combs=np.where(live[terms.lag], terms.combs, 0.0)[:, terms.grade].ravel(),
    )


def _contract_stack(plan: SimpleNamespace, x: np.ndarray) -> np.ndarray:
    """binomial_contract of the kernels stacked in x against plan's weights,
    stacked.  A non-finite sum reruns binomial_contract, which raises as it
    does, at the same index, or returns its sums if what overflowed was a
    term of a dead kernel, which it skips."""
    with np.errstate(over="ignore", invalid="ignore"):
        pp = _cell_sums(plan.cells, plan.coef * x[plan.at], plan.combs.shape)
        sums = _cell_sums(plan.out, plan.combs * pp, x.shape)
    if np.isfinite(sums).all():
        return sums
    jet = plan.weights
    return _stack(binomial_contract(_row_tensors(jet.dim, range(jet.degree + 1), x), jet.kernels))


def to_monomial(basis: AppellBasis, f: KernelSeq) -> KernelSeq:
    """Re-express a P-tagged test function in monomial kernels (same function).

    The kernels are binomial_contract's against u_jet, through basis.u_plan.
    """
    _require_tag(f, P_TAG)
    _require_same_basis(basis, f.basis)
    mono = _contract_stack(basis.u_plan, basis.A.contract_in(f._view()))
    return KernelSeq._from_view(MONOMIAL, basis.dim, basis.degree, mono)


def to_appell(basis: AppellBasis, f: KernelSeq) -> KernelSeq:
    """Inverse of to_monomial: expand monomial kernels in the P basis.

    The plain kernels, binomial_contract's against m_jet through
    basis.m_plan, stay one stack on their way into B.
    """
    _require_tag(f, MONOMIAL)
    plain = _contract_stack(basis.m_plan, f._view())
    return KernelSeq._from_view(P_TAG, basis.dim, basis.degree, basis.B.contract_in(plain), basis)


# ---------------------------------------------------------------------------
# differential operators


def diff_op(phi_n: SymTensor, f: KernelSeq) -> KernelSeq:
    """Constant-coefficient derivative of order n = rank(phi_n) on monomials.

    Grade m of f contributes m!/(m-n)! times the contraction of phi_n into
    the last n slots; grades below n are annihilated.
    """
    _require_tag(f, MONOMIAL)
    n = phi_n.rank
    out = {
        m - n: partial_pairing(f.kernels[m], phi_n).scale(factorial(m) // factorial(m - n))
        for m in range(n, f.degree + 1)
    }
    return monomial_seq(f.dim, f.degree, out)


def g_nabla_apply(basis: AppellBasis, xi, f: KernelSeq) -> KernelSeq:
    """Apply the direction-xi gradient built from the inverse jet.

    The operator is the graded sum over n of (1/n!) times the order-n
    derivative with coefficient tensor psi_n = <g^(n)(0), xi>, that is
    binomial_contract of f against psi with psi_0 = 0; it terminates on
    polynomials.  For the identity alpha it is the directional derivative.
    psi adds xi_j times the view of component j of g_alpha, in j order from
    +0.0, over the nonzero xi_j, so then f needs the basis's dim and at most
    its degree.
    """
    _require_tag(f, MONOMIAL)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (basis.dim,):
        raise DimensionMismatchError(f"xi has shape {xi.shape}, basis has dim {basis.dim}")
    if xi.any() and f.dim != basis.dim:
        raise DimensionMismatchError(f"dim mismatch: {f.dim} vs {basis.dim}")
    if xi.any() and f.degree > basis.degree:
        raise ValueError(f"degree mismatch: {f.degree} above {basis.degree}")
    width = _starts(f.dim, f.degree).item(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = sum((x * c._view()[:width] for x, c in zip(xi, basis.g_alpha.components) if x), np.zeros(width))
    psi[0] = 0.0
    out = binomial_contract(f.kernels, _row_tensors(f.dim, range(f.degree + 1), psi))
    return KernelSeq(MONOMIAL, f.dim, f.degree, tuple(out))


# ---------------------------------------------------------------------------
# distribution side


def q_kernel_make(basis: AppellBasis, phi: SymTensor) -> KernelSeq:
    """Distribution with the single grade-rank(phi) kernel phi."""
    return q_seq(basis, {phi.rank: phi})


def s_transform(basis: AppellBasis, Phi: KernelSeq) -> ScalarJet:
    """Scalar jet theta -> sum_n <Phi^(n), g_alpha(theta)^{tensor n}>.

    For the identity alpha the degree-n kernel is n! Phi^(n), matching the
    plain coefficient expansion of the transform.
    """
    _require_tag(Phi, Q_TAG)
    _require_same_basis(basis, Phi.basis)
    coeffs = Phi._view() * _factorials(basis.dim, basis.degree)
    _check_rows(basis.dim, range(basis.degree + 1), coeffs[None])
    return ScalarJet._from_view(basis.dim, basis.degree, basis.B.compose_stack(coeffs))


def s_inverse(basis: AppellBasis, jet: ScalarJet) -> KernelSeq:
    """Kernels of the distribution whose transform is the given jet."""
    if jet.dim != basis.dim or jet.degree != basis.degree:
        raise ValueError("jet shape does not match the basis")
    return _q_of_grades(basis, basis.A.compose_stack(jet._view()))


def _q_of_grades(basis: AppellBasis, row: np.ndarray) -> KernelSeq:
    """The distribution with kernel n (1/n!) times grade n of row."""
    row = row * (1.0 / _factorials(basis.dim, basis.degree))
    return KernelSeq._from_view(Q_TAG, basis.dim, basis.degree, row, basis)


def pair(basis: AppellBasis, Phi: KernelSeq, phi: KernelSeq) -> float:
    """Dual pairing sum_n n! <Phi^(n), phi^(n)> in one shared basis."""
    _require_tag(Phi, Q_TAG)
    _require_tag(phi, P_TAG)
    _require_same_basis(basis, Phi.basis)
    _require_same_basis(basis, phi.basis)
    return sum(
        factorial(n) * pairing(Phi.kernels[n], phi.kernels[n])
        for n in range(basis.degree + 1)
    )


def eval_test(basis: AppellBasis, phi: KernelSeq, z) -> float:
    """Value of the test function at z via the generalized tensors."""
    _require_tag(phi, P_TAG)
    _require_same_basis(basis, phi.basis)
    tensors = gen_appell_all(basis, z)
    return sum(
        pairing(tensors[n], phi.kernels[n])
        for n in range(basis.degree + 1)
        if is_live(phi.kernels[n])
    )


def eval_monomial_seq(f: KernelSeq, xs) -> np.ndarray:
    """The polynomial with monomial kernels f at each row of xs.

    xs has shape (count, dim); a single point z is passed as [z].  The
    result has length count.
    """
    _require_tag(f, MONOMIAL)
    return eval_power_batch(f.kernels, xs)


def delta_z(basis: AppellBasis, z) -> KernelSeq:
    """Evaluation functional at z: grade-n kernel (1/n!) times the
    generalized tensor at z; pairing against any test function of degree
    at most N returns its value at z."""
    return _q_of_grades(basis, _generalized_rows(basis, _point(basis, z)[None])[0])


def radon_nikodym(basis: AppellBasis, z) -> KernelSeq:
    """Shift kernel rho(z, .): pairing against phi integrates phi(. - z).

    Grade-n kernel is (1/n!) times the point-mass-system tensor at -z: the
    distribution whose transform is exp<-z, theta>.
    """
    powers = _power_rows(basis.dim, -_point(basis, z)[None], basis.degree)[0]
    return _q_of_grades(basis, basis.A.compose_stack(powers))


def convolution(basis: AppellBasis, phi: KernelSeq, z) -> float:
    """Convolution value at z: plain coefficient sum over z-powers.

    Defined on the identity-alpha decomposition only; equals the exact
    moment of phi(. + z) under the basis measure.
    """
    if not basis.alpha_is_identity:
        raise ValueError("convolution is defined for the identity alpha only")
    _require_tag(phi, P_TAG)
    _require_same_basis(basis, phi.basis)
    mono = KernelSeq(MONOMIAL, basis.dim, basis.degree, phi.kernels)
    return eval_monomial_seq(mono, [z]).item()


# ---------------------------------------------------------------------------
# norms and growth


def test_norm(basis: AppellBasis, phi: KernelSeq, p: float, q: float) -> float:
    """Graded test norm: sum_n (n!)^2 2^(nq) |phi^(n)|_p^2, square-rooted.
    phi must have the dim and degree of the basis."""
    _require_tag(phi, P_TAG)
    _check_compatible(basis, phi)
    s = 0.0
    for n, k in enumerate(phi.kernels):
        v = tensor_norm(k, p, basis.scale)
        s += (factorial(n) ** 2) * (2.0 ** (n * q)) * v * v
    return sqrt(s)


def dist_norm(basis: AppellBasis, Phi: KernelSeq, p: float, q: float, beta: float = 1.0) -> float:
    """Graded distribution norm with singularity parameter beta in [0, 1].

    beta = 1 recovers the default dual norm sum_n 2^(-qn) |Phi^(n)|_{-p}^2;
    smaller beta inserts the factor (n!)^(1-beta) per grade.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    _require_tag(Phi, Q_TAG)
    _check_compatible(basis, Phi)
    return _dist_norm_rows(basis, Phi._view()[None], p, q, beta).item()


def _dist_norm_rows(basis: AppellBasis, values: np.ndarray, p: float, q: float, beta: float = 1.0) -> np.ndarray:
    """dist_norm of each row of values, the kernels of grades 0..N of one
    distribution read as one vector, bit for bit: grade n adds
    (n! ** (1 - beta)) * 2^(-qn) * v * v from +0.0, v its norm |.|_{-p} by
    norm_rows, then the square root."""
    s, starts = np.zeros(len(values)), _starts(basis.dim, basis.degree).tolist()
    with np.errstate(over="ignore"):
        for n in range(basis.degree + 1):
            v = norm_rows(values[:, starts[n] : starts[n + 1]], n, -p, basis.scale)
            s = s + (factorial(n) ** (1.0 - beta)) * (2.0 ** (-q * n)) * v * v
    return np.sqrt(s)


def _sphere_samples(rng: np.random.Generator, basis: AppellBasis, p: float, radius: float, count: int) -> np.ndarray:
    """Points theta with |theta|_p = radius."""
    raw = rng.standard_normal((count, basis.dim))
    w = np.array([basis.scale.weights[i] ** p for i in range(basis.dim)])
    norms = np.sqrt(((raw * w) ** 2).sum(axis=1))
    return radius * raw / norms[:, None]


# estimate_sigma_eps tests SIGMA_SAMPLES sphere points per radius and
# refines the admissible radius SIGMA_ROUNDS times; growth sweeps draw |z| from [0, Z_RADIUS)
SIGMA_SAMPLES = 512
SIGMA_ROUNDS = 3
Z_RADIUS = 8.0


def _check_trials(trials: int) -> None:
    """Reject a trials count that is a bool or not an integer, then one
    below 1: a sweep of no point would pass having checked nothing."""
    if isinstance(trials, bool) or not isinstance(trials, Integral):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")


def _check_sweep(epsilon: float, trials: int = 1) -> None:
    """Reject an epsilon that is not positive and finite, then a trials
    count that _check_trials rejects."""
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    _check_trials(trials)


def estimate_sigma_eps(basis: AppellBasis, p: float, epsilon: float, seed: int = 0) -> float:
    """Largest sphere radius keeping |alpha(theta)|_p <= eps and the
    reparametrized transform >= 1/2, by random search with refinement.

    The returned value divides out the polarization and embedding factor
    e * ||i||_HS for the step from p to p + 1, so the resulting tensor-norm
    growth bound is honest at finite dimension.  An epsilon that is not
    positive and finite raises ValueError.
    """
    _check_sweep(epsilon)
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = np.array(basis.scale.weights)

    def admissible(sigma: float) -> bool:
        pts = _sphere_samples(rng, basis, p, sigma, SIGMA_SAMPLES)
        avals = basis.alpha.eval_batch(pts)
        anorms = np.sqrt(((avals * w**p) ** 2).sum(axis=1))
        if anorms.max() > epsilon:
            return False
        return bool(np.abs(basis.malpha_jet.eval_batch(pts)).min() >= 0.5)

    lo, hi = 0.0, epsilon
    for _ in range(SIGMA_ROUNDS):
        step = (hi - lo) / 8.0
        if step <= 1e-9 * epsilon:
            break
        sigma = lo
        for _ in range(8):
            if sigma + step > hi + 1e-15 or not admissible(sigma + step):
                break
            sigma += step
        lo, hi = sigma, min(hi, sigma + step)
    if lo <= 0:
        lo = epsilon / 1024.0
    hs = sqrt(sum(w[i] ** (-2.0) for i in range(basis.dim)))
    return lo / (np.e * hs)


def growth_bound_check(
    basis: AppellBasis,
    phi: KernelSeq,
    p: float,
    q: float,
    epsilon: float,
    trials: int,
    seed: int = 0,
) -> dict:
    """Sweep random z and compare |phi(z)| to the graded-norm envelope.

    Reports the largest observed ratio |phi(z)| / (||phi||_{p,q} e^{eps |z|})
    and the theoretical constant 2 (1 - 2^(-q) sigma^(-2))^(-1/2) when the
    latter is finite.  A trials count below 1 raises ValueError, as does
    an epsilon that estimate_sigma_eps rejects.
    """
    _check_sweep(epsilon, trials)
    sigma = estimate_sigma_eps(basis, p - 1.0, epsilon, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    norm = test_norm(basis, phi, p, q)
    mono = to_monomial(basis, phi)
    zs = np.empty((trials, basis.dim))
    for t in range(trials):
        direction = rng.standard_normal(basis.dim)
        r = rng.uniform(0.0, Z_RADIUS)
        zs[t] = r * direction / np.linalg.norm(direction)
    vals = np.abs(eval_monomial_seq(mono, zs))
    worst = 0.0
    for z, val in zip(zs, vals.tolist()):
        znorm = tensor_norm(vector_tensor(z), -(p - 1.0), basis.scale)
        ratio = val / (norm * exp(epsilon * znorm)) if norm > 0 else 0.0
        worst = max(worst, ratio)
    finite_envelope = 2.0 ** float(q) > sigma**-2.0
    c_theory = 2.0 / sqrt(1.0 - 2.0 ** (-float(q)) * sigma**-2.0) if finite_envelope else float("inf")
    return {
        "sigma_eps": sigma,
        "epsilon": epsilon,
        "max_ratio": worst,
        "c_theory": c_theory,
        "passed": bool(worst <= c_theory),
        "trials": trials,
    }
