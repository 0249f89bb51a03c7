"""The biorthogonal system attached to a measure and a reparametrization.

An AppellBasis fixes a measure model, an invertible vector jet alpha with
alpha(0) = 0, and a truncation degree N.  From the moment jet l(theta) it
caches the ingredients every downstream operation needs:

* m_jet      -- moment tensors of the measure,
* malpha_jet -- moment tensors of the reparametrized transform l(alpha(.)),
* u_jet      -- kernels of 1/l, i.e. the polynomial system constants at 0,
* ualpha_jet -- kernels of 1/l(alpha(.)), the generalized constants at 0,
* A, B       -- power kernels of alpha and of its compositional inverse.

The polynomial (test) side P and the distribution side Q are represented
as graded kernel sequences tagged with their basis; pairing, basis
conversion, evaluation functionals, shift kernels and the graded norms all
operate on these sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, factorial, sqrt

import numpy as np

from .jets import (
    CompKernels,
    ScalarJet,
    VectorJet,
    comp_kernels,
    identity_vjet,
    jet_compose_scalar,
    jet_exp,
    jet_invert,
    jet_mul,
    jet_recip,
    linear_jet,
)
from .measures import DeltaModel, MeasureModel, moment_kernels
from .symtensor import (
    HilbertScale,
    SymTensor,
    eval_power,
    pairing,
    partial_pairing,
    power_tensor,
    scalar_tensor,
    sym_product,
    tensor_norm,
    vector_tensor,
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
    "gen_appell_eval",
    "gen_appell_all",
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
    "delta_basis",
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


def _vjet_key(a: VectorJet) -> tuple:
    return tuple(
        tuple(tuple(sorted(k.coeffs.items())) for k in c.kernels) for c in a.components
    )


class AppellBasis:
    """Cached context for one (measure, alpha, dimension, degree) choice.

    Immutable after construction; all operations below are pure functions
    of the basis and their arguments.
    """

    def __init__(
        self,
        model: MeasureModel,
        alpha: VectorJet | None = None,
        degree: int = 4,
        scale: HilbertScale | None = None,
    ) -> None:
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
        self.g_alpha = jet_invert(alpha)
        self.B = comp_kernels(self.g_alpha)
        self.malpha_jet = jet_compose_scalar(self.m_jet, alpha, self.A)
        self.u_jet = jet_recip(self.m_jet)
        self.ualpha_jet = jet_recip(self.malpha_jet)
        key = _vjet_key(alpha)
        self.alpha_is_identity = key == _vjet_key(identity_vjet(self.dim, degree))
        self.signature = (model.key(), key, degree)

    def same_basis(self, other: "AppellBasis") -> bool:
        return self.signature == other.signature

    def same_alpha(self, other: "AppellBasis") -> bool:
        return self.signature[1:] == other.signature[1:]


@dataclass(frozen=True)
class KernelSeq:
    """Graded kernels in a tagged basis; P/monomial are test functions, Q distributions."""

    tag: str
    dim: int
    degree: int
    kernels: tuple[SymTensor, ...]
    basis: AppellBasis | None = None

    def __post_init__(self) -> None:
        if self.tag not in (MONOMIAL, P_TAG, Q_TAG):
            raise ValueError(f"unknown basis tag {self.tag!r}")
        if self.tag != MONOMIAL and self.basis is None:
            raise ValueError(f"{self.tag}-tagged sequences need an AppellBasis")
        if len(self.kernels) != self.degree + 1:
            raise ValueError("need one kernel per grade 0..N")
        for n, k in enumerate(self.kernels):
            if k.rank != n or k.dim != self.dim:
                raise ValueError(f"grade-{n} kernel has wrong shape")

    def kernel(self, n: int) -> SymTensor:
        return self.kernels[n]

    def max_grade(self) -> int:
        top = 0
        for n, k in enumerate(self.kernels):
            if k.max_abs() != 0.0:
                top = n
        return top


def _filled(dim: int, degree: int, entries: dict[int, SymTensor]) -> tuple[SymTensor, ...]:
    over = [n for n in entries if n > degree]
    if over:
        raise ValueError(f"grade {max(over)} exceeds truncation degree {degree}")
    ks = []
    for n in range(degree + 1):
        t = entries.get(n)
        ks.append(t if t is not None else zero_tensor(dim, n))
    return tuple(ks)


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


def appell_eval(basis: AppellBasis, n: int, z) -> SymTensor:
    """Rank-n tensor of the plain system at z: binomial sum of z-powers
    against the constants at zero."""
    if n > basis.degree:
        raise ValueError(f"grade {n} exceeds truncation degree {basis.degree}")
    acc = zero_tensor(basis.dim, n)
    for k in range(n + 1):
        acc = acc + sym_product(power_tensor(z, k), basis.u_jet.kernels[n - k]).scale(comb(n, k))
    return acc


def gen_appell_all(basis: AppellBasis, z) -> list[SymTensor]:
    """All generalized tensors at z for n = 0..N, sharing the plain tensors."""
    plain = [appell_eval(basis, m, z) for m in range(basis.degree + 1)]
    return [scalar_tensor(basis.dim, 1.0)] + [
        basis.A.compose(n, plain) for n in range(1, basis.degree + 1)
    ]


def gen_appell_eval(basis: AppellBasis, n: int, z) -> SymTensor:
    """Rank-n tensor of the generalized system at z.

    Contracts the plain tensors at z of grades up to n against the power
    kernels of alpha; reduces to appell_eval when alpha is the identity.
    """
    if n > basis.degree:
        raise ValueError(f"grade {n} exceeds truncation degree {basis.degree}")
    if n == 0:
        return scalar_tensor(basis.dim, 1.0)
    return basis.A.compose(n, [appell_eval(basis, m, z) for m in range(n + 1)])


def delta_appell_eval(basis: AppellBasis, n: int, w) -> SymTensor:
    """Rank-n tensor of the point-mass system at w (kernels of exp<w, alpha(.)>)."""
    if n > basis.degree:
        raise ValueError(f"grade {n} exceeds truncation degree {basis.degree}")
    return basis.A.compose(n, [power_tensor(w, m) for m in range(n + 1)])


def generating_jet(basis: AppellBasis, z) -> ScalarJet:
    """Jet of exp<z, alpha(theta)> / l(alpha(theta)); kernel n is the
    generalized tensor at z.  Used as the independent route in tests."""
    lin = linear_jet(basis.dim, basis.degree, np.asarray(z, dtype=float))
    expo = jet_exp(jet_compose_scalar(lin, basis.alpha, basis.A))
    return jet_mul(expo, basis.ualpha_jet)


# ---------------------------------------------------------------------------
# basis conversion


def _contract_inputs(ck: CompKernels, kernels) -> list[SymTensor]:
    """Test-side change of parametrization through the power kernels ck.

    Grade m is (1/m!) sum_{n>=m} of kernel n paired against the input
    slots of ck[n][m].  With ck = A it takes generalized kernels to plain
    ones, with ck = B plain kernels to generalized ones.
    """
    out = [zero_tensor(ck.dim, 0) + kernels[0]]
    for m in range(1, ck.degree + 1):
        acc = zero_tensor(ck.dim, m)
        for n in range(m, ck.degree + 1):
            acc = acc + ck.contract_in(n, m, kernels[n])
        out.append(acc.scale(1.0 / factorial(m)))
    return out


def binomial_contract(kernels, weights: ScalarJet) -> list[SymTensor]:
    """out_k = sum_{m>=k} C(m, k) times kernel m with weight kernel m-k
    contracted into its last m-k slots; zero kernels are skipped.

    With the weights u_jet it takes plain test kernels to monomial ones,
    with m_jet monomial kernels to plain ones.
    """
    N = weights.degree
    live = [m for m in range(N + 1) if kernels[m].max_abs() != 0.0]
    out = []
    for k in range(N + 1):
        acc = zero_tensor(weights.dim, k)
        for m in live:
            if m >= k:
                acc = acc + partial_pairing(kernels[m], weights.kernels[m - k]).scale(comb(m, k))
        out.append(acc)
    return out


def to_monomial(basis: AppellBasis, f: KernelSeq) -> KernelSeq:
    """Re-express a P-tagged test function in monomial kernels (same function)."""
    _require_tag(f, P_TAG)
    _require_same_basis(basis, f.basis)
    mono = binomial_contract(_contract_inputs(basis.A, f.kernels), basis.u_jet)
    return KernelSeq(MONOMIAL, basis.dim, basis.degree, tuple(mono))


def to_appell(basis: AppellBasis, f: KernelSeq) -> KernelSeq:
    """Inverse of to_monomial: expand monomial kernels in the P basis."""
    _require_tag(f, MONOMIAL)
    gen = _contract_inputs(basis.B, binomial_contract(f.kernels, basis.m_jet))
    return KernelSeq(P_TAG, basis.dim, basis.degree, tuple(gen), basis)


# ---------------------------------------------------------------------------
# differential operators


def diff_op(phi_n: SymTensor, f: KernelSeq) -> KernelSeq:
    """Constant-coefficient derivative of order n = rank(phi_n) on monomials.

    Grade m of f contributes m!/(m-n)! times the contraction of phi_n into
    the last n slots; grades below n are annihilated.
    """
    _require_tag(f, MONOMIAL)
    n = phi_n.rank
    out = {}
    for m in range(n, f.degree + 1):
        term = partial_pairing(f.kernels[m], phi_n).scale(factorial(m) // factorial(m - n))
        k = m - n
        out[k] = term if k not in out else out[k] + term
    return monomial_seq(f.dim, f.degree, out)


def g_nabla_apply(basis: AppellBasis, xi, f: KernelSeq) -> KernelSeq:
    """Apply the direction-xi gradient built from the inverse jet.

    The operator is the graded sum over n of (1/n!) times the order-n
    derivative with coefficient tensor <g^(n)(0), xi>; it terminates on
    polynomials.  For the identity alpha it is the directional derivative.
    """
    _require_tag(f, MONOMIAL)
    xi = np.asarray(xi, dtype=float)
    acc = {n: zero_tensor(f.dim, n) for n in range(f.degree + 1)}
    for n in range(1, f.degree + 1):
        psi = zero_tensor(f.dim, n)
        for j in range(1, basis.dim + 1):
            if xi[j - 1]:
                psi = psi + basis.g_alpha.kernel(n, j).scale(xi[j - 1])
        if psi.max_abs() == 0.0:
            continue
        term = diff_op(psi, f)
        for m in range(f.degree + 1):
            acc[m] = acc[m] + term.kernels[m].scale(1.0 / factorial(n))
    return monomial_seq(f.dim, f.degree, acc)


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
    coeffs = [k.scale(factorial(n)) for n, k in enumerate(Phi.kernels)]
    ks = tuple(basis.B.compose(m, coeffs) for m in range(basis.degree + 1))
    return ScalarJet(basis.dim, basis.degree, ks)


def s_inverse(basis: AppellBasis, jet: ScalarJet) -> KernelSeq:
    """Kernels of the distribution whose transform is the given jet."""
    if jet.dim != basis.dim or jet.degree != basis.degree:
        raise ValueError("jet shape does not match the basis")
    out = {
        n: basis.A.compose(n, jet.kernels).scale(1.0 / factorial(n))
        for n in range(basis.degree + 1)
    }
    return q_seq(basis, out)


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
        if phi.kernels[n].max_abs() != 0.0
    )


def eval_monomial_seq(f: KernelSeq, z) -> float:
    _require_tag(f, MONOMIAL)
    return sum(eval_power(f.kernels[n], z) for n in range(f.degree + 1))


def delta_z(basis: AppellBasis, z) -> KernelSeq:
    """Evaluation functional at z: grade-n kernel (1/n!) times the
    generalized tensor at z; pairing against any test function of degree
    at most N returns its value at z."""
    tensors = gen_appell_all(basis, z)
    out = {n: tensors[n].scale(1.0 / factorial(n)) for n in range(basis.degree + 1)}
    return q_seq(basis, out)


def radon_nikodym(basis: AppellBasis, z) -> KernelSeq:
    """Shift kernel rho(z, .): pairing against phi integrates phi(. - z).

    Grade-n kernel is (1/n!) times the point-mass-system tensor at -z: the
    distribution whose transform is exp<-z, theta>.
    """
    z = np.asarray(z, dtype=float)
    powers = tuple(power_tensor(-z, m) for m in range(basis.degree + 1))
    return s_inverse(basis, ScalarJet(basis.dim, basis.degree, powers))


def convolution(basis: AppellBasis, phi: KernelSeq, z) -> float:
    """Convolution value at z: plain coefficient sum over z-powers.

    Defined on the identity-alpha decomposition only; equals the exact
    moment of phi(. + z) under the basis measure.
    """
    if not basis.alpha_is_identity:
        raise ValueError("convolution is defined for the identity alpha only")
    _require_tag(phi, P_TAG)
    _require_same_basis(basis, phi.basis)
    return eval_monomial_seq(KernelSeq(MONOMIAL, basis.dim, basis.degree, phi.kernels), z)


# ---------------------------------------------------------------------------
# norms and growth


def test_norm(basis: AppellBasis, phi: KernelSeq, p: float, q: float) -> float:
    """Graded test norm: sum_n (n!)^2 2^(nq) |phi^(n)|_p^2, square-rooted."""
    _require_tag(phi, P_TAG)
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
    s = 0.0
    for n, k in enumerate(Phi.kernels):
        v = tensor_norm(k, -p, basis.scale)
        s += (factorial(n) ** (1.0 - beta)) * (2.0 ** (-q * n)) * v * v
    return sqrt(s)


def _sphere_samples(rng: np.random.Generator, basis: AppellBasis, p: float, radius: float, count: int) -> np.ndarray:
    """Points theta with |theta|_p = radius."""
    raw = rng.standard_normal((count, basis.dim))
    w = np.array([basis.scale.weights[i] ** p for i in range(basis.dim)])
    norms = np.sqrt(((raw * w) ** 2).sum(axis=1))
    return radius * raw / norms[:, None]


def estimate_sigma_eps(
    basis: AppellBasis,
    p: float,
    epsilon: float,
    seed: int = 0,
    samples: int = 512,
    rounds: int = 3,
) -> float:
    """Largest sphere radius keeping |alpha(theta)|_p <= eps and the
    reparametrized transform >= 1/2, by random search with refinement.

    The returned value divides out the polarization and embedding factor
    e * ||i||_HS for the step from p to p + 1, so the resulting tensor-norm
    growth bound is honest at finite dimension.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = np.array(basis.scale.weights)

    def admissible(sigma: float) -> bool:
        pts = _sphere_samples(rng, basis, p, sigma, samples)
        avals = np.stack(
            [c.eval_batch(pts) for c in basis.alpha.components], axis=1
        )
        anorms = np.sqrt(((avals * w**p) ** 2).sum(axis=1))
        if anorms.max() > epsilon:
            return False
        return bool(np.abs(basis.malpha_jet.eval_batch(pts)).min() >= 0.5)

    lo, hi = 0.0, epsilon
    for _ in range(rounds):
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
    z_radius: float = 8.0,
) -> dict:
    """Sweep random z and compare |phi(z)| to the graded-norm envelope.

    Reports the largest observed ratio |phi(z)| / (||phi||_{p,q} e^{eps |z|})
    and the theoretical constant 2 (1 - 2^(-q) sigma^(-2))^(-1/2) when the
    latter is finite.
    """
    sigma = estimate_sigma_eps(basis, p - 1.0, epsilon, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    norm = test_norm(basis, phi, p, q)
    mono = to_monomial(basis, phi)
    worst = 0.0
    for _ in range(trials):
        direction = rng.standard_normal(basis.dim)
        r = rng.uniform(0.0, z_radius)
        z = r * direction / np.linalg.norm(direction)
        znorm = tensor_norm(vector_tensor(z), -(p - 1.0), basis.scale)
        val = abs(eval_monomial_seq(mono, z))
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


def delta_basis(basis: AppellBasis) -> AppellBasis:
    """Companion basis for the point mass at zero with the same alpha."""
    return AppellBasis(DeltaModel(basis.dim), basis.alpha, basis.degree, basis.scale)
