"""Truncated power series (jets) with symmetric-tensor coefficients.

Everything is stored in exponential form: a scalar jet with kernels c_n
represents G(theta) = sum_n (1/n!) <c_n, theta^n>, a vector jet stores one
scalar jet per output coordinate with vanishing constant term.  All jets in
a computation share the truncation degree.

Composition is mediated by the power kernels of a vector jet a: the m-fold
tensor power a(theta)^{tensor m} is again a jet, with degree-n kernel
A[n][m] carrying m symmetric output slots.  These tables also drive the
compositional inverse and the basis conversions downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, factorial, log

import numpy as np

from .symtensor import (
    DimensionMismatchError,
    SymTensor,
    is_live,
    multi_indices,
    multiplicity,
    eval_power_batch,
    pairing,
    random_tensor,
    scalar_tensor,
    sym_product,
    vector_tensor,
    weighted_sum,
    zero_tensor,
)

__all__ = [
    "ScalarJet",
    "VectorJet",
    "CompKernels",
    "SingularJetError",
    "jet_mul",
    "jet_exp",
    "jet_log",
    "jet_recip",
    "jet_compose_scalar",
    "jet_compose_vector",
    "jet_invert",
    "comp_kernels",
    "constant_jet",
    "unit_jet",
    "linear_jet",
    "identity_vjet",
    "log1p_vjet",
    "expm1_vjet",
    "random_vjet",
]


class SingularJetError(ValueError):
    pass


def _check_compatible(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim mismatch: {a.dim} vs {b.dim}")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")


@dataclass(frozen=True)
class ScalarJet:
    """Degree-N scalar jet; kernels[n] is the rank-n coefficient tensor."""

    dim: int
    degree: int
    kernels: tuple[SymTensor, ...]

    def __post_init__(self) -> None:
        if len(self.kernels) != self.degree + 1:
            raise ValueError("need one kernel per degree 0..N")
        for n, k in enumerate(self.kernels):
            if k.rank != n or k.dim != self.dim:
                raise ValueError(f"kernel {n} has wrong shape")

    def kernel(self, n: int) -> SymTensor:
        return self.kernels[n]

    def constant(self) -> float:
        return self.kernels[0].item()

    def __add__(self, other: "ScalarJet") -> "ScalarJet":
        _check_compatible(self, other)
        return ScalarJet(
            self.dim,
            self.degree,
            tuple(a + b for a, b in zip(self.kernels, other.kernels)),
        )

    def __sub__(self, other: "ScalarJet") -> "ScalarJet":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "ScalarJet":
        return ScalarJet(self.dim, self.degree, tuple(k.scale(c) for k in self.kernels))

    def shift_constant(self, c: float) -> "ScalarJet":
        ks = list(self.kernels)
        ks[0] = scalar_tensor(self.dim, ks[0].item() + c)
        return ScalarJet(self.dim, self.degree, tuple(ks))

    def eval_batch(self, thetas) -> np.ndarray:
        """The truncated series at each row of thetas.

        thetas has shape (count, dim); a single point theta is passed as
        [theta].  The result has length count.
        """
        thetas = np.asarray(thetas, dtype=float)
        out = np.zeros(len(thetas))
        for n in range(self.degree + 1):
            out += eval_power_batch(self.kernels[n], thetas) / factorial(n)
        return out

    def max_abs(self) -> float:
        return max(k.max_abs() for k in self.kernels)


def constant_jet(dim: int, degree: int, c: float) -> ScalarJet:
    ks = [scalar_tensor(dim, c)] + [zero_tensor(dim, n) for n in range(1, degree + 1)]
    return ScalarJet(dim, degree, tuple(ks))


def unit_jet(dim: int, degree: int) -> ScalarJet:
    return constant_jet(dim, degree, 1.0)


def linear_jet(dim: int, degree: int, vec) -> ScalarJet:
    """The jet of theta -> <vec, theta>."""
    ks = [scalar_tensor(dim, 0.0), vector_tensor(vec)] + [
        zero_tensor(dim, n) for n in range(2, degree + 1)
    ]
    return ScalarJet(dim, degree, tuple(ks[: degree + 1]))


def graded_product(f, g, grades, weight=comb) -> list[SymTensor]:
    """The given grades of the product h_n = sum_k weight(n, k) f_k sym g_{n-k}.

    f and g are graded kernel sequences (kernel k of rank k).  Only products
    of two live kernels are formed, and a weight of 1 is not applied; a
    grade with no such product is the shared zero tensor, built once.
    """
    f_live = [is_live(k) for k in f]
    g_live = [is_live(k) for k in g]

    def terms(n):
        for k in range(n + 1):
            if f_live[k] and g_live[n - k]:
                yield weight(n, k), sym_product(f[k], g[n - k])

    return [weighted_sum(f[0].dim, n, terms(n)) for n in grades]


def graded_solve(f, h0: SymTensor, post, weight=comb) -> list[SymTensor]:
    """Kernels h_0 = h0 and h_n = post * sum_{k=1..n} weight(n, k) f_k sym h_{n-k}.

    Grade n is the graded_product of f without its constant and h_0..h_{n-1};
    with kernel 0 of the first factor dead, the product never reads h_n.
    """
    tail = [zero_tensor(h0.dim, 0), *f[1:]]
    h = [h0]
    for n in range(1, len(f)):
        acc = graded_product(tail, h, [n], weight)[0]
        h.append(acc if post == 1 else acc.scale(post))
    return h


def jet_mul(f: ScalarJet, g: ScalarJet) -> ScalarJet:
    """Product of jets: h_n = sum_k C(n,k) f_k sym g_{n-k}."""
    _check_compatible(f, g)
    ks = graded_product(f.kernels, g.kernels, range(f.degree + 1))
    return ScalarJet(f.dim, f.degree, tuple(ks))


def jet_exp(f: ScalarJet) -> ScalarJet:
    """exp of a jet via h_n = sum_{j>=1} C(n-1, j-1) f_j sym h_{n-j}."""
    h0 = scalar_tensor(f.dim, exp(f.constant()))
    h = graded_solve(f.kernels, h0, 1, lambda n, j: comb(n - 1, j - 1))
    return ScalarJet(f.dim, f.degree, tuple(h))


def jet_log(f: ScalarJet) -> ScalarJet:
    """log of a jet; requires a positive constant term."""
    c0 = f.constant()
    if c0 <= 0:
        raise SingularJetError(f"log requires a positive constant term, got {c0}")
    f_live = [is_live(k) for k in f.kernels]
    g = [scalar_tensor(f.dim, log(c0))]
    g_live = [is_live(g[0])]
    for n in range(1, f.degree + 1):
        # a skipped term would subtract an all -0.0 tensor, which changes nothing
        acc = f.kernels[n]
        for j in range(1, n):
            if g_live[j] and f_live[n - j]:
                acc = acc - sym_product(g[j], f.kernels[n - j]).scale(comb(n - 1, j - 1))
        g.append(acc.scale(1.0 / c0))
        g_live.append(is_live(g[n]))
    return ScalarJet(f.dim, f.degree, tuple(g))


def jet_recip(f: ScalarJet) -> ScalarJet:
    """Reciprocal jet: f * recip(f) is the unit jet to degree N."""
    c0 = f.constant()
    if c0 == 0:
        raise SingularJetError("reciprocal requires a nonzero constant term")
    h = graded_solve(f.kernels, scalar_tensor(f.dim, 1.0 / c0), -1.0 / c0)
    return ScalarJet(f.dim, f.degree, tuple(h))


@dataclass(frozen=True)
class VectorJet:
    """R^d-valued jet with zero constant term, one scalar jet per coordinate."""

    dim: int
    degree: int
    components: tuple[ScalarJet, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.dim:
            raise ValueError("need one component per output coordinate")
        for c in self.components:
            if c.dim != self.dim or c.degree != self.degree:
                raise ValueError("component shape mismatch")
            if c.constant() != 0.0:
                raise ValueError("vector jets must vanish at zero")

    def kernel(self, n: int, j: int) -> SymTensor:
        """Rank-n kernel of output coordinate j (1-based)."""
        return self.components[j - 1].kernels[n]

    def eval_batch(self, thetas) -> np.ndarray:
        """The jet at each row of thetas.

        thetas has shape (count, dim); a single point theta is passed as
        [theta].  Row k of the result, shape (count, dim), is the value at
        row k of thetas.
        """
        return np.stack([c.eval_batch(thetas) for c in self.components], axis=1)


def identity_vjet(dim: int, degree: int) -> VectorJet:
    comps = []
    for j in range(1, dim + 1):
        vec = [1.0 if i == j else 0.0 for i in range(1, dim + 1)]
        comps.append(linear_jet(dim, degree, vec))
    return VectorJet(dim, degree, tuple(comps))


def _diagonal_vjet(dim: int, degree: int, coeff_of_n) -> VectorJet:
    comps = []
    for j in range(1, dim + 1):
        ks = [scalar_tensor(dim, 0.0)]
        for n in range(1, degree + 1):
            t = {k: 0.0 for k in multi_indices(dim, n)}
            t[(j,) * n] = coeff_of_n(n)
            ks.append(SymTensor(dim, n, t))
        comps.append(ScalarJet(dim, degree, tuple(ks)))
    return VectorJet(dim, degree, tuple(comps))


def log1p_vjet(dim: int, degree: int) -> VectorJet:
    """Coordinatewise theta_j -> log(1 + theta_j)."""
    return _diagonal_vjet(dim, degree, lambda n: float((-1) ** (n - 1) * factorial(n - 1)))


def expm1_vjet(dim: int, degree: int) -> VectorJet:
    """Coordinatewise theta_j -> exp(theta_j) - 1, the inverse of log1p."""
    return _diagonal_vjet(dim, degree, lambda n: 1.0)


def random_vjet(
    rng: np.random.Generator, dim: int, degree: int, nonlinearity: float = 0.3
) -> VectorJet:
    """Random jet with a well-conditioned linear part and decaying higher kernels."""
    lin = np.eye(dim) + nonlinearity / max(dim, 1) * rng.standard_normal((dim, dim))
    comps = []
    for j in range(1, dim + 1):
        ks = [scalar_tensor(dim, 0.0), vector_tensor(lin[j - 1])]
        for n in range(2, degree + 1):
            ks.append(random_tensor(rng, dim, n, scale=nonlinearity**n / factorial(n)))
        comps.append(ScalarJet(dim, degree, tuple(ks)))
    return VectorJet(dim, degree, tuple(comps))


@dataclass(frozen=True)
class CompKernels:
    """Power kernels of a vector jet a: a(theta)^{tensor m} expanded in theta.

    tables[(n, m)] maps a sorted m-tuple of output coordinates to the rank-n
    input tensor.  Only live (not all-zero) kernels are stored, so entries
    with n < m, which vanish identically, are absent, and a missing entry
    or table reads as zero.
    """

    dim: int
    degree: int
    tables: dict[tuple[int, int], dict[tuple[int, ...], SymTensor]]

    def contract_out(self, n: int, m: int, coeff: SymTensor) -> SymTensor:
        """Pair a rank-m tensor against the output slots, leaving rank n."""
        if coeff.rank != m:
            raise ValueError(f"coefficient rank {coeff.rank} != output slots {m}")
        c = coeff.coeffs
        table = self.tables.get((n, m), {})
        return weighted_sum(
            self.dim, n, ((multiplicity(u) * c[u], tens) for u, tens in table.items() if c[u])
        )

    def compose(self, n: int, ks) -> SymTensor:
        """Grade n of f(a(theta)) from the kernels ks of f.

        Grade 0 is ks[0]; grade n >= 1 is sum_{m=1..n} (1/m!) times ks[m]
        paired against the output slots of the power kernels, and reads
        ks[1..n] only.  An absent table adds nothing: the sum starts at +0.0,
        so its all-zero term would change no bit.
        """
        if n == 0:
            return ks[0]
        terms = (
            (1.0 / factorial(m), self.contract_out(n, m, ks[m]))
            for m in range(1, n + 1)
            if (n, m) in self.tables
        )
        return weighted_sum(self.dim, n, terms)

    def contract_in(self, n: int, m: int, phi: SymTensor) -> SymTensor:
        """Pair a rank-n tensor against the input slots, leaving rank m (output)."""
        if phi.rank != n:
            raise ValueError(f"kernel rank {phi.rank} != input rank {n}")
        table = self.tables.get((n, m))
        out = {u: 0.0 for u in multi_indices(self.dim, m)}
        if table is not None:
            for u, tens in table.items():
                out[u] = pairing(tens, phi)
        return SymTensor(self.dim, m, out)


def comp_kernels(a: VectorJet) -> CompKernels:
    """Build the power kernels of a by iterated graded products of components.

    The degree-n kernel of the product of scalar jets a_{u_1} ... a_{u_m}
    equals the multinomial composition sum over (l_1, ..., l_m), each
    l_i >= 1; the iterated product computes it in O(N^2) tensor products.
    """
    N = a.degree
    tables: dict[tuple[int, int], dict[tuple[int, ...], SymTensor]] = {}
    prods: dict[tuple[int, ...], ScalarJet] = {}
    for m in range(1, N + 1):
        for u in multi_indices(a.dim, m):
            if m == 1:
                jet = a.components[u[0] - 1]
            else:
                jet = jet_mul(prods[u[:-1]], a.components[u[-1] - 1])
            prods[u] = jet
            for n in range(m, N + 1):
                if is_live(jet.kernels[n]):
                    tables.setdefault((n, m), {})[u] = jet.kernels[n]
    return CompKernels(a.dim, N, tables)


def jet_compose_scalar(f: ScalarJet, a: VectorJet, ck: CompKernels | None = None) -> ScalarJet:
    """Composite jet f(a(theta)); a must vanish at zero."""
    _check_compatible(f, a)
    if ck is None:
        ck = comp_kernels(a)
    ks = tuple(ck.compose(n, f.kernels) for n in range(f.degree + 1))
    return ScalarJet(f.dim, f.degree, ks)


def jet_compose_vector(a: VectorJet, b: VectorJet, ck: CompKernels | None = None) -> VectorJet:
    """Composite vector jet a(b(theta))."""
    _check_compatible(a, b)
    if ck is None:
        ck = comp_kernels(b)
    comps = tuple(jet_compose_scalar(c, b, ck) for c in a.components)
    return VectorJet(a.dim, a.degree, comps)


def linear_part(a: VectorJet) -> np.ndarray:
    """The d x d matrix of the degree-1 kernels, row j = output coordinate j."""
    mat = np.zeros((a.dim, a.dim))
    for j in range(1, a.dim + 1):
        for i in range(1, a.dim + 1):
            mat[j - 1, i - 1] = a.kernel(1, j)[(i,)]
    return mat


def jet_invert(a: VectorJet, ck: CompKernels | None = None) -> VectorJet:
    """Compositional inverse g with g(a(theta)) = theta to degree N.

    This is the left inverse; for jets with an invertible linear part L it
    is also the right inverse, a(g(theta)) = theta.  Kernel n >= 2 of g is
    solved in one pass through the power kernels ck of a: grade n of g(a)
    is ck.compose(n, g), whose only term holding g_n is g_n pulled back
    through L, so g_n is minus the rest pulled back through L^{-1}.
    """
    mat = linear_part(a)
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError as e:
        raise SingularJetError("linear part is not invertible") from e
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularJetError(f"linear part is numerically singular (cond={cond:.3g})")

    d, N = a.dim, a.degree
    if ck is None:
        ck = comp_kernels(a)
    pull = comp_kernels(VectorJet(d, N, tuple(linear_jet(d, N, row) for row in inv)))
    g_kernels = [[scalar_tensor(d, 0.0), vector_tensor(row)] for row in inv]
    for n in range(2, N + 1):
        for ks in g_kernels:
            # kernel n stays zero while compose forms the rest of grade n
            ks.append(zero_tensor(d, n))
            ks[n] = pull.contract_out(n, n, ck.compose(n, ks)).scale(-1.0 / factorial(n))
    return VectorJet(d, N, tuple(ScalarJet(d, N, tuple(ks)) for ks in g_kernels))
