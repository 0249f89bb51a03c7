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

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb, exp, factorial, log, prod
from types import SimpleNamespace

import numpy as np

from .symtensor import (
    DimensionMismatchError,
    SymTensor,
    _by_blocks,
    _multiplicities,
    _position,
    _product_arrays,
    is_live,
    multi_indices,
    multiplicity,
    eval_power_batch,
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


@dataclass(frozen=True, slots=True)
class ScalarJet:
    """Degree-N scalar jet; kernels[n] is the rank-n coefficient tensor.

    A product of jet_mul is born from its stacked view alone: its kernels
    are built from the view when first read.
    """

    dim: int
    degree: int
    kernels: tuple[SymTensor, ...]
    # the kernels stacked as by _stack, built on first use or by jet_mul
    _stacked: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.kernels) != self.degree + 1:
            raise ValueError("need one kernel per degree 0..N")
        for n, k in enumerate(self.kernels):
            if k.rank != n or k.dim != self.dim:
                raise ValueError(f"kernel {n} has wrong shape")

    @classmethod
    def _from_view(cls, dim: int, degree: int, stacked) -> "ScalarJet":
        """The jet whose view is stacked, with its kernels slot left unset."""
        jet = object.__new__(cls)
        for name, value in (("dim", dim), ("degree", degree), ("_stacked", stacked)):
            object.__setattr__(jet, name, value)
        return jet

    def __getattr__(self, name: str):
        # called only for an unset slot; that of kernels is built from the
        # view, a live grade a SymTensor and a dead one the shared zero
        if name != "kernels":
            raise AttributeError(name)
        ks = tuple(_row_tensors(self.dim, range(self.degree + 1), self._stacked[0]))
        object.__setattr__(self, "kernels", ks)
        return ks

    def _view(self) -> tuple[np.ndarray, np.ndarray]:
        """Kernels 0..N as one read-only vector in multi_indices order, and
        whether each kernel is live."""
        if self._stacked is None:
            plan = _graded_plan(self.dim, tuple(range(self.degree + 1)))
            object.__setattr__(self, "_stacked", _stack(self.kernels, plan.starts))
        return self._stacked

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


def jet_from_entries(dim: int, degree: int, entries) -> ScalarJet:
    """The jet whose kernels hold a {multi-index: value} table.

    Every other coefficient is 0.0, and an entry of rank above the degree is
    left out; SymTensor rejects an index that is not weakly increasing over
    1..dim.
    """
    tables = [dict.fromkeys(multi_indices(dim, n), 0.0) for n in range(degree + 1)]
    for idx, value in entries.items():
        if len(idx) <= degree:
            tables[len(idx)][idx] = value
    return ScalarJet(dim, degree, tuple(SymTensor(dim, n, t) for n, t in enumerate(tables)))


def _graded_terms(f, g, grades, weight) -> list[SymTensor]:
    """graded_product term by term: one sym_product per pair of live kernels.

    Only products of two live kernels are formed, and a weight of 1 is not
    applied; a grade with no such product is the shared zero tensor.
    """
    f_live = [is_live(k) for k in f]
    g_live = [is_live(k) for k in g]

    def terms(n):
        for k in range(n + 1):
            if f_live[k] and g_live[n - k]:
                yield weight(n, k), sym_product(f[k], g[n - k])

    return [weighted_sum(f[0].dim, n, terms(n)) for n in grades]


def _row_tensors(dim: int, grades, row) -> list[SymTensor]:
    """The kernels of the grades whose coefficients, grade after grade, are
    row: the shared zero where a grade is all zero, else a SymTensor, which
    raises on a non-finite entry."""
    vals, col, out = row.tolist(), 0, []
    for n in grades:
        keys = multi_indices(dim, n)
        part = vals[col : col + len(keys)]
        out.append(SymTensor(dim, n, dict(zip(keys, part))) if any(part) else zero_tensor(dim, n))
        col += len(keys)
    return out


def _check_rows(dim: int, grades, values: np.ndarray) -> None:
    """Raise as SymTensor does on the first row of values, the coefficients
    of the grades, that holds a non-finite entry."""
    if not np.isfinite(values).all():
        _row_tensors(dim, grades, values[np.isfinite(values).all(axis=1).argmin()])


def _stack(kernels, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of kernels 0, 1, ... as one vector, with whether
    each kernel is live, both read-only."""
    x = np.fromiter(chain.from_iterable([t.coeffs.values() for t in kernels]), float, starts[-1])
    return _frozen(x, starts)


def _frozen(x: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x, kernels read as one vector that starts them at starts, with
    whether each kernel is live; both made read-only."""
    live = np.logical_or.reduceat(x != 0, starts[:-1])
    x.flags.writeable = live.flags.writeable = False
    return x, live


@lru_cache(maxsize=None)
def _graded_plan(dim: int, grades: tuple[int, ...]) -> SimpleNamespace:
    """The bilinear plan of graded_product over the given grades.

    f and g are read as one vector each, kernels 0..max(grades) in turn
    (starts: where each begins; shapes: their (dim, rank)).  The columns are
    the entries of the grades, grade after grade, widths of them a grade.
    Term (u_i, v_j) of f_k sym g_{n-k} is ways * f[f_at] * g[g_at], added
    into cells, the flat index of (k, column of merge(u_i, v_j)).  The terms
    of each product come in sym_product's order, ascending in i, then in j.
    All are indexed at once from the count vectors of the multi-indices:
    ways = prod_c C(t_c, u_c) as in symtensor._product_plan, and t's
    position in multi_indices order (descending lexicographic in the counts)
    is sum_{p<dim} C(s_p + dim-p-1, dim-p), where s_p counts the entries of
    t above p.  combs holds C(n, k) at (k, column), 1 where k > n.
    """
    top = max(grades) + 1
    sizes = [len(multi_indices(dim, n)) for n in range(top)]
    start = np.cumsum([0, *sizes])
    widths = [sizes[n] for n in grades]
    column = np.cumsum([0, *widths])
    n_of, k_of = np.array([(n, k) for n in grades for k in range(n + 1)]).T
    # block (n, k) has sizes[k] * sizes[n-k] terms; its term e reads f at
    # start[k] + e // sizes[n-k] and g at start[n-k] + e % sizes[n-k]
    cols = start[n_of - k_of + 1] - start[n_of - k_of]
    terms = (start[k_of + 1] - start[k_of]) * cols
    e = np.arange(terms.sum()) - np.repeat(np.cumsum(terms) - terms, terms)
    f_at = np.repeat(start[k_of], terms) + e // np.repeat(cols, terms)
    g_at = np.repeat(start[n_of - k_of], terms) + e % np.repeat(cols, terms)
    counts = np.array(
        [[idx.count(c) for c in range(1, dim + 1)] for n in range(top) for idx in multi_indices(dim, n)]
    )
    u, t = counts[f_at], counts[f_at] + counts[g_at]
    # only C(a, b) with b < top or a - b < top is read; the rest, which can
    # outgrow int64 at large dim, stays 0
    size = top + dim
    binom = np.array([[comb(a, b) if min(b, a - b) < top else 0 for b in range(size)] for a in range(size)])
    above = np.cumsum(t[:, :0:-1], axis=1)[:, ::-1]  # s_p for p = 1..dim-1
    position = binom[above + np.arange(dim - 2, -1, -1), np.arange(dim - 1, 0, -1)].sum(axis=1)
    block_grade = np.repeat(np.arange(len(grades)), [n + 1 for n in grades])
    combs = [[comb(n, k) if k <= n else 1 for n in grades] for k in range(top)]
    return SimpleNamespace(
        shapes=[(dim, n) for n in range(top)],
        starts=start,
        widths=widths,
        f_at=f_at,
        g_at=g_at,
        cells=np.repeat(k_of * column[-1] + column[block_grade], terms) + position,
        ways=binom[t, u].prod(axis=1).astype(float),
        combs=np.repeat(np.array(combs, dtype=float), widths, axis=1),
        columns=[(n, multi_indices(dim, n), column[i]) for i, n in enumerate(grades)],
    )


def graded_product(f, g, grades, weight=comb) -> list[SymTensor]:
    """The given grades of the product h_n = sum_k weight(n, k) f_k sym g_{n-k}.

    f and g are graded kernel sequences (kernel k of rank k).  The sums run
    through one cached plan per (dim, grades): one bincount forms every
    product, each is divided by C(n, k) and weighted, and a cumsum over k
    adds them in order from +0.0.  That is the term-by-term sum bit for
    bit: a skipped product of a dead kernel adds only signed zeros.  A grade
    with no product of two live kernels is the shared zero tensor.  A
    non-finite entry of a live grade, or a kernel of the wrong shape, goes
    to the term route, which raises as before and skips a zero factor
    beside an overflow.
    """
    grades = tuple(grades)
    if not grades:
        return []
    plan = _graded_plan(f[0].dim, grades)
    top = len(plan.shapes)
    if any([(t.dim, t.rank) for t in s[:top]] != plan.shapes for s in (f, g)):
        return _graded_terms(f, g, grades, weight)
    fx, gy = _stack(f[:top], plan.starts), _stack(g[:top], plan.starts)
    values = _plan_values(plan, grades, fx[0], gy[0], weight)
    return _plan_kernels(plan, grades, f, g, fx, gy, weight, values)


def graded_rows(dim: int, grades, x, y, weight) -> np.ndarray:
    """graded_product over stacks of kernels, one product per row.

    x and y each hold kernels 0, 1, ... read as one vector, as a jet's view
    does: either one vector per row of a (rows, len) array, or one vector
    shared by every row.  Row r of the result holds the columns of the
    grades of the product of row r of x and row r of y, grade after grade,
    bit for bit those of graded_product; with no rows axis it is 1-D.
    Nothing is checked: an overflow gives an inf or nan entry.
    """
    grades = tuple(grades)
    return _plan_values(_graded_plan(dim, grades), grades, np.asarray(x), np.asarray(y), weight)


def _columns(x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """x[at] of a vector, or of each row of a stack; a vector takes numpy's
    fast path for one index array."""
    return x[at] if x.ndim == 1 else x[:, at]


def _plan_values(plan, grades, x, y, weight) -> np.ndarray:
    """The sums of graded_product of x and y through plan: the columns of
    the grades as one vector, or one row of them per row of x or y.

    The rows share one bincount over cells + size * row, so each cell adds
    its terms in the order of the 1-D call; a 1-D call offsets no cell.
    """
    weights = plan.combs
    if weight is not comb:
        top = len(plan.shapes)
        ws = [[weight(n, k) if k <= n else 0 for n in grades] for k in range(top)]
        weights = np.repeat(np.array(ws, dtype=float), plan.widths, axis=1)

    if x.ndim == y.ndim == 1:
        return _plan_sums(plan, weights, x, y)
    return _by_blocks(len(plan.cells), lambda x, y: _plan_sums(plan, weights, x, y), x, y)


def _plan_sums(plan, weights, x, y) -> np.ndarray:
    """_plan_values' sums of x and y, at most one of them shared."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (plan.ways * _columns(x, plan.f_at)) * _columns(y, plan.g_at)
        cells, shape = plan.cells, weights.shape
        if terms.ndim == 2:
            cells = (cells + weights.size * np.arange(len(terms))[:, None]).ravel()
            shape = (len(terms), *shape)
        acc = np.bincount(cells, terms.ravel(), minlength=prod(shape)).reshape(shape) / plan.combs * weights
        return np.add.accumulate(acc, axis=-2)[..., -1, :] + 0.0


def _plan_kernels(plan, grades, f, g, fx, gy, weight, values) -> list[SymTensor]:
    """graded_product of f and g, read as fx = (vector, live) and gy, from
    the plan's values; an overflow goes to the term route."""
    live = np.convolve(fx[1], gy[1]).tolist()  # grade n: is some f_k and g_{n-k} live
    vals, dim = values.tolist(), plan.shapes[0][0]
    try:
        return [
            SymTensor(dim, n, dict(zip(keys, vals[col : col + len(keys)]))) if live[n] else zero_tensor(dim, n)
            for n, keys, col in plan.columns
        ]
    except ValueError:
        return _graded_terms(f, g, grades, weight)  # an overflow: SymTensor rejects it


def graded_solve(f, h0: SymTensor, post, weight=comb) -> list[SymTensor]:
    """Kernels h_0 = h0 and h_n = post * sum_{k=1..n} weight(n, k) f_k sym h_{n-k}.

    Grade n is the term-by-term graded product of f without its constant and
    h_0..h_{n-1}; with kernel 0 of the first factor dead, it never reads h_n.
    """
    tail = [zero_tensor(h0.dim, 0), *f[1:]]
    h = [h0]
    for n in range(1, len(f)):
        acc = _graded_terms(tail, h, [n], weight)[0]
        h.append(acc if post == 1 else acc.scale(post))
    return h


def jet_mul(f: ScalarJet, g: ScalarJet) -> ScalarJet:
    """Product of jets: h_n = sum_k C(n,k) f_k sym g_{n-k}.

    graded_product of the views of f and g.  When its values are all finite
    they are the product's view, and its kernels are built on first read: a
    dead grade's values are +0.0 but for an overflow's nan.  Otherwise the
    kernels are built at once, or the term route raises.
    """
    _check_compatible(f, g)
    grades = tuple(range(f.degree + 1))
    plan = _graded_plan(f.dim, grades)
    fx, gy = f._view(), g._view()
    values = _plan_values(plan, grades, fx[0], gy[0], comb)
    if np.isfinite(values).all():
        return ScalarJet._from_view(f.dim, f.degree, _frozen(values, plan.starts))
    ks = _plan_kernels(plan, grades, f.kernels, g.kernels, fx, gy, comb, values)
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
    comps = tuple(
        jet_from_entries(dim, degree, {(j,) * n: coeff_of_n(n) for n in range(1, degree + 1)})
        for j in range(1, dim + 1)
    )
    return VectorJet(dim, degree, comps)


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


@dataclass(frozen=True, eq=False)
class CompKernels:
    """Power kernels of a vector jet a: a(theta)^{tensor m} expanded in theta.

    rows[(n, m)] = (us, R): the sorted m-tuples u of output coordinates
    whose rank-n input tensor is live (not all-zero), and those tensors'
    coefficients as the rows of one read-only array.  Entries with n < m,
    which vanish identically, are absent, and a missing entry or table reads
    as zero.  Instances compare by identity.
    """

    dim: int
    degree: int
    rows: dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], np.ndarray]]
    # compose's plan per grade n, compose_rows' positions per ("rows", n),
    # contract_out's plan per (n, m) and contract_in's per ("in", n, m), built
    # on first use
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def _check_slots(self, m: int, coeff: SymTensor) -> None:
        """Reject a coefficient of the m output slots of the wrong rank or dim."""
        if coeff.rank != m:
            raise ValueError(f"coefficient rank {coeff.rank} != output slots {m}")
        if coeff.dim != self.dim:
            raise DimensionMismatchError(f"dim mismatch: {self.dim} vs {coeff.dim}")

    def contract_out(self, n: int, m: int, coeff: SymTensor) -> SymTensor:
        """Pair a rank-m tensor against the output slots, leaving rank n.

        The sum runs through one linear plan per (n, m), cached on the
        instance: the table's rows, weighted by multiplicity(u) * coeff[u],
        add by a cumsum, then + 0.0.  That is the weighted_sum of the rows
        with coeff[u] != 0 from +0.0, bit for bit: a row of zero weight adds
        only signed zeros.  With no such row the result is the shared zero.
        """
        self._check_slots(m, coeff)
        plan = self._plans.get((n, m))
        if plan is None:
            us, R = self.rows.get((n, m), ((), None))
            plan = self._plans[(n, m)] = (*_contract_plan(self.dim, m, us), R)
        at, mult, rows = plan
        c = np.fromiter(coeff.coeffs.values(), float, len(coeff.coeffs))[at]
        if not c.any():
            return zero_tensor(self.dim, n)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.add.accumulate((mult * c)[:, None] * rows)[-1] + 0.0
        return SymTensor(self.dim, n, dict(zip(multi_indices(self.dim, n), h.tolist())))

    def compose(self, n: int, ks) -> SymTensor:
        """Grade n of f(a(theta)) from the kernels ks of f.

        Grade 0 is ks[0]; grade n >= 1 is sum_{m=1..n} (1/m!) times ks[m]
        paired against the output slots of the power kernels, and reads
        ks[1..n] only.  The sums run through one linear plan per grade,
        cached on the instance: the tables' rows, weighted by
        multiplicity(u) * ks[m][u], add by a cumsum over the rows, then the
        blocks, weighted by 1/m!, by a cumsum over m.  The block of a dead
        ks[m] is skipped: its rows are finite, so it adds only signed zeros.
        That is contract_out per present table, weighted by 1/m! and added
        from +0.0, bit for bit.  A kernel of the wrong shape raises as in
        contract_out, and a non-finite grade as SymTensor does.  With no
        table, or no live kernel, the grade is the shared zero tensor.
        This is the one-row case of compose_rows.
        """
        if n == 0:
            return ks[0]
        plan = self._plans.get(n) or self._plans.setdefault(n, self._compose_plan(n))
        ms, count, at, mult, rows, used, inv_fact = plan
        if not ms:
            return zero_tensor(self.dim, n)
        live = []
        for m in ms:
            self._check_slots(m, ks[m])
            live.append(is_live(ks[m]))
        if not all(live):
            if not any(live):
                return zero_tensor(self.dim, n)
            keep = np.flatnonzero(live)
            depth = used[keep].max()
            at, mult, rows, inv_fact = at[keep, :depth], mult[keep, :depth], rows[keep, :depth], inv_fact[keep]
        x = np.fromiter(chain.from_iterable([ks[m].coeffs.values() for m in ms]), float, count)
        h = _compose_sums(x, at, mult, rows, inv_fact)
        return SymTensor(self.dim, n, dict(zip(multi_indices(self.dim, n), h.tolist())))

    def compose_rows(self, n: int, x: np.ndarray) -> np.ndarray:
        """compose(n, ks), n >= 1, for the kernels ks of one f per row of x.

        x has shape (rows, len) and holds kernels 0..n (or more) of each f
        read as one vector, as a jet's view does.  Row r of the result, of
        shape (rows, len(multi_indices(dim, n))), is grade n of the r-th f
        bit for bit: a dead block adds only signed zeros, which the final
        + 0.0 clears.  A non-finite entry is not checked.
        """
        plan = self._plans.get(n) or self._plans.setdefault(n, self._compose_plan(n))
        ms, _, at, mult, rows, _, inv_fact = plan
        if not ms:
            return np.zeros((len(x), len(multi_indices(self.dim, n))))
        at_stack = self._plans.get(("rows", n))
        if at_stack is None:
            # block i reads ks[ms[i]] at its start in the stack, not in ms's
            sizes = [len(multi_indices(self.dim, m)) for m in range(n + 1)]
            starts, ms_starts = np.cumsum([0, *sizes]), np.cumsum([0, *(sizes[m] for m in ms)])
            at_stack = self._plans[("rows", n)] = at + (starts[list(ms)] - ms_starts[:-1])[:, None]
        return _by_blocks(rows.size, lambda x: _compose_sums(x, at_stack, mult, rows, inv_fact), x)

    def _compose_plan(self, n: int):
        """compose's plan for grade n: the rows of the present tables (n, m)
        stacked into a zero-padded (m, row, column) array, with each row's
        position in ks[m] (the present ks[m] read as one vector),
        multiplicity(u), and the number of rows of each table."""
        ms = tuple(m for m in range(1, n + 1) if (n, m) in self.rows)
        used = np.array([len(self.rows[(n, m)][0]) for m in ms], dtype=np.intp)
        depth = used.max(initial=0)
        rows = np.zeros((len(ms), depth, len(multi_indices(self.dim, n))))
        at = np.zeros((len(ms), depth), dtype=np.intp)
        mult = np.zeros((len(ms), depth))
        start = 0
        for i, m in enumerate(ms):
            us, rows[i, : used[i]] = self.rows[(n, m)]
            at_m, mult[i, : used[i]] = _contract_plan(self.dim, m, us)
            at[i, : used[i]] = start + at_m
            start += len(multi_indices(self.dim, m))
        inv_fact = np.array([1.0 / factorial(m) for m in ms])
        return ms, start, at, mult, rows, used, inv_fact

    def contract_in(self, n: int, m: int, phi: SymTensor) -> SymTensor:
        """Pair a rank-n tensor against the input slots, leaving rank m (output).

        Entry u is pairing(row u, phi), bit for bit: the terms w * x * y
        with x and y nonzero, added in order from +0.0.  The plan per (n, m),
        cached on the instance, holds each row's nonzero entries w * x with
        their positions, as lists; on the small tables of a query a numpy
        sum costs more than it saves.  An absent row reads as zero.
        """
        if phi.rank != n:
            raise ValueError(f"kernel rank {phi.rank} != input rank {n}")
        if phi.dim != self.dim:
            raise DimensionMismatchError(f"dim mismatch: {self.dim} vs {phi.dim}")
        plan = self._plans.get(("in", n, m))
        if plan is None:
            us, R = self.rows.get((n, m), ((), None))
            rows = [] if R is None else (np.array(_multiplicities(self.dim, n), float) * R).tolist()
            plan = self._plans[("in", n, m)] = [(u, [(j, x) for j, x in enumerate(r) if x]) for u, r in zip(us, rows)]
        out = dict.fromkeys(multi_indices(self.dim, m), 0.0)
        ys = list(phi.coeffs.values())
        for u, row in plan:
            s = 0.0
            for j, x in row:
                y = ys[j]
                if y:
                    s += x * y
            out[u] = s
        return SymTensor(self.dim, m, out)


def _compose_sums(x, at, mult, rows, inv_fact) -> np.ndarray:
    """compose's sums over the blocks of a plan for the kernels x, one
    vector or one per row: each block's rows, weighted by
    multiplicity(u) * x[at], add by a cumsum, then the blocks, weighted by
    1/m!, by a cumsum over m, then + 0.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a signed zero of a block sum reaches h only where h is zero,
        # and the final + 0.0 makes every zero of h +0.0
        blocks = np.add.accumulate((mult * _columns(x, at))[..., None] * rows, axis=-2)[..., -1, :]
        return np.add.accumulate(inv_fact[:, None] * blocks, axis=-2)[..., -1, :] + 0.0


def _contract_plan(dim: int, m: int, us) -> tuple[np.ndarray, np.ndarray]:
    """The position of each rank-m key of us in a coefficient, and its
    multiplicity: contract_out's plan of a table with the rows of us."""
    position = _position(dim, m)
    at = np.array([position[u] for u in us], dtype=np.intp)
    return at, np.array([multiplicity(u) for u in us], dtype=float)


def _frozen_rows(us, x) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The keys us and the rows x of a table, x made one read-only array."""
    x = np.asarray(x, dtype=float)
    x.flags.writeable = False
    return tuple(us), x


def comp_kernels(a: VectorJet) -> CompKernels:
    """Build the power kernels of a by iterated graded products of components.

    The degree-n kernel of the product of scalar jets a_{u_1} ... a_{u_m}
    equals the multinomial composition sum over (l_1, ..., l_m), each
    l_i >= 1; the iterated product computes it in O(N^2) tensor products.
    The rows of each table are sliced from the stacked views of the
    products, so no tensor is built.
    """
    N = a.degree
    starts = _graded_plan(a.dim, tuple(range(N + 1))).starts.tolist()
    rows: dict[tuple[int, int], tuple] = {}
    prods: dict[tuple[int, ...], ScalarJet] = {}
    for m in range(1, N + 1):
        layer, found = {}, {}
        for u in multi_indices(a.dim, m):
            if m == 1:
                jet = a.components[u[0] - 1]
            else:
                jet = jet_mul(prods[u[:-1]], a.components[u[-1] - 1])
            layer[u] = jet
            x, live = jet._view()
            live = live.tolist()
            for n in range(m, N + 1):
                if live[n]:
                    us, xs = found.setdefault(n, ([], []))
                    us.append(u)
                    xs.append(x[starts[n] : starts[n + 1]])
        rows.update({(n, m): _frozen_rows(us, xs) for n, (us, xs) in found.items()})
        prods = layer
    return CompKernels(a.dim, N, rows)


def _linear_power_kernels(inv: np.ndarray, degree: int) -> CompKernels:
    """comp_kernels of the linear jets of the rows of inv, bit for bit, with no jet.

    Only the tables (m, m) are present.  Layer m holds the live rows of rank
    m: row u' + (j,) is grade m of the product of row u' with
    linear_jet(inv[j-1]) in graded_product's arithmetic, the terms
    (W * x_i) * inv[j-1, j'] of _product_arrays(d, m-1, 1) added in plan
    order from +0.0, then / m * m + 0.0.  One bincount per last coordinate j
    forms them, so the terms of a call are a few times the layer's table.  A
    dead row drops every row that extends it, and a non-finite entry raises
    as SymTensor does.
    """
    d = len(inv)
    live = inv.any(axis=1)
    us, x = [(j,) for j in (np.flatnonzero(live) + 1).tolist()], inv[live]
    rows = {}
    for m in range(1, degree + 1):
        if m > 1:
            T, W = _product_arrays(d, m - 1, 1)
            size = len(multi_indices(d, m))
            prev, us, blocks = us, [], []
            last = np.array([u[-1] for u in prev])
            with np.errstate(over="ignore", invalid="ignore"):
                for j, row in enumerate(inv, 1):
                    at = np.flatnonzero(last <= j)
                    cells = (np.arange(len(at))[:, None] * size + T).ravel()
                    terms = ((W * x[at, :, None]) * row).ravel()
                    sums = np.bincount(cells, terms, minlength=len(at) * size)
                    blocks.append(sums.reshape(-1, size) / m * m + 0.0)
                    us += [prev[r] + (j,) for r in at]
            position = _position(d, m)
            order = np.argsort([position[u] for u in us])
            values = np.concatenate(blocks)[order]
            live = values.any(axis=1)
            x = values[live]
            us = [us[r] for r in order[live].tolist()]
        if not us:
            break
        _check_rows(d, [m], x)
        rows[(m, m)] = _frozen_rows(us, x)
    return CompKernels(d, degree, rows)


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
    if a.degree < 1:
        raise ValueError(f"degree must be at least 1, got {a.degree}")
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
    pull = _linear_power_kernels(inv, N)
    g_kernels = [[scalar_tensor(d, 0.0), vector_tensor(row)] for row in inv]
    for n in range(2, N + 1):
        for ks in g_kernels:
            # kernel n stays zero while compose forms the rest of grade n
            ks.append(zero_tensor(d, n))
            ks[n] = pull.contract_out(n, n, ck.compose(n, ks)).scale(-1.0 / factorial(n))
    return VectorJet(d, N, tuple(ScalarJet(d, N, tuple(ks)) for ks in g_kernels))
