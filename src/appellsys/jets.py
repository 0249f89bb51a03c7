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

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from math import comb, copysign, exp, factorial, log, prod
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

    A product of jet_mul, or a component of jet_invert, is born from its
    stacked view alone: its kernels are built from the view when first read.
    """

    dim: int
    degree: int
    kernels: tuple[SymTensor, ...]
    # the (vector, live) view of _view, built on first use or by jet_mul or jet_invert
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
            starts = _graded_plan(self.dim, tuple(range(self.degree + 1))).starts
            object.__setattr__(self, "_stacked", _frozen(_stack(self.kernels), starts))
        return self._stacked

    def kernel(self, n: int) -> SymTensor:
        return self.kernels[n]

    def constant(self) -> float:
        return self.kernels[0].item() if self._stacked is None else self._stacked[0].item(0)

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


def _row_tensors(dim: int, grades, row) -> list[SymTensor]:
    """The kernels of the grades whose coefficients, grade after grade, are
    row: the shared zero where a grade is all +0.0, else a SymTensor, which
    raises on a non-finite entry."""
    vals, col, out = row.tolist(), 0, []
    for n in grades:
        width = len(multi_indices(dim, n))
        part = vals[col : col + width]
        signed = any(part) or any(copysign(1.0, v) < 0 for v in part)
        out.append(SymTensor(dim, n, part) if signed else zero_tensor(dim, n))
        col += width
    return out


def _check_rows(dim: int, grades, values: np.ndarray) -> None:
    """Raise as SymTensor does on the first row of values, the coefficients
    of the grades, that holds a non-finite entry."""
    if not np.isfinite(values).all():
        _row_tensors(dim, grades, values[np.isfinite(values).all(axis=1).argmin()])


def _stack(kernels) -> np.ndarray:
    """The coefficients of kernels 0, 1, ... as one vector in multi_indices
    order, as a jet's view reads them."""
    return np.fromiter(chain.from_iterable([t.values for t in kernels]), float)


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


def graded_product(dim: int, grades, x, y, weight) -> np.ndarray:
    """The given grades of h_n = sum_k weight(n, k) f_k sym g_{n-k}, checked.

    x and y are the (vector, live) views of kernels 0, 1, ... of f and g, as
    ScalarJet._view gives them.  The result holds the columns of the grades,
    grade after grade: the sums of graded_rows, which are the term-by-term
    sums of one sym_product per pair of live kernels bit for bit, all +0.0
    in a grade with no such pair.  Only when a sum is non-finite are the
    sums formed again with each term of a zero factor +0.0, as sym_product
    skips it: finite, they are the term route's.  Otherwise this raises as
    the term route did: within each grade, at the first non-finite product
    of two live kernels in k order, then at the grade's sum.
    """
    grades = tuple(grades)
    return _checked_values(_graded_plan(dim, grades), dim, grades, x, y, weight)


def _checked_values(plan, dim: int, grades: tuple[int, ...], x, y, weight) -> np.ndarray:
    """graded_product through plan, the _graded_plan of dim and grades."""
    values = _plan_values(plan, grades, x[0], y[0], weight)
    if np.isfinite(values).all():
        return values
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = x[0][plan.f_at], y[0][plan.g_at]
        terms = (plan.ways * f) * g
        terms[(f == 0) | (g == 0)] = 0.0
        products = _cell_sums(plan.cells, terms, plan.combs.shape) / plan.combs
        values = np.add.accumulate(products * _plan_weights(plan, grades, weight), axis=0)[-1] + 0.0
    if not np.isfinite(values).all():
        for n, keys, col in plan.columns:
            cols = slice(col, col + len(keys))
            for k in range(n + 1):
                if x[1][k] and y[1][n - k]:
                    _row_tensors(dim, [n], products[k, cols])
            _row_tensors(dim, [n], values[cols])
    return values


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


def _plan_weights(plan, grades, weight) -> np.ndarray:
    """weight(n, k) at (k, column of grade n) of plan, 0 where k > n."""
    if weight is comb:
        return plan.combs
    ws = [[weight(n, k) if k <= n else 0 for n in grades] for k in range(len(plan.shapes))]
    return np.repeat(np.array(ws, dtype=float), plan.widths, axis=1)


def _plan_values(plan, grades, x, y, weight) -> np.ndarray:
    """The sums of graded_product of x and y through plan: the columns of
    the grades as one vector, or one row of them per row of x or y.

    The rows share one bincount over cells + size * row, so each cell adds
    its terms in the order of the 1-D call; a 1-D call offsets no cell.
    """
    weights = _plan_weights(plan, grades, weight)
    if x.ndim == y.ndim == 1:
        return _plan_sums(plan, weights, x, y)
    return _by_blocks(len(plan.cells), lambda x, y: _plan_sums(plan, weights, x, y), x, y)


def _plan_sums(plan, weights, x, y) -> np.ndarray:
    """_plan_values' sums of x and y, at most one of them shared."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (plan.ways * _columns(x, plan.f_at)) * _columns(y, plan.g_at)
        acc = _cell_sums(plan.cells, terms, weights.shape) / plan.combs * weights
        return np.add.accumulate(acc, axis=-2)[..., -1, :] + 0.0


def _cell_sums(cells: np.ndarray, terms: np.ndarray, shape) -> np.ndarray:
    """The terms added into cells of an array of the shape, each cell's in
    order from +0.0; a 2-D terms fills one such array per row.  With no
    terms bincount gives integers, so the sums are cast to float."""
    if terms.ndim == 2:
        cells = (cells + prod(shape) * np.arange(len(terms))[:, None]).ravel()
        shape = (len(terms), *shape)
    return np.bincount(cells, terms.ravel(), minlength=prod(shape)).astype(float, copy=False).reshape(shape)


def graded_solve(f, h0: SymTensor, post, weight=comb) -> list[SymTensor]:
    """Kernels h_0 = h0 and h_n = post * sum_{k=1..n} weight(n, k) f_k sym h_{n-k}.

    Grade n adds, in k order from +0.0 by weighted_sum, one sym_product per
    pair of live f_k and h_{n-k}; a weight of 1 is not applied, and a grade
    with no such pair is the shared zero tensor.  It never reads f_0, nor
    h_n.
    """
    f_live = [is_live(t) for t in f]
    h, h_live = [h0], [is_live(h0)]
    for n in range(1, len(f)):
        pairs = [k for k in range(1, n + 1) if f_live[k] and h_live[n - k]]
        acc = weighted_sum(h0.dim, n, ((weight(n, k), sym_product(f[k], h[n - k])) for k in pairs))
        h.append(acc if post == 1 else acc.scale(post))
        h_live.append(is_live(h[n]))
    return h


def jet_mul(f: ScalarJet, g: ScalarJet) -> ScalarJet:
    """Product of jets: h_n = sum_k C(n,k) f_k sym g_{n-k}.

    graded_product of the views of f and g is the product's view, and its
    kernels are built from it on first read.  One plan lookup serves the
    product and the starts of its view.
    """
    _check_compatible(f, g)
    grades = tuple(range(f.degree + 1))
    plan = _graded_plan(f.dim, grades)
    values = _checked_values(plan, f.dim, grades, f._view(), g._view(), comb)
    return ScalarJet._from_view(f.dim, f.degree, _frozen(values, plan.starts))


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

    The tables are one block-triangular operator M on kernels 0..N read as
    one vector, as a jet's view does: grade n >= 1 of M x is the sum over
    m = 1..n of (1/m!) times kernel m of x paired against the output slots
    of table (n, m), and grade 0 is kernel 0.  compose_stack reads M
    forward, contract_in reads its transpose and contract_out one block,
    all through one plan per instance, built on first use from rows.
    """

    dim: int
    degree: int
    rows: dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], np.ndarray]]

    @cached_property
    def _plan(self) -> SimpleNamespace:
        return _flat_plan(self)

    def contract_out(self, n: int, m: int, rows) -> np.ndarray:
        """Pair the coefficients of rank-m tensors against the output slots
        of table (n, m), leaving rank n.

        rows holds one tensor's coefficients in multi_indices order, or one
        per row of a 2-D array, and the result reads as rows does.  This is
        block (n, m) of the plan, unweighted: the table's rows, weighted by
        multiplicity(u) * coefficient u, added in order from +0.0.  That is
        the weighted_sum of the rows of nonzero weight, bit for bit: a row of
        zero weight adds only signed zeros.  With no table, or no nonzero
        coefficient, the result is +0.0 at once; a non-finite entry is not
        checked.
        """
        plan, rows = self._plan, np.asarray(rows, dtype=float)
        if rows.shape[-1] != plan.starts[m + 1] - plan.starts[m]:
            raise ValueError(f"rows of width {rows.shape[-1]} are not rank-{m} tensors of dim {self.dim}")
        lo, hi = plan.blocks.get((n, m), (0, 0))
        shape, base = (plan.starts[n + 1] - plan.starts[n], plan.stride), plan.starts[n] * plan.stride + m - 1
        if lo == hi or not rows.any():
            return np.zeros(rows.shape[:-1] + shape[:1])

        def block(rows):
            return _term_sums(plan, rows, lo, hi, plan.starts[m], base, shape)[..., 0]

        return _by_blocks(plan.offsets[hi] - plan.offsets[lo], block, rows)

    def compose_stack(self, x, n: int | None = None) -> np.ndarray:
        """Grades 0..N of f(a(theta)), or grade n alone, from kernels 0..N
        (0..n) of f read as one vector x, as a jet's view does, or of one f
        per row of a 2-D x.  The result reads as x does, with grade 0 copied
        from x.  Each row is the term-by-term sum bit for bit, a grade with
        no live kernel all +0.0; a non-finite entry is not checked.

        x may end before the kernel of the top grade, and that kernel's
        block is then left out: jet_invert solves for the kernel, so it is
        dead, and as the rows are finite its block would add only signed
        zeros.  Each (column, m) block sum of terms (multiplicity(u) *
        x[at]) * R[u, c] is added in row order from +0.0, then the blocks,
        weighted by 1/m!, add by a cumsum over m from m = 1.  That is
        contract_out per table, weighted by 1/m! and added from +0.0, bit for
        bit: the sums can differ only in the sign of a zero, and neither is
        ever -0.0.
        """
        plan, x = self._plan, np.asarray(x, dtype=float)
        first, last = (0, self.degree) if n is None else (n, n)
        widths = plan.starts[max(last, 1) :]
        if x.shape[-1] not in widths:
            raise ValueError(f"stack width {x.shape[-1]} is not one of {widths}, the widths of kernels 0..k")
        lo, hi = plan.grade_rows[first], plan.grade_rows[last + 1]
        if x.shape[-1] == plan.starts[last]:
            hi = plan.blocks.get((last, last), (hi,))[0]
        shape = (plan.starts[last + 1] - plan.starts[first], plan.stride)

        def grades(x):
            blocks = _term_sums(plan, x, lo, hi, 0, plan.starts[first] * plan.stride, shape)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.add.accumulate(plan.inv_fact * blocks, axis=-1)[..., -1]

        # with no block, as for a grade of identity power kernels, all is +0.0
        per_row = plan.offsets[hi] - plan.offsets[lo]
        out = _by_blocks(per_row, grades, x) if lo < hi else np.zeros(x.shape[:-1] + shape[:1])
        if first == 0:
            out[..., 0] = x[..., 0]
        return out

    def contract_in(self, x) -> np.ndarray:
        """The transpose of compose_stack: from kernels 0..N of phi read as
        one vector x, grade m >= 1 is (1/m!) times the sum over n = m..N, in
        order from +0.0, of kernel n paired against the input slots of table
        (n, m); grade 0 is kernel 0 plus +0.0.  The grades come as one vector.

        Entry u of a pairing is pairing(row u, kernel n) bit for bit: the
        terms (multiplicity(c) * R[u, c]) * x[c] added in column order from
        +0.0, where a zero term, skipped there, adds nothing.  An absent row
        reads as +0.0.  A non-finite pairing or grade raises as SymTensor
        does, at the first in grade, then table, then entry order.
        """
        plan, x = self._plan, np.asarray(x, dtype=float)
        if x.shape != (plan.starts[-1],):
            raise ValueError(f"contract_in takes one stack of width {plan.starts[-1]}, got shape {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            weights, y = plan.col_mult[plan.cols] * plan.rows, x[plan.cols]
            terms = weights * y
            if not np.isfinite(terms).all():
                terms[(weights == 0) | (y == 0)] = 0.0  # pairing skips them
            sums = _cell_sums(np.repeat(np.arange(len(plan.at)), plan.widths), terms, (len(plan.at),))
            out = _cell_sums(plan.at, sums, x.shape)
            out[0] += x[0]
            out *= plan.inv_cols
        if not np.isfinite(out).all():
            _check_pairings(self, sums, out)
        return out


def _flat_plan(ck: CompKernels) -> SimpleNamespace:
    """The plan of ck.  Per row u of table (n, m): at, its place in kernel
    m of the stack, multiplicity(u), its width and the offset of its first
    term.  Per term: R[u, c], its column starts[n] + c of the stack and its
    cell column * stride + m - 1 of the (column, m) block sums.  The rows of
    each table (n, m), and where each grade n starts in the rows.  Per
    column of the stack: its multiplicity and 1/n! of its grade n."""
    dim, N, keys = ck.dim, ck.degree, sorted(ck.rows)
    starts, stride = _graded_plan(dim, tuple(range(N + 1))).starts.tolist(), max(N, 1)
    table = [
        (starts[m] + _position(dim, m)[u], multiplicity(u), starts[n + 1] - starts[n], starts[n], m - 1)
        for n, m in keys
        for u in ck.rows[(n, m)][0]
    ]
    at, mult, widths, first, block = np.array(table, dtype=np.intp).reshape(-1, 5).T
    offsets = np.cumsum(np.append(0, widths))
    cols = np.repeat(first - offsets[:-1], widths) + np.arange(offsets[-1])
    ends = np.cumsum([0] + [len(ck.rows[k][0]) for k in keys]).tolist()
    return SimpleNamespace(
        starts=starts,
        stride=stride,
        at=at,
        mult=mult.astype(float),
        widths=widths,
        offsets=offsets.tolist(),
        rows=np.concatenate([np.zeros(0)] + [ck.rows[k][1].ravel() for k in keys]),
        cols=cols,
        cells=cols * stride + np.repeat(block, widths),
        blocks=dict(zip(keys, zip(ends, ends[1:]))),
        grade_rows=[ends[bisect_left(keys, (n,))] for n in range(N + 2)],
        inv_fact=np.array([1.0 / factorial(m) for m in range(1, stride + 1)]),
        col_mult=np.array([w for n in range(N + 1) for w in _multiplicities(dim, n)], dtype=float),
        inv_cols=np.repeat([1.0 / factorial(n) for n in range(N + 1)], np.diff(starts)),
    )


def _term_sums(plan, x, lo, hi, shift, base, shape) -> np.ndarray:
    """The terms (multiplicity(u) * x[at - shift]) * R[u, c] of the rows
    lo:hi of plan, added into their cells less base, each in row order from
    +0.0, in an array of the shape: for one vector x, or one per row of x."""
    start, stop = plan.offsets[lo], plan.offsets[hi]
    with np.errstate(over="ignore", invalid="ignore"):
        weights = plan.mult[lo:hi] * _columns(x, plan.at[lo:hi] - shift)
        terms = np.repeat(weights, plan.widths[lo:hi], axis=-1) * plan.rows[start:stop]
    return _cell_sums(plan.cells[start:stop] - base, terms, shape)


def _check_pairings(ck: CompKernels, sums: np.ndarray, out: np.ndarray) -> None:
    """Raise as contract_in per table did: at the first non-finite pairing
    of table (n, m), n = m..N, then of grade m in out, for m = 1..N; sums
    holds the pairing of each row of the plan."""
    plan = ck._plan
    for m in range(1, ck.degree + 1):
        lo, hi = plan.starts[m], plan.starts[m + 1]
        for n in range(m, ck.degree + 1):
            first, last = plan.blocks.get((n, m), (0, 0))
            table = np.zeros(hi - lo)
            table[plan.at[first:last] - lo] = sums[first:last]
            _row_tensors(ck.dim, [m], table)
        _row_tensors(ck.dim, [m], out[lo:hi])


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

    Grade m of a rank-m product reads only grade m-1 of its prefix and grade
    1 of its last component, so each table (m, m) is the power kernel of the
    linear part L of a, bit for bit.  Products are formed only where a table
    above the diagonal can be live: for layers 2..N-1 of an a with a live
    kernel of rank >= 2.  The top layer, which holds (N, N) alone, and every
    layer of a linear a come from _power_layer over L, the layer step that
    jet_invert's pull-back through L^-1 also takes.
    """
    N = a.degree
    if not any(c._view()[1][2:].any() for c in a.components):
        return _linear_power_kernels(linear_part(a), N)
    starts = _graded_plan(a.dim, tuple(range(N + 1))).starts.tolist()
    rows: dict[tuple[int, int], tuple] = {}
    prods: dict[tuple[int, ...], ScalarJet] = {}
    for m in range(1, N):
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
    if (N - 1, N - 1) in rows:
        us, x = _power_layer(*rows[(N - 1, N - 1)], linear_part(a), N)
        if us:
            rows[(N, N)] = _frozen_rows(us, x)
    return CompKernels(a.dim, N, rows)


def _power_layer(us, x: np.ndarray, mat: np.ndarray, m: int) -> tuple[list, np.ndarray]:
    """The live rows of layer m of the power kernels of the d x d matrix mat,
    and their keys, from the live rows x of layer m-1 keyed by us.

    Row u' + (j,), j >= u'[-1], is grade m of jet_mul of a jet whose grade
    m-1 is row u', with no live grade below it, and a jet whose grade 1 is
    mat[j-1], bit for bit: the plan's terms (W * x_i) * mat[j-1, j'] of
    _product_arrays(d, m-1, 1) added in plan order from +0.0, then / m * m
    + 0.0.  The rows, prefix-major and then by j, are in multi_indices
    order, and one bincount per block of them forms their terms, so memory
    stays flat in the rows.  A non-finite row is formed again with each term
    of a zero factor +0.0, as graded_product does, and one that stays
    non-finite raises as jet_mul does: at the first such row, in the
    product / m before the sum.
    """
    d = len(mat)
    T, W = _product_arrays(d, m - 1, 1)
    size = comb(d + m - 1, m)
    keys = [u + (j,) for u in us for j in range(u[-1], d + 1)]
    rows = np.repeat(np.arange(len(us)), [d + 1 - u[-1] for u in us])
    coords = np.array([key[-1] - 1 for key in keys], dtype=np.intp)

    def block(f, g, skip_zeros):
        f, g = f[:, :, None], g[:, None, :]
        terms = (W * f) * g
        if skip_zeros:
            terms[(f == 0) | (g == 0)] = 0.0
        cells = (np.arange(len(f))[:, None] * size + T).ravel()
        return np.bincount(cells, terms.ravel(), len(f) * size).reshape(-1, size)

    def products(skip_zeros: bool) -> np.ndarray:
        out = _by_blocks(W.size, lambda f, g: block(f, g, skip_zeros), x[rows], mat[coords])
        out /= m
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        values = products(False) * m + 0.0
        if not np.isfinite(values).all():
            prods = products(True)
            values = prods * m + 0.0
            _check_rows(d, [m, m], np.hstack([prods, values]))
    live = values.any(axis=1)
    return [keys[r] for r in np.flatnonzero(live).tolist()], values if live.all() else values[live]


def _linear_power_kernels(mat: np.ndarray, degree: int) -> CompKernels:
    """comp_kernels of the linear jets of the rows of mat, with no jet: the
    tables (m, m) alone, layer m from layer m-1 by _power_layer.  A dead row
    drops every row that extends it."""
    live = mat.any(axis=1)
    us, x = [(j,) for j in (np.flatnonzero(live) + 1).tolist()], mat[live]
    rows = {}
    for m in range(1, degree + 1):
        if m > 1:
            us, x = _power_layer(us, x, mat, m)
        if not us:
            break
        rows[(m, m)] = _frozen_rows(us, x)
    return CompKernels(len(mat), degree, rows)


def jet_compose_scalar(f: ScalarJet, a: VectorJet, ck: CompKernels | None = None) -> ScalarJet:
    """Composite jet f(a(theta)) through one compose_stack call over the
    view of f; a must vanish at zero, and ck holds its power kernels."""
    _check_compatible(f, a)
    if ck is None:
        ck = comp_kernels(a)
    ks = _row_tensors(f.dim, range(f.degree + 1), ck.compose_stack(f._view()[0]))
    return ScalarJet(f.dim, f.degree, tuple(ks))


def jet_compose_vector(a: VectorJet, b: VectorJet, ck: CompKernels | None = None) -> VectorJet:
    """Composite vector jet a(b(theta))."""
    _check_compatible(a, b)
    if ck is None:
        ck = comp_kernels(b)
    comps = tuple(jet_compose_scalar(c, b, ck) for c in a.components)
    return VectorJet(a.dim, a.degree, comps)


def linear_part(a: VectorJet) -> np.ndarray:
    """The d x d matrix of the degree-1 kernels, row j = output coordinate j,
    read from the components' views (d x 0 at degree 0)."""
    return np.array([c._view()[0][1 : 1 + a.dim] for c in a.components])


def jet_invert(a: VectorJet, ck: CompKernels | None = None) -> VectorJet:
    """Compositional inverse g with g(a(theta)) = theta to degree N.

    This is the left inverse; for jets with an invertible linear part L it
    is also the right inverse, a(g(theta)) = theta.  Kernel n >= 2 of g is
    solved in one pass through the power kernels ck of a: grade n of g(a)
    is ck.compose_stack of g, whose only term holding g_n is g_n pulled
    back through L, so g_n is minus the rest pulled back through L^{-1}.
    The d components of g are the rows of one stack, and each grade solves
    them all at once; a non-finite entry raises as SymTensor does, at the
    first component that holds one, in the rest before its pull-back.
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
    starts = _graded_plan(d, tuple(range(N + 1))).starts.tolist()
    g = np.zeros((d, starts[-1]))
    g[:, starts[1] : starts[2]] = inv
    for n in range(2, N + 1):
        # the stack ends before kernel n, which compose_stack leaves out
        rest = ck.compose_stack(g[:, : starts[n]], n)
        pulled = pull.contract_out(n, n, rest)
        _check_rows(d, [n, n], np.hstack([rest, pulled]))
        g[:, starts[n] : starts[n + 1]] = pulled * (-1.0 / factorial(n))
    return VectorJet(d, N, tuple(ScalarJet._from_view(d, N, _frozen(row, starts)) for row in g))
