"""Dense symmetric tensors over R^d with multiset storage.

A rank-n symmetric tensor is determined by one coefficient per weakly
increasing multi-index (i_1 <= ... <= i_n), 1-based.  The stored value is
the full-tensor entry shared by all orderings of the index; every
multiplicity factor n!/prod(repeats!) lives in the pairing and norm
formulas, never in the storage.

The weighted norms |.|_p form a finite Hilbert scale: coordinate i gets
weight w_i (default w_i = i), and |a|_p is the Euclidean norm of the
full tensor after scaling each axis by w_i^p.  Negative p gives the dual
norm.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, isfinite, sqrt
from types import MappingProxyType

import numpy as np

__all__ = [
    "SymTensor",
    "HilbertScale",
    "DimensionMismatchError",
    "RankMismatchError",
    "multi_indices",
    "multiplicity",
    "sym_product",
    "pairing",
    "partial_pairing",
    "eval_power_batch",
    "tensor_norm",
    "is_live",
    "zero_tensor",
    "scalar_tensor",
    "basis_vector",
    "vector_tensor",
    "power_tensor",
    "random_tensor",
]


class DimensionMismatchError(ValueError):
    pass


class RankMismatchError(ValueError):
    pass


@lru_cache(maxsize=None)
def multi_indices(dim: int, rank: int) -> tuple[tuple[int, ...], ...]:
    """All weakly increasing multi-indices over 1..dim of the given rank."""
    return tuple(combinations_with_replacement(range(1, dim + 1), rank))


@lru_cache(maxsize=None)
def multiplicity(idx: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset idx."""
    m = factorial(len(idx))
    for k in Counter(idx).values():
        m //= factorial(k)
    return m


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


# Positional plans.  Coefficients are stored in multi_indices order, so an
# operation reads them by list position through integer plans cached per
# (dim, ranks) instead of hashing tuple keys.


@lru_cache(maxsize=None)
def _key_set(dim: int, rank: int) -> frozenset:
    return frozenset(multi_indices(dim, rank))


@lru_cache(maxsize=None)
def _multiplicities(dim: int, rank: int) -> tuple[int, ...]:
    return tuple(multiplicity(k) for k in multi_indices(dim, rank))


@lru_cache(maxsize=None)
def _position(dim: int, rank: int) -> dict[tuple[int, ...], int]:
    return {k: i for i, k in enumerate(multi_indices(dim, rank))}


@lru_cache(maxsize=None)
def _product_plan(dim: int, m: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """plan[i][j] = (position of t, ways) for u_i of rank m, v_j of rank n.

    t is the merge of u_i and v_j, and ways the number of the comb(m+n, m)
    position subsets of t that u_i fills, prod_c C(count_t(c), count_u(c)).
    That is the exact integer comb(m+n, m) * mult(u_i) * mult(v_j) / mult(t).
    """
    pt, mt = _position(dim, m + n), _multiplicities(dim, m + n)
    total = comb(m + n, m)
    vs = tuple(zip(multi_indices(dim, n), _multiplicities(dim, n)))
    plan = []
    for u, mu in zip(multi_indices(dim, m), _multiplicities(dim, m)):
        row = []
        for v, mv in vs:
            p = pt[_merge(u, v)]
            row.append((p, total * mu * mv // mt[p]))
        plan.append(tuple(row))
    return tuple(plan)


@lru_cache(maxsize=None)
def _product_arrays(dim: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """_product_plan as arrays: the positions T, flat and row-major over
    (i, j), and the float weights W of shape (i, j)."""
    plan = _product_plan(dim, m, n)
    T = np.array([p for row in plan for p, _ in row], dtype=np.intp)
    W = np.array([[ways for _, ways in row] for row in plan], dtype=float)
    return T, W


@lru_cache(maxsize=None)
def _pairing_plan(dim: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """plan[p][j] = position of the merge of s_p (rank n - k) and u_j (rank k):
    the positions of _product_plan(dim, n - k, k) without the ways."""
    return tuple(tuple(p for p, _ in row) for row in _product_plan(dim, n - k, k))


class SymTensor:
    """Immutable symmetric tensor; values holds one Python float per
    multiset index, in multi_indices order.

    coeffs may be a {multi-index: value} table in any key order, or the
    values themselves in multi_indices order; either is copied, so a later
    write to it leaves the tensor as it was.  The coeffs attribute is a
    read-only {multi-index: value} view of values, built on first read.
    Tensors compare by dim, rank and values, and are unhashable.
    """

    __slots__ = ("dim", "rank", "values", "_coeffs")
    __hash__ = None

    def __init__(self, dim: int, rank: int, coeffs) -> None:
        # every construction runs here, under the name perfbench's tracer counts
        self.__post_init__(dim, rank, coeffs)

    def __post_init__(self, dim: int, rank: int, coeffs) -> None:
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        keys = multi_indices(dim, rank)
        given = None if isinstance(coeffs, (list, tuple)) else coeffs
        if given is None:
            table, wrong = coeffs, len(coeffs) != len(keys)
        elif tuple(given) == keys:
            table, wrong = given.values(), False
        else:
            table, wrong = map(given.__getitem__, keys), set(given) != _key_set(dim, rank)
        if wrong:
            raise ValueError(
                f"coefficient table must have exactly one entry per multiset index "
                f"(expected {len(keys)}, got {len(coeffs)})"
            )
        values = tuple(map(float, table))
        # a sum of finite floats that is not finite has overflowed: look closer
        if not isfinite(sum(values)) and not all(map(isfinite, values)):
            # the first one in the order given
            pairs = zip(keys, values) if given is None else given.items()
            k, v = next((k, v) for k, v in pairs if not isfinite(v))
            raise ValueError(f"non-finite coefficient at index {k}: {float(v)}")
        init = object.__setattr__
        init(self, "dim", dim)
        init(self, "rank", rank)
        init(self, "values", values)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SymTensor, (self.dim, self.rank, self.values)

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], float]:
        try:
            return self._coeffs
        except AttributeError:
            view = MappingProxyType(dict(zip(multi_indices(self.dim, self.rank), self.values)))
            object.__setattr__(self, "_coeffs", view)
            return view

    def __eq__(self, other):
        if other.__class__ is not SymTensor:
            return NotImplemented
        return self.dim == other.dim and self.rank == other.rank and self.values == other.values

    def __repr__(self) -> str:
        return f"SymTensor(dim={self.dim!r}, rank={self.rank!r}, coeffs={self.coeffs!r})"

    def __getitem__(self, idx: tuple[int, ...]) -> float:
        return self.values[_position(self.dim, self.rank)[tuple(sorted(idx))]]

    def item(self) -> float:
        """The scalar value of a rank-0 tensor."""
        if self.rank != 0:
            raise RankMismatchError(f"item() requires rank 0, got rank {self.rank}")
        return self.values[0]

    def scale(self, c: float) -> "SymTensor":
        c = float(c)
        return SymTensor(self.dim, self.rank, [c * v for v in self.values])

    def __add__(self, other: "SymTensor") -> "SymTensor":
        _check_shape(self.dim, self.rank, other)
        return SymTensor(self.dim, self.rank, [x + y for x, y in zip(self.values, other.values)])

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + other.scale(-1.0)

    def __neg__(self) -> "SymTensor":
        return self.scale(-1.0)

    def max_abs(self) -> float:
        return max(map(abs, self.values))


def _check_shape(dim: int, rank: int, t: SymTensor) -> None:
    if dim != t.dim:
        raise DimensionMismatchError(f"dim mismatch: {dim} vs {t.dim}")
    if rank != t.rank:
        raise RankMismatchError(f"rank mismatch: {rank} vs {t.rank}")


def is_live(t: SymTensor) -> bool:
    """Whether t has a nonzero coefficient.

    Grade loops form only products of live kernels.  The skip is exact: a
    sum that starts at +0.0 is never -0.0, so adding a signed zero to it
    changes nothing.
    """
    return any(t.values)


def weighted_sum(dim: int, rank: int, terms) -> SymTensor:
    """The sum of w * t over the pairs (w, t) of terms, in order, from +0.0.

    The graded sums of the jets and the Appell system add their terms here,
    so a grade builds one tensor, not two per term.  The coefficients are
    those of adding each t.scale(w) to a zero tensor, bit for bit; a weight
    of 1 is not applied.  A term of another dim or rank raises as + does.
    With no term the sum is the shared zero tensor of the shape.
    """
    acc = None
    for w, t in terms:
        _check_shape(dim, rank, t)
        if acc is None:
            acc = [0.0] * len(t.values)
        if w == 1:
            acc = [s + x for s, x in zip(acc, t.values)]
        else:
            acc = [s + w * x for s, x in zip(acc, t.values)]
    if acc is None:
        return zero_tensor(dim, rank)
    return SymTensor(dim, rank, acc)


@lru_cache(maxsize=None)
def zero_tensor(dim: int, rank: int) -> SymTensor:
    """The zero tensor of the shape, one shared instance per shape."""
    return SymTensor(dim, rank, [0.0] * len(multi_indices(dim, rank)))


def scalar_tensor(dim: int, value: float) -> SymTensor:
    return SymTensor(dim, 0, [value])


def basis_vector(dim: int, i: int) -> SymTensor:
    """The i-th coordinate vector (1-based) as a rank-1 tensor."""
    return SymTensor(dim, 1, [1.0 if j == i else 0.0 for j in range(1, dim + 1)])


def vector_tensor(x) -> SymTensor:
    x = np.asarray(x, dtype=float)
    return SymTensor(len(x), 1, x.tolist())


def power_tensor(x, n: int) -> SymTensor:
    """x^{tensor n}: full entries are products of coordinates, as Python
    floats, so that an overflow gives inf without a numpy warning."""
    x = np.asarray(x, dtype=float).tolist()
    d = len(x)
    values = []
    for idx in multi_indices(d, n):
        v = 1.0
        for i in idx:
            v *= x[i - 1]
        values.append(v)
    return SymTensor(d, n, values)


def random_tensor(rng: np.random.Generator, dim: int, rank: int, scale: float = 1.0) -> SymTensor:
    vals = rng.standard_normal(len(multi_indices(dim, rank))) * scale
    return SymTensor(dim, rank, vals.tolist())


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetrized tensor product of a (rank m) and b (rank n), rank m+n.

    Entry at multiset t averages a[u]*b[v] over all ways of splitting the
    positions of t between the factors.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim mismatch: {a.dim} vs {b.dim}")
    m, n = a.rank, b.rank
    if m == 0:
        return b.scale(a.item())
    if n == 0:
        return a.scale(b.item())
    # entry t gets its terms ways * a[u] * b[v] in ascending u, from +0.0;
    # a zero factor is skipped: its signed zero term cannot change a sum
    # that is never -0.0, and its ways * a[u] may overflow
    total = comb(m + n, m)
    live_b = [(j, y) for j, y in enumerate(b.values) if y]
    acc = [0.0] * len(multi_indices(a.dim, m + n))
    for x, row in zip(a.values, _product_plan(a.dim, m, n)):
        if x:
            for j, y in live_b:
                p, ways = row[j]
                acc[p] += ways * x * y
    return SymTensor(a.dim, m + n, [s / total for s in acc])


def pairing(a: SymTensor, b: SymTensor) -> float:
    """Dual pairing: sum of entrywise products over all ordered index tuples."""
    _check_shape(a.dim, a.rank, b)
    s = 0.0
    for w, x, y in zip(_multiplicities(a.dim, a.rank), a.values, b.values):
        if x and y:
            s += w * x * y
    return s


def partial_pairing(a: SymTensor, b: SymTensor) -> SymTensor:
    """Contract b (rank k) into the last k slots of a (rank n), leaving rank n-k.

    Uses the same ordered-tuple convention as pairing; k = n recovers the
    full pairing (as a rank-0 tensor).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim mismatch: {a.dim} vs {b.dim}")
    if b.rank > a.rank:
        raise RankMismatchError(f"cannot contract rank {b.rank} into rank {a.rank}")
    if b.rank == 0:
        return a.scale(b.item())
    k = b.rank
    av = a.values
    mult = _multiplicities(a.dim, k)
    nz = [(j, mult[j] * y) for j, y in enumerate(b.values) if y]
    out = []
    for row in _pairing_plan(a.dim, a.rank, k):
        acc = 0.0
        for j, w in nz:
            acc += w * av[row[j]]
        out.append(acc)
    return SymTensor(a.dim, a.rank - k, out)


# The batched routes work through their rows in blocks whose largest
# temporary holds about this many floats, so memory stays flat in the rows.
_BLOCK_FLOATS = 1 << 15


def _by_blocks(per_row: int, fn, *stacks) -> np.ndarray:
    """fn(*stacks), run on blocks of the rows of the 2-D stacks (1-D ones
    are shared by every block), the blocks' results stacked again; with no
    2-D stack, one call."""
    count = max((len(s) for s in stacks if s.ndim == 2), default=0)
    step = max(1, _BLOCK_FLOATS // max(per_row, 1))
    if count <= step:
        return fn(*stacks)
    cut = [[s[i : i + step] if s.ndim == 2 else s for s in stacks] for i in range(0, count, step)]
    return np.concatenate([fn(*block) for block in cut])


def eval_power_batch(a, xs) -> np.ndarray:
    """Sum over the tensors t of a, one SymTensor or a sequence of one dim,
    of the pairing of t against x^{tensor t.rank}, at each row x of xs.

    xs has shape (count, dim); a single point z is passed as [z].  The rows
    go through in blocks, each reading its coordinates once as columns.  A
    power is its prefix power, shared across grades, times one coordinate,
    as power_tensor multiplies.  Each grade adds its nonzero terms
    (multiplicity(u) * v) * x^u from +0.0 in multi_indices order, and the grade
    sums are added in order into +0.0: a grade sum is never -0.0, so one
    tensor gives its grade sum bit for bit.
    """
    grades = [a] if isinstance(a, SymTensor) else list(a)
    dims = sorted({t.dim for t in grades})
    if len(dims) != 1:
        raise DimensionMismatchError(f"tensors have dims {dims}, need one dim")
    dim = dims[0]
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise DimensionMismatchError(f"points have shape {xs.shape}, tensor has dim {dim}")
    terms = [
        [(w * v, u) for u, w, v in zip(multi_indices(dim, t.rank), _multiplicities(dim, t.rank), t.values) if v]
        for t in grades
    ]
    # the powers of rank 2 and up that the terms need; sorted, a prefix comes first
    chain = sorted({u[:k] for grade in terms for _, u in grade for k in range(2, len(u) + 1)})

    def block(x):
        cols = x.T.copy()
        powers = {(): 1.0} | {(i + 1,): c for i, c in enumerate(cols)}
        for u in chain:
            powers[u] = powers[u[:-1]] * cols[u[-1] - 1]
        out = np.zeros(len(x))
        for grade in terms:
            s = np.zeros(len(x))
            for w, u in grade:
                s += w * powers[u]
            out += s
        return out

    return _by_blocks(dim, block, xs)


@dataclass(frozen=True)
class HilbertScale:
    """Per-coordinate weights defining the norms |.|_p; p = 0 is Euclidean."""

    dim: int
    weights: tuple[float, ...] = field(default=None)

    def __post_init__(self) -> None:
        w = self.weights
        if w is None:
            w = tuple(float(i) for i in range(1, self.dim + 1))
            object.__setattr__(self, "weights", w)
        else:
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if len(self.weights) != self.dim:
            raise ValueError("need one weight per coordinate")
        if any(x <= 0 for x in self.weights):
            raise ValueError("weights must be positive")

    def tuple_weight(self, idx: tuple[int, ...], p: float) -> float:
        w = 1.0
        for i in idx:
            w *= self.weights[i - 1] ** p
        return w


@lru_cache(maxsize=None)
def _norm_weights(scale: HilbertScale, rank: int, p: float) -> tuple[float, ...]:
    """The weight of each entry of a rank-`rank` tensor in |.|_p^2, in
    multi_indices order: multiplicity(idx) * scale.tuple_weight(idx, 2p)."""
    return tuple(multiplicity(idx) * scale.tuple_weight(idx, 2.0 * p) for idx in multi_indices(scale.dim, rank))


def tensor_norm(a: SymTensor, p: float, scale: HilbertScale | None = None) -> float:
    """Weighted l2 norm over ordered tuples; negative p gives the dual norm."""
    if scale is None:
        scale = HilbertScale(a.dim)
    if scale.dim != a.dim:
        raise DimensionMismatchError(f"scale dim {scale.dim} != tensor dim {a.dim}")
    s = 0.0
    for c, v in zip(_norm_weights(scale, a.rank, p), a.values):
        if v:
            s += c * v * v
    return sqrt(s)


def norm_rows(values: np.ndarray, rank: int, p: float, scale: HilbertScale) -> np.ndarray:
    """tensor_norm of each row of values, the coefficients of one rank-`rank`
    tensor of dim scale.dim per row in multi_indices order.

    Each column adds (c * v) * v from +0.0, then the square root: that is
    tensor_norm's sum bit for bit, as a zero entry adds +0.0 to a sum that
    is never negative.
    """
    s = np.zeros(len(values))
    for j, c in enumerate(_norm_weights(scale, rank, p)):
        v = values[:, j]
        s = s + (c * v) * v
    return np.sqrt(s)
