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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, isfinite, sqrt

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


@lru_cache(maxsize=None)
def _splits(idx: tuple[int, ...], m: int) -> tuple[tuple[tuple, tuple, int], ...]:
    """Distinct splits of the multiset idx into (u, v) with |u| = m.

    The weight counts how many of the comb(len(idx), m) position subsets
    realize the split, i.e. prod_c C(count_idx(c), count_u(c)).
    """
    items = sorted(Counter(idx).items())
    tail_capacity = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + items[i][1]
    out = []

    def rec(i: int, need: int, taken: list[int]) -> None:
        if need == 0:
            u, v, ways = [], [], 1
            for (val, cnt), tk in zip(items, taken + [0] * (len(items) - len(taken))):
                u += [val] * tk
                v += [val] * (cnt - tk)
                ways *= comb(cnt, tk)
            out.append((tuple(u), tuple(v), ways))
            return
        if i == len(items) or need > tail_capacity[i]:
            return
        cnt = items[i][1]
        for tk in range(min(cnt, need), -1, -1):
            rec(i + 1, need - tk, taken + [tk])

    rec(0, m, [])
    return tuple(out)


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


@dataclass(frozen=True)
class SymTensor:
    """Immutable symmetric tensor; coeffs holds one entry per multiset index."""

    dim: int
    rank: int
    coeffs: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        keys = multi_indices(self.dim, self.rank)
        if set(self.coeffs) != set(keys):
            raise ValueError(
                f"coefficient table must have exactly one entry per multiset index "
                f"(expected {len(keys)}, got {len(self.coeffs)})"
            )
        for k, v in self.coeffs.items():
            if not isfinite(v):
                raise ValueError(f"non-finite coefficient at index {k}: {v}")

    def __getitem__(self, idx: tuple[int, ...]) -> float:
        return self.coeffs[tuple(sorted(idx))]

    def item(self) -> float:
        """The scalar value of a rank-0 tensor."""
        if self.rank != 0:
            raise RankMismatchError(f"item() requires rank 0, got rank {self.rank}")
        return self.coeffs[()]

    def scale(self, c: float) -> "SymTensor":
        return SymTensor(self.dim, self.rank, {k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other: "SymTensor") -> "SymTensor":
        _check_same_shape(self, other)
        return SymTensor(
            self.dim, self.rank, {k: v + other.coeffs[k] for k, v in self.coeffs.items()}
        )

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + other.scale(-1.0)

    def __neg__(self) -> "SymTensor":
        return self.scale(-1.0)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.coeffs.values())

    def full(self) -> np.ndarray:
        """Expand to the dense (dim,)*rank array (oracle-sized ranks only)."""
        out = np.zeros((self.dim,) * self.rank)
        for idx, v in self.coeffs.items():
            from itertools import permutations

            for p in set(permutations(idx)):
                out[tuple(i - 1 for i in p)] = v
        return out


def _check_same_shape(a: SymTensor, b: SymTensor) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim mismatch: {a.dim} vs {b.dim}")
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


def is_live(t: SymTensor) -> bool:
    """Whether t has a nonzero coefficient.

    Grade loops form only products of live kernels.  The skip is exact: a
    sum that starts at +0.0 is never -0.0, so adding a signed zero to it
    changes nothing.
    """
    return any(t.coeffs.values())


def zero_tensor(dim: int, rank: int) -> SymTensor:
    return SymTensor(dim, rank, {k: 0.0 for k in multi_indices(dim, rank)})


def scalar_tensor(dim: int, value: float) -> SymTensor:
    return SymTensor(dim, 0, {(): float(value)})


def basis_vector(dim: int, i: int) -> SymTensor:
    """The i-th coordinate vector (1-based) as a rank-1 tensor."""
    return SymTensor(dim, 1, {(j,): 1.0 if j == i else 0.0 for j in range(1, dim + 1)})


def vector_tensor(x) -> SymTensor:
    x = np.asarray(x, dtype=float)
    return SymTensor(len(x), 1, {(j,): float(x[j - 1]) for j in range(1, len(x) + 1)})


def power_tensor(x, n: int) -> SymTensor:
    """x^{tensor n}: full entries are products of coordinates."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    coeffs = {}
    for idx in multi_indices(d, n):
        v = 1.0
        for i in idx:
            v *= x[i - 1]
        coeffs[idx] = v
    return SymTensor(d, n, coeffs)


def random_tensor(rng: np.random.Generator, dim: int, rank: int, scale: float = 1.0) -> SymTensor:
    keys = multi_indices(dim, rank)
    vals = rng.standard_normal(len(keys)) * scale
    return SymTensor(dim, rank, {k: float(v) for k, v in zip(keys, vals)})


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
    total = comb(m + n, m)
    ac, bc = a.coeffs, b.coeffs
    coeffs = {}
    for t in multi_indices(a.dim, m + n):
        s = 0.0
        for u, v, ways in _splits(t, m):
            au = ac[u]
            if au:
                bv = bc[v]
                if bv:
                    s += ways * au * bv
        coeffs[t] = s / total
    return SymTensor(a.dim, m + n, coeffs)


def pairing(a: SymTensor, b: SymTensor) -> float:
    """Dual pairing: sum of entrywise products over all ordered index tuples."""
    _check_same_shape(a, b)
    s = 0.0
    bc = b.coeffs
    for k, av in a.coeffs.items():
        if av:
            bv = bc[k]
            if bv:
                s += multiplicity(k) * av * bv
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
    ac = a.coeffs
    coeffs = {}
    nz = [(u, multiplicity(u) * bv) for u, bv in b.coeffs.items() if bv]
    for s in multi_indices(a.dim, a.rank - k):
        acc = 0.0
        for u, w in nz:
            acc += w * ac[_merge(s, u)]
        coeffs[s] = acc
    return SymTensor(a.dim, a.rank - k, coeffs)


def eval_power_batch(a: SymTensor, xs) -> np.ndarray:
    """Pairing of a against x^{tensor rank} at each row x of xs.

    xs holds count points of dimension a.dim, shape (count, dim); a single
    point z is passed as [z].  The result has length count.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != a.dim:
        raise DimensionMismatchError(f"points have shape {xs.shape}, tensor has dim {a.dim}")
    out = np.zeros(xs.shape[0])
    for idx, v in a.coeffs.items():
        if v:
            prod = np.ones(xs.shape[0])
            for i in idx:
                prod *= xs[:, i - 1]
            out += multiplicity(idx) * v * prod
    return out


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


def tensor_norm(a: SymTensor, p: float, scale: HilbertScale | None = None) -> float:
    """Weighted l2 norm over ordered tuples; negative p gives the dual norm."""
    if scale is None:
        scale = HilbertScale(a.dim)
    if scale.dim != a.dim:
        raise DimensionMismatchError(f"scale dim {scale.dim} != tensor dim {a.dim}")
    s = 0.0
    for idx, v in a.coeffs.items():
        if v:
            s += multiplicity(idx) * scale.tuple_weight(idx, 2.0 * p) * v * v
    return sqrt(s)
