"""Measure models: moment jets, samplers, and 1D densities.

Each model knows the jet of its normalized exponential-moment transform
(the kernels of which are the symmetric moment tensors), can draw
reproducible samples when a sampler exists, and in one dimension may
expose its density with exact derivatives for quadrature checks.  A model
given by its cumulants supplies only their table: the transform is the
exponential of the cumulant jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, sqrt, pi
from numbers import Integral

import numpy as np

from .jets import ScalarJet, jet_exp, jet_from_entries
from .symtensor import SymTensor, multi_indices

__all__ = [
    "MeasureModel",
    "GaussianModel",
    "PoissonModel",
    "DeltaModel",
    "MomentFileModel",
    "UnsupportedModelError",
    "DegreeOverflowError",
    "moment_kernels",
    "sample_batch",
    "nondegeneracy_check",
]

# Samples are drawn in fixed-size shards from independent counter-based
# streams, so a sharded/parallel consumer reproduces the sequential result.
# Shard k opens Philox(key=seed) at counter word 2 = k, the state that
# .jumped(k) reaches by advancing the counter k * 2**128.
_SHARD = 8192


class UnsupportedModelError(ValueError):
    pass


class DegreeOverflowError(ValueError):
    pass


class MeasureModel:
    """Base class; concrete models define cumulants (or laplace_jet) and
    optionally a sampler.  Two models are the same measure when they are
    equal: frozen dataclasses of one class with equal fields."""

    name: str = "abstract"
    dim: int = 0

    def cumulants(self, degree: int) -> dict[tuple[int, ...], float]:
        """The cumulant tensors as {multi-index: value}; absent entries are 0."""
        raise NotImplementedError

    def laplace_jet(self, degree: int) -> ScalarJet:
        """The moment jet, exp of the cumulant jet; equal models share one."""
        return _cumulant_jet(self, degree)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise UnsupportedModelError(f"model {self.name!r} has no sampler")


# Keyed on model values, which callers choose, so the memo is bounded; a
# verify run reads 27 distinct (model, degree) pairs.
@lru_cache(maxsize=128)
def _cumulant_jet(model: MeasureModel, degree: int) -> ScalarJet:
    """exp of the model's cumulant jet, computed once per (model, degree).

    Keyed on the model's value, so every caller of moment_kernels for an
    equal model reads the same immutable jet.
    """
    return jet_exp(jet_from_entries(model.dim, degree, model.cumulants(degree)))


@dataclass(frozen=True)
class GaussianModel(MeasureModel):
    """Centered Gaussian with covariance matrix cov (d x d)."""

    cov: tuple[tuple[float, ...], ...]
    name = "gaussian"

    def __post_init__(self) -> None:
        mat = np.asarray(self.cov, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("covariance must be a square matrix")
        bad = np.argwhere(~np.isfinite(mat))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"covariance must be finite; entry ({i}, {j}) is {mat[i, j]}")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        # a rounding-level negative eigenvalue of a singular PSD matrix passes
        if eigs[0] < -len(mat) * np.finfo(float).eps * np.abs(eigs).max():
            raise ValueError(
                f"covariance must be positive semidefinite; smallest eigenvalue {eigs[0]:.6g}"
            )
        # tuples of floats, so that a model given lists is hashable for the memo
        object.__setattr__(self, "cov", tuple(map(tuple, mat.tolist())))

    @staticmethod
    def standard(dim: int, sigma2: float = 1.0) -> "GaussianModel":
        if sigma2 <= 0:
            raise ValueError("variance must be positive")
        return GaussianModel(tuple(
            tuple(sigma2 if i == j else 0.0 for j in range(dim)) for i in range(dim)
        ))

    @property
    def dim(self) -> int:
        return len(self.cov)

    def cumulants(self, degree: int) -> dict[tuple[int, ...], float]:
        """kappa_2 = cov; no other cumulant."""
        return {(i, j): float(self.cov[i - 1][j - 1]) for i, j in multi_indices(self.dim, 2)}

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        chol = np.linalg.cholesky(np.asarray(self.cov))
        return rng.standard_normal((count, self.dim)) @ chol.T

    def density1d(self, x: float) -> float:
        if self.dim != 1:
            raise UnsupportedModelError("density1d requires d = 1")
        s2 = self.cov[0][0]
        return exp(-x * x / (2 * s2)) / sqrt(2 * pi * s2)

    def density_derivatives(self, x: float, up_to: int) -> list[float]:
        """rho^(k)(x) for k = 0..up_to, exact via the Hermite three-term recurrence."""
        if self.dim != 1:
            raise UnsupportedModelError("density derivatives require d = 1")
        s = sqrt(self.cov[0][0])
        rho = self.density1d(x)
        u = x / s
        he = [1.0, u]
        for k in range(2, up_to + 1):
            he.append(u * he[k - 1] - (k - 1) * he[k - 2])
        return [((-1.0 / s) ** k) * he[k] * rho for k in range(up_to + 1)]


@dataclass(frozen=True)
class PoissonModel(MeasureModel):
    """Independent Poisson coordinates with intensities nu_i."""

    nu: tuple[float, ...]
    name = "poisson"

    def __post_init__(self) -> None:
        if not self.nu:
            raise ValueError("intensities must be positive")
        for v in self.nu:
            if not 0 < v < inf:
                raise ValueError(f"intensities must be positive and finite, got {v}")
        object.__setattr__(self, "nu", tuple(map(float, self.nu)))

    @property
    def dim(self) -> int:
        return len(self.nu)

    def cumulants(self, degree: int) -> dict[tuple[int, ...], float]:
        """kappa_n = nu_i at (i, ..., i) for every n >= 1."""
        return {
            (i,) * n: float(v) for n in range(1, degree + 1) for i, v in enumerate(self.nu, 1)
        }

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.poisson(lam=self.nu, size=(count, self.dim)).astype(float)


def _check_dimension(d) -> None:
    """Reject a dimension that is not a positive integer; a bool is not one."""
    if isinstance(d, bool) or not isinstance(d, Integral):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")


@dataclass(frozen=True)
class DeltaModel(MeasureModel):
    """Point mass at the origin: no cumulant, transform identically 1."""

    d: int = 1
    name = "delta"

    def __post_init__(self) -> None:
        _check_dimension(self.d)

    @property
    def dim(self) -> int:
        return self.d

    def cumulants(self, degree: int) -> dict[tuple[int, ...], float]:
        return {}

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.zeros((count, self.d))


@dataclass(frozen=True)
class MomentFileModel(MeasureModel):
    """Moment tensors loaded from a fixture; exact checks only, no sampler."""

    label: str
    d: int
    max_degree: int
    moments: tuple[SymTensor, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.d)
        if len(self.moments) != self.max_degree + 1:
            raise ValueError(
                f"max_degree {self.max_degree} needs {self.max_degree + 1} moment tensors, "
                f"got {len(self.moments)}"
            )
        for n, t in enumerate(self.moments):
            if t.rank != n or t.dim != self.d:
                raise ValueError(
                    f"moment tensor {n} has dim {t.dim} and rank {t.rank}, "
                    f"expected dim {self.d} and rank {n}"
                )

    @property
    def name(self) -> str:
        return self.label

    @property
    def dim(self) -> int:
        return self.d

    def laplace_jet(self, degree: int) -> ScalarJet:
        if degree > self.max_degree:
            raise DegreeOverflowError(
                f"moments available to degree {self.max_degree}, requested {degree}"
            )
        return ScalarJet(self.d, degree, tuple(self.moments[: degree + 1]))


def moment_kernels(model: MeasureModel, degree: int) -> ScalarJet:
    """Degree-N jet of moment tensors; the constant kernel is always 1."""
    jet = model.laplace_jet(degree)
    c0 = jet.constant()
    if abs(c0 - 1.0) > 1e-12:
        raise ValueError(f"transform must be normalized at zero, got {c0}")
    return jet


def sample_batch(model: MeasureModel, count: int, seed: int) -> np.ndarray:
    """Reproducible i.i.d. draws, shape (count, dim); count 0 gives no rows."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise TypeError(f"sample count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"sample count must be non-negative, got {count}")
    # count 0 still draws one empty shard, so a model with no sampler raises
    chunks = []
    for shard, start in enumerate(range(0, count or 1, _SHARD)):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, shard, 0]))
        chunks.append(model.sample(rng, min(_SHARD, count - start)))
    return np.concatenate(chunks, axis=0)


# the smallest Gram eigenvalue at or below which a model counts as degenerate
NONDEGENERACY_TOL = 1e-10


def nondegeneracy_check(model: MeasureModel, degree: int) -> dict:
    """Gram matrix of monomials up to the given degree under the model.

    Entries come straight from the moment tensors; the report flags the
    model as degenerate when the smallest eigenvalue is at most
    NONDEGENERACY_TOL.
    """
    mjet = moment_kernels(model, 2 * degree)
    basis: list[tuple[int, ...]] = []
    for n in range(degree + 1):
        basis.extend(multi_indices(model.dim, n))
    gram = np.zeros((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            combined = tuple(sorted(a + b))
            gram[i, j] = mjet.kernels[len(combined)][combined]
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])
    return {
        "model": model.name,
        "degree": degree,
        "basis_size": len(basis),
        "min_eigenvalue": min_eig,
        "degenerate": bool(min_eig <= NONDEGENERACY_TOL),
        "tolerance": NONDEGENERACY_TOL,
    }
