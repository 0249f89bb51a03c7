"""Measure models: moment jets, samplers, and 1D densities.

Each model knows the jet of its normalized exponential-moment transform
(the kernels of which are the symmetric moment tensors), can draw
reproducible samples when a sampler exists, and in one dimension may
expose its density with exact derivatives for quadrature checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, sqrt, pi

import numpy as np

from .jets import ScalarJet, jet_exp, unit_jet
from .symtensor import SymTensor, multi_indices, scalar_tensor, zero_tensor

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
_SHARD = 8192


class UnsupportedModelError(ValueError):
    pass


class DegreeOverflowError(ValueError):
    pass


class MeasureModel:
    """Base class; concrete models define laplace_jet and optionally a sampler."""

    name: str = "abstract"
    dim: int = 0

    def laplace_jet(self, degree: int) -> ScalarJet:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise UnsupportedModelError(f"model {self.name!r} has no sampler")

    def key(self) -> tuple:
        """Hashable identity used to detect basis mismatches."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianModel(MeasureModel):
    """Centered Gaussian with covariance matrix cov (d x d)."""

    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.cov, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")

    @staticmethod
    def standard(dim: int, sigma2: float = 1.0) -> "GaussianModel":
        if sigma2 <= 0:
            raise ValueError("variance must be positive")
        return GaussianModel(tuple(
            tuple(sigma2 if i == j else 0.0 for j in range(dim)) for i in range(dim)
        ))

    @property
    def name(self) -> str:
        return "gaussian"

    @property
    def dim(self) -> int:
        return len(self.cov)

    def key(self) -> tuple:
        return ("gaussian", self.cov)

    def laplace_jet(self, degree: int) -> ScalarJet:
        d = self.dim
        ks = [scalar_tensor(d, 0.0), zero_tensor(d, 1)]
        if degree >= 2:
            q = {k: 0.0 for k in multi_indices(d, 2)}
            for i in range(1, d + 1):
                for j in range(i, d + 1):
                    q[(i, j)] = float(self.cov[i - 1][j - 1])
            ks.append(SymTensor(d, 2, q))
        ks += [zero_tensor(d, n) for n in range(3, degree + 1)]
        return jet_exp(ScalarJet(d, degree, tuple(ks[: degree + 1])))

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

    def __post_init__(self) -> None:
        if not self.nu or any(v <= 0 for v in self.nu):
            raise ValueError("intensities must be positive")

    @property
    def name(self) -> str:
        return "poisson"

    @property
    def dim(self) -> int:
        return len(self.nu)

    def key(self) -> tuple:
        return ("poisson", self.nu)

    def laplace_jet(self, degree: int) -> ScalarJet:
        d = self.dim
        ks = [scalar_tensor(d, 0.0)]
        for n in range(1, degree + 1):
            t = {k: 0.0 for k in multi_indices(d, n)}
            for i in range(1, d + 1):
                t[(i,) * n] = float(self.nu[i - 1])
            ks.append(SymTensor(d, n, t))
        return jet_exp(ScalarJet(d, degree, tuple(ks)))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.poisson(lam=self.nu, size=(count, self.dim)).astype(float)


@dataclass(frozen=True)
class DeltaModel(MeasureModel):
    """Point mass at the origin; transform identically 1."""

    d: int = 1

    @property
    def name(self) -> str:
        return "delta"

    @property
    def dim(self) -> int:
        return self.d

    def key(self) -> tuple:
        return ("delta", self.d)

    def laplace_jet(self, degree: int) -> ScalarJet:
        return unit_jet(self.d, degree)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.zeros((count, self.d))


@dataclass(frozen=True)
class MomentFileModel(MeasureModel):
    """Moment tensors loaded from a fixture; exact checks only, no sampler."""

    label: str
    d: int
    max_degree: int
    moments: tuple[SymTensor, ...]

    @property
    def name(self) -> str:
        return self.label

    @property
    def dim(self) -> int:
        return self.d

    def key(self) -> tuple:
        entries = tuple(tuple(sorted(m.coeffs.items())) for m in self.moments)
        return ("momentfile", self.label, entries)

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
    """Reproducible i.i.d. draws, shape (count, dim)."""
    chunks = []
    got = 0
    shard = 0
    while got < count:
        take = min(_SHARD, count - got)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(shard))
        chunks.append(model.sample(rng, take))
        got += take
        shard += 1
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
