"""Measure models: frozen moment values, samplers, densities, Gram checks."""

import math

import numpy as np
import pytest

from appellsys.appell import AppellBasis, BasisMismatchError, q_seq
from appellsys.jets import ScalarJet, jet_exp, unit_jet
from appellsys.measures import (
    DeltaModel,
    DegreeOverflowError,
    GaussianModel,
    MomentFileModel,
    PoissonModel,
    UnsupportedModelError,
    moment_kernels,
    nondegeneracy_check,
    sample_batch,
)
from appellsys.remeasure import change_alpha_dist
from appellsys.symtensor import SymTensor, multi_indices, pairing, power_tensor, scalar_tensor

BELL = [1, 1, 2, 5, 15, 52, 203]


def kernels_1d(jet):
    return [jet.kernels[n][(1,) * n] for n in range(jet.degree + 1)]


class TestMomentKernels:
    def test_delta_unit(self):
        jet = moment_kernels(DeltaModel(2), 4)
        assert jet.constant() == 1.0
        assert all(jet.kernels[n].max_abs() == 0 for n in range(1, 5))

    def test_gaussian_double_factorials(self):
        jet = moment_kernels(GaussianModel.standard(1), 6)
        assert kernels_1d(jet) == pytest.approx([1, 0, 1, 0, 3, 0, 15])

    def test_gaussian_odd_vanish_multidim(self):
        cov = ((1.0, 0.3), (0.3, 2.0))
        jet = moment_kernels(GaussianModel(cov), 5)
        for n in (1, 3, 5):
            assert jet.kernels[n].max_abs() == 0.0

    def test_gaussian_isserlis_rank4(self):
        cov = ((1.0, 0.5), (0.5, 2.0))
        jet = moment_kernels(GaussianModel(cov), 4)
        # E[x_1^2 x_2^2] = s11 s22 + 2 s12^2
        assert jet.kernels[4][(1, 1, 2, 2)] == pytest.approx(
            cov[0][0] * cov[1][1] + 2 * cov[0][1] ** 2
        )

    def test_poisson_bell_numbers(self):
        jet = moment_kernels(PoissonModel((1.0,)), 6)
        assert kernels_1d(jet) == pytest.approx(BELL)

    def test_poisson_mixed_moments_factorize(self):
        jet = moment_kernels(PoissonModel((1.0, 2.0)), 4)
        # independent coordinates: E[x1^2 x2^2] = Bell-type moments per axis
        m2_nu1 = 1 + 1  # E[X^2], X ~ Poisson(1)
        m2_nu2 = 2 + 4  # E[X^2], X ~ Poisson(2)
        assert jet.kernels[4][(1, 1, 2, 2)] == pytest.approx(m2_nu1 * m2_nu2)

    def test_moment_file_round_trip_and_overflow(self):
        src = moment_kernels(GaussianModel.standard(1), 4)
        model = MomentFileModel("fixture", 1, 4, tuple(src.kernels))
        assert kernels_1d(moment_kernels(model, 3)) == pytest.approx([1, 0, 1, 0])
        with pytest.raises(DegreeOverflowError):
            model.laplace_jet(5)


class TestModelValidation:
    @pytest.mark.parametrize(
        "cov, smallest", [(((-1.0,),), "-1"), (((1.0, 2.0), (2.0, 1.0)), "-1")]
    )
    def test_gaussian_rejects_a_negative_eigenvalue(self, cov, smallest):
        # the second one used to build a basis and fail in sample_batch
        with pytest.raises(ValueError, match=f"smallest eigenvalue {smallest}$"):
            GaussianModel(cov)

    def test_gaussian_accepts_singular_psd_covariances(self):
        # v v^T has rounding-level eigenvalues on either side of zero
        rng = np.random.default_rng(3)
        negative = 0
        for d in (2, 3, 5):
            for _ in range(20):
                v = rng.standard_normal((d, 1))
                cov = v @ v.T
                negative += np.linalg.eigvalsh(cov)[0] < 0
                GaussianModel(tuple(tuple(float(x) for x in row) for row in cov))
        assert negative > 0
        GaussianModel(((0.0, 0.0), (0.0, 0.0)))

    def test_moment_file_needs_one_tensor_per_degree(self):
        src = moment_kernels(GaussianModel.standard(1), 2)
        with pytest.raises(ValueError, match="max_degree 4 needs 5 moment tensors, got 3"):
            MomentFileModel("x", 1, 4, tuple(src.kernels))

    def test_moment_file_tensor_shapes_are_checked(self):
        two = moment_kernels(GaussianModel.standard(2), 2).kernels
        one = moment_kernels(GaussianModel.standard(1), 2).kernels
        with pytest.raises(ValueError, match="moment tensor 1 has dim 2 and rank 1"):
            MomentFileModel("x", 1, 2, (one[0], two[1], one[2]))
        with pytest.raises(ValueError, match="moment tensor 2 has dim 1 and rank 1"):
            MomentFileModel("x", 1, 2, (one[0], one[1], one[1]))


def zeros(d, n):
    return SymTensor(d, n, {k: 0.0 for k in multi_indices(d, n)})


def hand_built_gaussian_jet(model, degree):
    """The Gaussian moment jet with its cumulant kernels written out."""
    d = model.dim
    ks = [scalar_tensor(d, 0.0), zeros(d, 1)]
    if degree >= 2:
        q = {k: 0.0 for k in multi_indices(d, 2)}
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                q[(i, j)] = float(model.cov[i - 1][j - 1])
        ks.append(SymTensor(d, 2, q))
    ks += [zeros(d, n) for n in range(3, degree + 1)]
    return jet_exp(ScalarJet(d, degree, tuple(ks[: degree + 1])))


def hand_built_poisson_jet(model, degree):
    """The Poisson moment jet with its cumulant kernels written out."""
    d = model.dim
    ks = [scalar_tensor(d, 0.0)]
    for n in range(1, degree + 1):
        t = {k: 0.0 for k in multi_indices(d, n)}
        for i in range(1, d + 1):
            t[(i,) * n] = float(model.nu[i - 1])
        ks.append(SymTensor(d, n, t))
    return jet_exp(ScalarJet(d, degree, tuple(ks)))


def bits(jet):
    return [[v.hex() for v in k.coeffs.values()] for k in jet.kernels]


class TestCumulantRoute:
    @pytest.mark.parametrize("degree", range(7))
    def test_laplace_jet_matches_hand_built_kernels(self, degree):
        a = np.random.default_rng(3).standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        gauss = GaussianModel(tuple(tuple(float(x) for x in row) for row in cov))
        poisson = PoissonModel((0.5, 1.0, 2.5))
        assert bits(gauss.laplace_jet(degree)) == bits(hand_built_gaussian_jet(gauss, degree))
        assert bits(poisson.laplace_jet(degree)) == bits(hand_built_poisson_jet(poisson, degree))
        assert bits(DeltaModel(2).laplace_jet(degree)) == bits(unit_jet(2, degree))

    def test_models_are_compared_by_value(self):
        src = moment_kernels(PoissonModel((1.0, 2.0)), 4).kernels
        forward = tuple(SymTensor(2, n, dict(k.coeffs)) for n, k in enumerate(src))
        backward = tuple(
            SymTensor(2, n, dict(reversed(list(k.coeffs.items())))) for n, k in enumerate(src)
        )
        first = MomentFileModel("fixture", 2, 4, forward)
        second = MomentFileModel("fixture", 2, 4, backward)
        assert first == second
        assert AppellBasis(first, degree=4).same_basis(AppellBasis(second, degree=4))

    def test_a_moment_file_is_not_the_model_it_was_read_from(self):
        gauss = GaussianModel.standard(1)
        carried = MomentFileModel("gaussian", 1, 4, tuple(moment_kernels(gauss, 4).kernels))
        by_model = AppellBasis(gauss, degree=4)
        by_file = AppellBasis(carried, degree=4)
        assert not by_model.same_basis(by_file)
        with pytest.raises(BasisMismatchError):
            change_alpha_dist(by_model, by_file, q_seq(by_model, {0: scalar_tensor(1, 1.0)}))


class TestSampler:
    def test_delta_all_zero(self):
        xs = sample_batch(DeltaModel(2), 100, seed=1)
        assert xs.shape == (100, 2)
        assert np.all(xs == 0)

    def test_deterministic_per_seed(self):
        a = sample_batch(GaussianModel.standard(2), 1000, seed=7)
        b = sample_batch(GaussianModel.standard(2), 1000, seed=7)
        c = sample_batch(GaussianModel.standard(2), 1000, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prefix_stable_across_counts(self):
        # shard structure: the first draws do not depend on the total count
        a = sample_batch(PoissonModel((2.0,)), 500, seed=3)
        b = sample_batch(PoissonModel((2.0,)), 10000, seed=3)
        assert np.array_equal(a, b[:500])

    def test_gaussian_mean_within_clt_band(self):
        xs = sample_batch(GaussianModel.standard(1), 100_000, seed=11)
        assert abs(xs.mean()) < 4.0 / math.sqrt(100_000)

    def test_poisson_mean_within_clt_band(self):
        xs = sample_batch(PoissonModel((2.0,)), 100_000, seed=13)
        stderr = xs.std() / math.sqrt(100_000)
        assert abs(xs.mean() - 2.0) < 4.0 * stderr

    def test_gaussian_covariance_realized(self):
        cov = ((1.0, 0.6), (0.6, 2.0))
        xs = sample_batch(GaussianModel(cov), 200_000, seed=17)
        emp = np.cov(xs.T)
        assert np.allclose(emp, np.asarray(cov), atol=0.05)

    def test_momentfile_has_no_sampler(self):
        model = MomentFileModel("fixture", 1, 2, tuple(moment_kernels(DeltaModel(1), 2).kernels))
        for count in (10, 0):
            with pytest.raises(UnsupportedModelError):
                sample_batch(model, count, seed=0)

    def test_zero_count_gives_no_rows(self):
        for model in (GaussianModel.standard(2), PoissonModel((1.0, 2.0, 3.0)), DeltaModel(1)):
            xs = sample_batch(model, 0, seed=4)
            assert xs.shape == (0, model.dim)
            assert xs.dtype == sample_batch(model, 3, seed=4).dtype

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="-3"):
            sample_batch(GaussianModel.standard(1), -3, seed=0)

    def test_mc_laplace_matches_jet(self):
        # sampled transform vs truncated jet at small theta, all models
        rng = np.random.default_rng(19)
        for model in (GaussianModel.standard(2), PoissonModel((1.0, 0.5)), DeltaModel(2)):
            jet = moment_kernels(model, 10)
            theta = 0.1 * rng.standard_normal(2)
            xs = sample_batch(model, 100_000, seed=23)
            vals = np.exp(xs @ theta)
            mc, stderr = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(mc - jet.eval_batch([theta])[0]) < 3 * stderr + 1e-6


class TestDensity:
    def test_standard_normal_at_zero(self):
        assert GaussianModel.standard(1).density1d(0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi)
        )

    def test_first_derivative_identity(self):
        model = GaussianModel.standard(1)
        rho = model.density1d(1.0)
        d = model.density_derivatives(1.0, 1)
        assert d[1] == pytest.approx(-1.0 * rho)

    def test_second_derivative_at_zero(self):
        model = GaussianModel.standard(1)
        d = model.density_derivatives(0.0, 2)
        assert d[2] == pytest.approx(-1.0 / math.sqrt(2 * math.pi))

    def test_matches_finite_differences(self):
        model = GaussianModel.standard(1)
        h = 1e-5
        for x in (-1.3, 0.2, 2.1):
            d = model.density_derivatives(x, 3)
            fd1 = (model.density1d(x + h) - model.density1d(x - h)) / (2 * h)
            fd2 = (
                model.density1d(x + h) - 2 * model.density1d(x) + model.density1d(x - h)
            ) / h**2
            assert d[1] == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert d[2] == pytest.approx(fd2, rel=1e-4, abs=1e-6)

    def test_scaled_variance(self):
        model = GaussianModel.standard(1, sigma2=4.0)
        h = 1e-5
        x = 0.7
        d = model.density_derivatives(x, 1)
        fd1 = (model.density1d(x + h) - model.density1d(x - h)) / (2 * h)
        assert d[1] == pytest.approx(fd1, rel=1e-6)

    def test_poisson_unsupported(self):
        # only the Gaussian model has a density
        assert not hasattr(PoissonModel((1.0,)), "density_derivatives")

    def test_multivariate_gaussian_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            GaussianModel.standard(2).density_derivatives(0.0, 2)


class TestNondegeneracy:
    def test_delta_degenerate(self):
        report = nondegeneracy_check(DeltaModel(1), 1)
        assert report["degenerate"]

    def test_gaussian_nondegenerate(self):
        report = nondegeneracy_check(GaussianModel.standard(1), 3)
        assert not report["degenerate"]
        assert report["min_eigenvalue"] > 0

    def test_poisson_nondegenerate(self):
        report = nondegeneracy_check(PoissonModel((1.0,)), 3)
        assert not report["degenerate"]

    def test_gram_matches_hankel_for_1d(self):
        # 1D Gram of (1, x, x^2) is the Hankel matrix of moments
        report = nondegeneracy_check(GaussianModel.standard(1), 2)
        moments = [1, 0, 1, 0, 3]
        hankel = np.array([[moments[i + j] for j in range(3)] for i in range(3)])
        assert report["min_eigenvalue"] == pytest.approx(
            float(np.linalg.eigvalsh(hankel)[0])
        )


def test_moment_growth_surrogate():
    # |<M_n, theta^n>| <= n! C^n |theta|^n: the per-degree fitted constants
    # C_n = max_theta (|<M_n, theta^n>| / n!)^(1/n) / |theta| must stay
    # bounded in n for the factorial growth shape to be the right one.
    rng = np.random.default_rng(29)
    for model in (GaussianModel.standard(2), PoissonModel((1.0, 1.0))):
        jet = moment_kernels(model, 6)
        c_by_degree = {n: 0.0 for n in range(1, 7)}
        for _ in range(300):
            theta = rng.standard_normal(2)
            tnorm = float(np.linalg.norm(theta))
            for n in range(1, 7):
                v = abs(pairing(jet.kernels[n], power_tensor(theta, n)))
                if v > 0:
                    c = (v / math.factorial(n)) ** (1.0 / n) / tnorm
                    c_by_degree[n] = max(c_by_degree[n], c)
        cs = [c for c in c_by_degree.values() if c > 0]
        assert all(math.isfinite(c) for c in cs)
        assert max(cs) <= 10.0 * min(cs)
        # the fitted constant then bounds the sweep it was fitted on
        c_fit = max(cs)
        for _ in range(100):
            theta = rng.standard_normal(2)
            tnorm = float(np.linalg.norm(theta))
            for n in range(1, 7):
                v = abs(pairing(jet.kernels[n], power_tensor(theta, n)))
                assert v <= math.factorial(n) * (c_fit * tnorm) ** n * 2.0
