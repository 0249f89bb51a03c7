"""Verification engines: exact vs sampled expectations, 1D integration."""

import math

import numpy as np
import pytest

from appellsys.appell import AppellBasis, eval_monomial_seq, monomial_seq, p_seq, to_appell
from appellsys.jets import log1p_vjet
from appellsys.measures import (
    DeltaModel,
    GaussianModel,
    PoissonModel,
    UnsupportedModelError,
)
from appellsys.oracle import (
    charlier,
    eval_polynomial_batch,
    exact_expectation,
    exact_product_expectation,
    hermite_h,
    hermite_he,
    hermite_he_coeffs,
    mc_expectation,
    pmf_sum,
    poly_product,
    quad_1d,
    s_transform_of_polynomial,
)
from appellsys.symtensor import SymTensor, random_tensor, scalar_tensor

def tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


class TestExactExpectation:
    def test_constant(self):
        f = monomial_seq(1, 2, {0: scalar_tensor(1, 7.0)})
        assert exact_expectation(GaussianModel.standard(1), f) == pytest.approx(7.0)

    def test_gaussian_fourth_moment(self):
        f = monomial_seq(1, 4, {4: tensor_1d(4, 1.0)})
        assert exact_expectation(GaussianModel.standard(1), f) == pytest.approx(3.0)

    def test_poisson_third_moment_bell(self):
        f = monomial_seq(1, 3, {3: tensor_1d(3, 1.0)})
        assert exact_expectation(PoissonModel((1.0,)), f) == pytest.approx(5.0)

    def test_2d_mixed_moment(self):
        cov = ((1.0, 0.5), (0.5, 2.0))
        f = monomial_seq(2, 2, {2: SymTensor(2, 2, {(1, 1): 0.0, (1, 2): 1.0, (2, 2): 0.0})})
        # full tensor has two entries at (1,2) and (2,1): E = 2 * cov_12
        assert exact_expectation(GaussianModel(cov), f) == pytest.approx(1.0)


class TestPolyProduct:
    def test_product_against_pointwise(self):
        rng = np.random.default_rng(1)
        f = monomial_seq(2, 3, {n: random_tensor(rng, 2, n) for n in range(4)})
        g = monomial_seq(2, 2, {n: random_tensor(rng, 2, n) for n in range(3)})
        prod = poly_product(f, g)
        assert prod.degree == 5
        for _ in range(5):
            x = rng.standard_normal(2)
            assert eval_monomial_seq(prod, x) == pytest.approx(
                eval_monomial_seq(f, x) * eval_monomial_seq(g, x), rel=1e-11
            )

    def test_batch_eval(self):
        rng = np.random.default_rng(2)
        f = monomial_seq(2, 3, {n: random_tensor(rng, 2, n) for n in range(4)})
        xs = rng.standard_normal((7, 2))
        vals = eval_polynomial_batch(f, xs)
        for i in range(7):
            assert vals[i] == pytest.approx(eval_monomial_seq(f, xs[i]), rel=1e-12)


class TestProductExpectation:
    def test_constant_pair(self):
        basis = AppellBasis(GaussianModel.standard(1), degree=4)
        one = p_seq(basis, {0: scalar_tensor(1, 1.0)})
        assert exact_product_expectation(basis, one, one) == pytest.approx(1.0)

    def test_hermite_squared_norm(self):
        basis = AppellBasis(GaussianModel.standard(1), degree=4)
        he2 = p_seq(basis, {2: tensor_1d(2, 1.0)})
        assert exact_product_expectation(basis, he2, he2) == pytest.approx(2.0)

    def test_charlier_cross_orthogonality(self):
        basis = AppellBasis(PoissonModel((1.0,)), log1p_vjet(1, 5), degree=5)
        c2 = p_seq(basis, {2: tensor_1d(2, 1.0)})
        c3 = p_seq(basis, {3: tensor_1d(3, 1.0)})
        assert exact_product_expectation(basis, c2, c3) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(3)
        basis = AppellBasis(GaussianModel.standard(2), degree=3)
        a = p_seq(basis, {n: random_tensor(rng, 2, n) for n in range(4)})
        b = p_seq(basis, {n: random_tensor(rng, 2, n) for n in range(4)})
        ab = exact_product_expectation(basis, a, b)
        ba = exact_product_expectation(basis, b, a)
        assert ab == pytest.approx(ba, rel=1e-11)


class TestMonteCarlo:
    def test_constant(self):
        mean, err = mc_expectation(
            DeltaModel(1), lambda xs: np.full(xs.shape[0], 7.0), 1000, seed=0
        )
        assert mean == 7.0 and err == 0.0

    def test_gaussian_square(self):
        mean, err = mc_expectation(
            GaussianModel.standard(1), lambda xs: xs[:, 0] ** 2, 100_000, seed=1
        )
        assert abs(mean - 1.0) < 3 * err

    def test_exact_matches_mc_random_polys(self):
        rng = np.random.default_rng(4)
        for model in (GaussianModel.standard(2), PoissonModel((1.0, 2.0))):
            for _ in range(5):
                f = monomial_seq(
                    2, 4, {n: random_tensor(rng, 2, n, scale=0.5) for n in range(5)}
                )
                exact = exact_expectation(model, f)
                mean, err = mc_expectation(
                    model, lambda xs: eval_polynomial_batch(f, xs), 100_000, seed=5
                )
                assert abs(mean - exact) < 4 * err + 1e-9

    def test_centered_polynomial_near_zero(self):
        # degree-3 system polynomial has zero mean; the sampled estimate
        # must sit inside its own error band
        basis = AppellBasis(PoissonModel((1.0,)), log1p_vjet(1, 4), degree=4)
        from appellsys.appell import to_monomial

        phi = p_seq(basis, {3: tensor_1d(3, 1.0)})
        mono = to_monomial(basis, phi)
        mean, err = mc_expectation(
            basis.model, lambda xs: eval_polynomial_batch(mono, xs), 200_000, seed=6
        )
        assert abs(mean) < 4 * err


class TestQuad1d:
    def test_gaussian_normalization(self):
        assert quad_1d(GaussianModel.standard(1), lambda x: 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hermite_norm(self):
        val = quad_1d(GaussianModel.standard(1), lambda x: hermite_he(2, x) ** 2)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_matches_exact_moments_to_degree_10(self):
        model = GaussianModel.standard(1)
        for n in range(0, 11, 2):
            f = monomial_seq(1, n, {n: tensor_1d(n, 1.0)})
            exact = exact_expectation(model, f)
            quad = quad_1d(model, lambda x, n=n: x**n)
            assert quad == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_poisson_charlier_norm(self):
        model = PoissonModel((1.0,))
        val = pmf_sum(model, lambda k: charlier(1, k, 1.0) ** 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            quad_1d(DeltaModel(1), lambda x: 1.0)


class TestClassicalPolynomials:
    def test_he_frozen_values(self):
        assert hermite_he(2, 2.0) == 3.0
        assert [hermite_he(n, 0.0) for n in range(7)] == [1, 0, -1, 0, 3, 0, -15]

    def test_he_coeffs_match_eval(self):
        for n in range(9):
            cs = hermite_he_coeffs(n)
            for x in (-1.5, 0.3, 2.0):
                val = sum(c * x**k for k, c in enumerate(cs))
                assert val == pytest.approx(hermite_he(n, x), rel=1e-12, abs=1e-12)

    def test_physicists_relation(self):
        for n in range(8):
            for x in (-1.0, 0.5, 1.7):
                lhs = 2.0 ** (-n / 2.0) * hermite_h(n, x / math.sqrt(2.0))
                assert lhs == pytest.approx(hermite_he(n, x), rel=1e-10, abs=1e-10)

    def test_charlier_frozen(self):
        assert charlier(2, 3.0, 1.0) == pytest.approx(1.0)  # x^2 - 3x + 1 at 3
        assert charlier(1, 2.0, 1.0) == pytest.approx(1.0)

    def test_charlier_poisson_orthogonality(self):
        model = PoissonModel((1.5,))
        nu = 1.5
        for n in range(4):
            for m in range(4):
                val = pmf_sum(model, lambda k: charlier(n, k, nu) * charlier(m, k, nu))
                expected = math.factorial(n) * nu**n if n == m else 0.0
                assert val == pytest.approx(expected, abs=1e-10)


class TestSTransformPolynomial:
    def test_gaussian_square(self):
        f = monomial_seq(1, 2, {2: tensor_1d(2, 1.0)})
        jet = s_transform_of_polynomial(GaussianModel.standard(1), f, 4)
        # the transform of the square under the standard Gaussian: 1 + theta^2
        got = [jet.kernels[n][(1,) * n] for n in range(5)]
        assert got == pytest.approx([1.0, 0.0, 2.0, 0.0, 0.0], abs=1e-12)

    def test_matches_kernel_route_identity_alpha(self):
        # for the identity reparametrization the transform of a test
        # function equals its plain-system coefficient expansion
        rng = np.random.default_rng(7)
        basis = AppellBasis(GaussianModel.standard(2), degree=4)
        mono = monomial_seq(2, 4, {n: random_tensor(rng, 2, n) for n in range(5)})
        phi = to_appell(basis, mono)
        jet = s_transform_of_polynomial(basis.model, mono, 4)
        for n in range(5):
            expected = phi.kernels[n].scale(math.factorial(n))
            assert (jet.kernels[n] - expected).max_abs() < 1e-10
