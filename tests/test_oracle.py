"""Verification engines: exact vs sampled expectations, 1D integration."""

import math
import re

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
from appellsys import oracle
from appellsys.oracle import (
    QUAD_MAX_PANELS,
    QUAD_NODES,
    QUAD_SIGMAS,
    QUAD_TOL,
    _legendre_nodes,
    charlier,
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
        xs = rng.standard_normal((5, 2))
        assert eval_monomial_seq(prod, xs) == pytest.approx(
            eval_monomial_seq(f, xs) * eval_monomial_seq(g, xs), rel=1e-11
        )

    def test_batch_eval(self):
        # a batch of points gives, row by row, what each point gives alone
        rng = np.random.default_rng(2)
        f = monomial_seq(2, 3, {n: random_tensor(rng, 2, n) for n in range(4)})
        xs = rng.standard_normal((7, 2))
        vals = eval_monomial_seq(f, xs)
        assert vals.shape == (7,)
        for i in range(7):
            assert vals[i] == pytest.approx(eval_monomial_seq(f, [xs[i]])[0], rel=1e-12)


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
                    model, lambda xs: eval_monomial_seq(f, xs), 100_000, seed=5
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
            basis.model, lambda xs: eval_monomial_seq(mono, xs), 200_000, seed=6
        )
        assert abs(mean) < 4 * err


    @pytest.mark.parametrize("count", [0, 1, -4])
    def test_needs_two_samples(self, count):
        message = f"mc_expectation needs at least 2 samples, got {count}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_expectation(GaussianModel.standard(1), lambda xs: xs[:, 0], count, seed=0)

    @pytest.mark.parametrize(
        "evaluator, shape",
        [
            (lambda xs: xs[:10, 0], "(10,)"),
            (lambda xs: xs, "(1000, 1)"),
            (lambda xs: 1.0, "()"),
        ],
    )
    def test_needs_one_value_per_sample(self, evaluator, shape):
        message = f"evaluator must return one value per sample, shape (1000,); got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_expectation(GaussianModel.standard(1), evaluator, 1000, seed=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_needs_finite_values(self, bad):
        def evaluator(xs):
            vals = xs[:, 0].copy()
            vals[17] = bad
            return vals

        message = f"evaluator value at sample 17 is {bad}, not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_expectation(GaussianModel.standard(1), evaluator, 1000, seed=0)


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

    @pytest.mark.parametrize("nu", [708.4, 740.0, 746.0, 2000.0, 9000.0])
    def test_pmf_sum_rejects_a_subnormal_first_mass(self, nu):
        # exp(-nu) underflows past nu = 708.39: the mass once summed to 0.0, or 1.0026 at 740
        message = (
            f"Poisson intensity nu = {nu} is too large for pmf_sum: exp(-nu) is not "
            "a normal float (nu must be at most about 708.39)"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            pmf_sum(PoissonModel((nu,)), lambda k: 1.0)

    def test_pmf_sum_keeps_its_bits_up_to_nu_708(self):
        model = PoissonModel((708.0,))
        assert pmf_sum(model, lambda k: 1.0).hex() == "0x1.fffffffffffc7p-1"
        assert pmf_sum(model, lambda k: k).hex() == "0x1.61fffffffffdep+9"

    def test_nodes_are_computed_once_and_read_only(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
        _legendre_nodes.cache_clear()
        try:
            for _ in range(2):
                quad_1d(GaussianModel.standard(1), lambda x: 1.0)
            x0, w0 = _legendre_nodes()
        finally:
            _legendre_nodes.cache_clear()
        assert calls == [QUAD_NODES]
        assert not x0.flags.writeable and not w0.flags.writeable
        want = leggauss(QUAD_NODES)
        assert x0.tobytes() == want[0].tobytes() and w0.tobytes() == want[1].tobytes()


def reference_quad(model, integrand):
    """quad_1d's Gaussian route as a literal loop: linspace, the panel nodes
    and density1d at every node of every estimate."""
    L = QUAD_SIGMAS * math.sqrt(model.cov[0][0])
    x0, w0 = np.polynomial.legendre.leggauss(QUAD_NODES)

    def estimate(panels):
        edges = np.linspace(-L, L, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            xs = mid + half * x0
            total += half * sum(w * integrand(x) * model.density1d(x) for x, w in zip(xs, w0))
        return total

    panels = 4
    prev = estimate(panels)
    while panels < QUAD_MAX_PANELS:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) < QUAD_TOL:
            return cur
        prev = cur
    return prev


# smooth, oscillating and a step that never converges, so every panel count runs
QUAD_INTEGRANDS = {
    "one": lambda x: 1.0,
    "x": lambda x: x,
    "x^7": lambda x: x**7,
    "x^10": lambda x: x**10,
    "he4^2": lambda x: hermite_he(4, x) ** 2,
    "cos": lambda x: math.cos(x),
    "exp": lambda x: math.exp(x / 3.0),
    "sin40": lambda x: math.sin(40.0 * x),
    "step": lambda x: 1.0 if x > 0.3 else 0.0,
}


class TestQuad1dNodeTable:
    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("name", sorted(QUAD_INTEGRANDS))
    def test_matches_the_literal_loop_bit_for_bit(self, sigma2, name):
        model = GaussianModel.standard(1, sigma2)
        f = QUAD_INTEGRANDS[name]
        want = reference_quad(model, f).hex()
        assert [quad_1d(model, f).hex() for _ in range(2)] == [want, want]

    def test_density_runs_once_per_node_per_panel_count(self, monkeypatch):
        calls, nodes = [], set()
        density1d = GaussianModel.density1d
        monkeypatch.setattr(GaussianModel, "density1d", lambda self, x: calls.append((self, x)) or density1d(self, x))
        oracle._panel_nodes.cache_clear()
        try:
            models = [GaussianModel.standard(1, s2) for s2 in (0.5, 1.0)]
            for model in models:
                for f in QUAD_INTEGRANDS.values():
                    quad_1d(model, lambda x, f=f, model=model: nodes.add((model, x)) or f(x))
        finally:
            oracle._panel_nodes.cache_clear()
        # the step integrand runs every panel count, 4 + 8 + ... + 64 = 124 panels
        assert len(calls) == len(set(calls)) == len(nodes) == len(models) * QUAD_NODES * 124

    def test_the_table_is_a_module_level_cache(self):
        assert hasattr(vars(oracle)["_panel_nodes"], "cache_clear")


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
