"""The polynomial/distribution system: generating identities, conversions,
operators, pairings, evaluation functionals, norms."""

import math
import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from appellsys.appell import (
    AppellBasis,
    BasisMismatchError,
    KernelSeq,
    P_TAG,
    Q_TAG,
    appell_constants,
    appell_eval,
    convolution,
    delta_appell_eval,
    delta_z,
    diff_op,
    dist_norm,
    estimate_sigma_eps,
    eval_monomial_seq,
    eval_test,
    gen_appell_all,
    generating_jet,
    growth_bound_check,
    g_nabla_apply,
    monomial_seq,
    pair,
    p_seq,
    q_kernel_make,
    q_seq,
    radon_nikodym,
    s_inverse,
    s_transform,
    test_norm as graded_test_norm,
    to_appell,
    to_monomial,
)
from appellsys.jets import (
    ScalarJet,
    VectorJet,
    identity_vjet,
    jet_compose_scalar,
    jet_mul,
    linear_jet,
    log1p_vjet,
    random_vjet,
)
from appellsys.measures import DeltaModel, GaussianModel, PoissonModel
from appellsys.oracle import (
    charlier,
    exact_expectation,
    hermite_he,
    hermite_he_coeffs,
)
from appellsys.symtensor import (
    DimensionMismatchError,
    SymTensor,
    multi_indices,
    pairing,
    power_tensor,
    random_tensor,
    scalar_tensor,
    sym_product,
    tensor_norm,
    vector_tensor,
    zero_tensor,
)


def tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


def random_pseq(rng, basis, max_grade=None, scale=1.0):
    top = basis.degree if max_grade is None else max_grade
    return p_seq(
        basis,
        {n: random_tensor(rng, basis.dim, n, scale=scale) for n in range(top + 1)},
    )


def random_qseq(rng, basis, scale=1.0):
    return q_seq(
        basis,
        {n: random_tensor(rng, basis.dim, n, scale=scale) for n in range(basis.degree + 1)},
    )


class TestConstants:
    def test_delta_constants_vanish(self, delta1d_basis):
        consts = appell_constants(delta1d_basis)
        assert consts[0].item() == 1.0
        assert all(c.max_abs() == 0 for c in consts[1:])

    def test_gaussian_constants_are_hermite_at_zero(self, gauss1d_basis):
        consts = appell_constants(gauss1d_basis)
        got = [consts[n][(1,) * n] for n in range(7)]
        expected = [hermite_he_coeffs(n)[0] if n % 2 == 0 else 0.0 for n in range(7)]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_poisson_constants(self, poisson1d_log1p_basis):
        # kernels of exp(1 - e^theta): derivatives at zero
        import sympy as sp

        x = sp.Symbol("x")
        series = sp.series(sp.exp(1 - sp.exp(x)), x, 0, 7).removeO()
        poly = sp.Poly(series, x)
        expected = [float(poly.coeff_monomial(x**n)) * factorial(n) for n in range(7)]
        consts = appell_constants(poisson1d_log1p_basis)
        got = [consts[n][(1,) * n] for n in range(7)]
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestBasisInvariants:
    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            AppellBasis(GaussianModel.standard(1), degree=degree)

    def test_moment_and_constant_jets_are_reciprocal(
        self, gauss1d_basis, poisson1d_log1p_basis, gauss2d_basis
    ):
        from appellsys.jets import jet_mul

        for basis in (gauss1d_basis, poisson1d_log1p_basis, gauss2d_basis):
            for pair_ in [(basis.m_jet, basis.u_jet), (basis.malpha_jet, basis.ualpha_jet)]:
                prod = jet_mul(*pair_)
                assert prod.constant() == pytest.approx(1.0, rel=1e-12)
                for n in range(1, basis.degree + 1):
                    assert prod.kernels[n].max_abs() < 1e-11


class TestKernelSeqShape:
    """A P- or Q-tagged sequence has its basis's dim and degree."""

    @pytest.mark.parametrize("tag", [P_TAG, Q_TAG])
    @pytest.mark.parametrize("dim, degree", [(2, 3), (2, 5), (1, 4), (3, 4)])
    def test_shape_other_than_the_basis_rejected(self, tag, dim, degree):
        basis = AppellBasis(GaussianModel.standard(2), degree=4)
        kernels = tuple(zero_tensor(dim, n) for n in range(degree + 1))
        want = f"sequence has (dim, degree) {(dim, degree)}, its basis (2, 4)"
        with pytest.raises(ValueError, match=re.escape(want)):
            KernelSeq(tag, dim, degree, kernels, basis)


class TestPlainEval:
    def test_at_zero_returns_constants(self, gauss1d_basis):
        consts = appell_constants(gauss1d_basis)
        for n in range(7):
            got = appell_eval(gauss1d_basis, n, [0.0])
            assert (got - consts[n]).max_abs() < 1e-14

    def test_gaussian_p2_is_x2_minus_1(self, gauss1d_basis):
        for x in (-1.5, 0.0, 2.0):
            t = appell_eval(gauss1d_basis, 2, [x])
            assert t[(1, 1)] == pytest.approx(x * x - 1.0)

    def test_gaussian_matches_hermite(self, gauss1d_basis):
        for n in range(7):
            for x in (-2.0, 0.3, 1.7):
                t = appell_eval(gauss1d_basis, n, [x])
                assert t[(1,) * n] == pytest.approx(hermite_he(n, x), rel=1e-12, abs=1e-12)

    def test_delta_gives_powers(self, delta1d_basis):
        z = [1.7]
        for n in range(5):
            t = appell_eval(delta1d_basis, n, z)
            assert (t - power_tensor(z, n)).max_abs() < 1e-13

    def test_grade_overflow(self, gauss1d_basis):
        with pytest.raises(ValueError):
            appell_eval(gauss1d_basis, 7, [0.0])

    def test_negative_grade_rejected(self, gauss1d_basis):
        with pytest.raises(ValueError, match="grade -1 is negative"):
            appell_eval(gauss1d_basis, -1, [0.0])


class TestGeneralizedEval:
    def test_identity_alpha_reduces_to_plain(self, gauss2d_basis):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(2)
        tensors = gen_appell_all(gauss2d_basis, z)
        for n in range(6):
            a = tensors[n]
            b = appell_eval(gauss2d_basis, n, z)
            assert (a - b).max_abs() < 1e-11

    def test_poisson_log1p_gives_charlier(self, poisson1d_log1p_basis):
        for x in (0.0, 1.0, 2.5, 4.0):
            tensors = gen_appell_all(poisson1d_log1p_basis, [x])
            for n, t in enumerate(tensors):
                assert t[(1,) * n] == pytest.approx(charlier(n, x, 1.0), rel=1e-10, abs=1e-10)

    def test_charlier2_closed_form(self, poisson1d_log1p_basis):
        x = 3.0
        t = gen_appell_all(poisson1d_log1p_basis, [x])[2]
        assert t[(1, 1)] == pytest.approx(x * x - 3 * x + 1)

    def test_matches_generating_jet(self):
        # the tensors are the kernels of exp<z, alpha(theta)> / l(alpha(theta))
        rng = np.random.default_rng(2)
        cases = [
            AppellBasis(GaussianModel.standard(2), random_vjet(rng, 2, 5), degree=5),
            AppellBasis(PoissonModel((1.0, 0.5)), log1p_vjet(2, 5), degree=5),
            AppellBasis(DeltaModel(3), random_vjet(rng, 3, 4), degree=4),
        ]
        for basis in cases:
            z = rng.standard_normal(basis.dim)
            jet = generating_jet(basis, z)
            for got, want in zip(gen_appell_all(basis, z), jet.kernels, strict=True):
                assert (got - want).max_abs() < 1e-10

    def test_delta_model_any_alpha(self):
        # point-mass system: kernels of exp<w, alpha(theta)>
        rng = np.random.default_rng(3)
        alpha = random_vjet(rng, 2, 5)
        basis = AppellBasis(DeltaModel(2), alpha, degree=5)
        w = rng.standard_normal(2)
        lin = linear_jet(2, 5, w)
        from appellsys.jets import jet_exp

        jet = jet_exp(jet_compose_scalar(lin, alpha))
        for got, want in zip(gen_appell_all(basis, w), jet.kernels, strict=True):
            assert (got - want).max_abs() < 1e-11


class TestDeltaAppellEval:
    def test_identity_gives_powers(self, gauss1d_basis):
        w = [2.0]
        t = delta_appell_eval(gauss1d_basis, 3, w)
        assert t[(1, 1, 1)] == pytest.approx(8.0)

    def test_grade_zero(self, gauss1d_basis):
        assert delta_appell_eval(gauss1d_basis, 0, [0.5]).item() == 1.0

    def test_log1p_falling_factorial(self, poisson1d_log1p_basis):
        # kernels of (1 + theta)^w are falling factorials of w
        w = 3.0
        expected = [1.0, 3.0, 6.0, 6.0, 0.0, 0.0, 0.0]
        for n in range(7):
            t = delta_appell_eval(poisson1d_log1p_basis, n, [w])
            assert t[(1,) * n] == pytest.approx(expected[n], abs=1e-10)

    def test_negative_grade_rejected(self, gauss1d_basis):
        with pytest.raises(ValueError, match="grade -1 is negative"):
            delta_appell_eval(gauss1d_basis, -1, [0.5])

    def test_wrong_length_w_rejected(self, gauss2d_basis):
        # grade 0 reads no power kernel, so the check must not rely on one
        for n in (0, 2):
            for w in ([1.0, 2.0, 5.0], [1.0], [[1.0, 2.0]]):
                with pytest.raises(DimensionMismatchError):
                    delta_appell_eval(gauss2d_basis, n, w)

    def test_agrees_with_delta_model_basis(self, poisson1d_log1p_basis):
        basis = poisson1d_log1p_basis
        dbasis = AppellBasis(DeltaModel(1), basis.alpha, basis.degree)
        w = [1.3]
        tensors = gen_appell_all(dbasis, w)
        for n in range(7):
            a = delta_appell_eval(poisson1d_log1p_basis, n, w)
            b = tensors[n]
            assert (a - b).max_abs() < 1e-12


class TestBasisConversion:
    def test_degree_zero_unchanged(self, poisson1d_log1p_basis):
        f = p_seq(poisson1d_log1p_basis, {0: scalar_tensor(1, 2.5)})
        mono = to_monomial(poisson1d_log1p_basis, f)
        assert mono.kernels[0].item() == 2.5
        assert mono.max_grade() == 0

    def test_gaussian_x2_expansion(self, gauss1d_basis):
        # x^2 expands with unit coefficients at grades 0 and 2
        f = monomial_seq(1, 6, {2: tensor_1d(2, 1.0)})
        app = to_appell(gauss1d_basis, f)
        got = [app.kernels[n][(1,) * n] for n in range(7)]
        assert got == pytest.approx([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_he2_to_monomial(self, gauss1d_basis):
        f = p_seq(gauss1d_basis, {2: tensor_1d(2, 1.0)})
        mono = to_monomial(gauss1d_basis, f)
        got = [mono.kernels[n][(1,) * n] for n in range(7)]
        assert got == pytest.approx([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_grade_outside_zero_to_degree_rejected(self, gauss1d_basis):
        makers = (
            lambda entries: monomial_seq(1, 6, entries),
            lambda entries: p_seq(gauss1d_basis, entries),
            lambda entries: q_seq(gauss1d_basis, entries),
        )
        for make in makers:
            with pytest.raises(ValueError, match="grade -1 is negative"):
                make({-1: scalar_tensor(1, 5.0)})
            with pytest.raises(ValueError, match="grade -2 is negative"):
                make({0: scalar_tensor(1, 1.0), -1: scalar_tensor(1, 5.0), -2: scalar_tensor(1, 5.0)})
            with pytest.raises(ValueError, match="grade 7 exceeds truncation degree 6"):
                make({7: tensor_1d(7, 1.0)})

    def test_round_trip_identity(self, gauss2d_basis, poisson2d_log1p_basis):
        rng = np.random.default_rng(4)
        for basis in (gauss2d_basis, poisson2d_log1p_basis):
            f = random_pseq(rng, basis, max_grade=4)
            back = to_appell(basis, to_monomial(basis, f))
            for n in range(basis.degree + 1):
                assert (back.kernels[n] - f.kernels[n]).max_abs() < 1e-10

    def test_round_trip_other_direction(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(5)
        f = monomial_seq(
            2, 5, {n: random_tensor(rng, 2, n) for n in range(6)}
        )
        back = to_monomial(poisson2d_log1p_basis, to_appell(poisson2d_log1p_basis, f))
        for n in range(6):
            assert (back.kernels[n] - f.kernels[n]).max_abs() < 1e-10

    def test_pointwise_value_preserved(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(6)
        f = random_pseq(rng, poisson2d_log1p_basis, max_grade=4)
        mono = to_monomial(poisson2d_log1p_basis, f)
        zs = rng.standard_normal((5, 2))
        values = eval_monomial_seq(mono, zs)
        for z, value in zip(zs, values):
            assert eval_test(poisson2d_log1p_basis, f, z) == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_tag_mismatch_rejected(self, gauss1d_basis):
        f = monomial_seq(1, 6, {0: scalar_tensor(1, 1.0)})
        with pytest.raises(ValueError):
            to_monomial(gauss1d_basis, f)


class TestDiffOp:
    def test_first_derivative_on_x2(self):
        f = monomial_seq(1, 4, {2: tensor_1d(2, 1.0)})
        out = diff_op(tensor_1d(1, 1.0), f)
        # d/dx x^2 = 2x
        assert out.kernels[1][(1,)] == pytest.approx(2.0)
        assert out.max_grade() == 1

    def test_low_grades_annihilated(self):
        f = monomial_seq(1, 4, {1: tensor_1d(1, 1.0)})
        out = diff_op(tensor_1d(3, 1.0), f)
        assert all(k.max_abs() == 0 for k in out.kernels)

    def test_square_of_first_order_is_second_order(self):
        rng = np.random.default_rng(7)
        f = monomial_seq(2, 4, {n: random_tensor(rng, 2, n) for n in range(5)})
        phi1 = random_tensor(rng, 2, 1)
        twice = diff_op(phi1, diff_op(phi1, f))
        once = diff_op(sym_product(phi1, phi1), f)
        for n in range(5):
            assert (twice.kernels[n] - once.kernels[n]).max_abs() < 1e-11

    def test_rank_zero_multiplies(self):
        f = monomial_seq(1, 3, {1: tensor_1d(1, 2.0)})
        out = diff_op(scalar_tensor(1, 3.0), f)
        assert out.kernels[1][(1,)] == pytest.approx(6.0)

    def test_linear_in_coefficient(self):
        rng = np.random.default_rng(8)
        f = monomial_seq(2, 4, {4: random_tensor(rng, 2, 4)})
        a = random_tensor(rng, 2, 2)
        b = random_tensor(rng, 2, 2)
        lhs = diff_op(a + b, f)
        rhs_a, rhs_b = diff_op(a, f), diff_op(b, f)
        for n in range(5):
            assert (lhs.kernels[n] - rhs_a.kernels[n] - rhs_b.kernels[n]).max_abs() < 1e-11


class TestGradient:
    def test_identity_alpha_is_directional_derivative(self, gauss1d_basis):
        f = monomial_seq(1, 6, {2: tensor_1d(2, 1.0)})
        out = g_nabla_apply(gauss1d_basis, [1.0], f)
        assert out.kernels[1][(1,)] == pytest.approx(2.0)
        assert out.max_grade() == 1

    def test_wrong_length_xi_rejected(self, gauss2d_basis):
        f = monomial_seq(2, 5, {2: power_tensor([1.0, 2.0], 2)})
        for xi in ([1.0, 2.0, 5.0], [1.0], [[1.0, 2.0]]):
            with pytest.raises(DimensionMismatchError):
                g_nabla_apply(gauss2d_basis, xi, f)

    def test_poisson_log1p_is_finite_difference(self, poisson1d_log1p_basis):
        # on x^3 the shift difference is 3x^2 + 3x + 1
        f = monomial_seq(1, 6, {3: tensor_1d(3, 1.0)})
        out = g_nabla_apply(poisson1d_log1p_basis, [1.0], f)
        got = [out.kernels[n][(1,) * n] for n in range(4)]
        assert got == pytest.approx([1.0, 3.0, 3.0, 0.0])

    def test_finite_difference_oracle_random_poly(self, poisson1d_log1p_basis):
        rng = np.random.default_rng(9)
        f = monomial_seq(1, 6, {n: tensor_1d(n, rng.standard_normal()) for n in range(6)})
        out = g_nabla_apply(poisson1d_log1p_basis, [1.0], f)
        xs = np.array([[-1.0], [0.5], [2.0]])
        direct = eval_monomial_seq(f, xs + 1.0) - eval_monomial_seq(f, xs)
        assert eval_monomial_seq(out, xs) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_symbol_identity_on_exponential_jet(self):
        # applying the operator to the truncated exponential with small
        # parameter theta multiplies it by the symbol <xi, g(theta)>; the
        # truncation tail carries high powers of theta only
        rng = np.random.default_rng(10)
        N = 6
        alpha = random_vjet(rng, 2, N)
        basis = AppellBasis(GaussianModel.standard(2), alpha, degree=N)
        xi = rng.standard_normal(2)
        x = rng.standard_normal(2)
        theta = 0.05 * rng.standard_normal(2)

        # truncation of exp<., theta> as a polynomial sequence in x
        f = monomial_seq(
            2,
            N,
            {n: power_tensor(theta, n).scale(1.0 / factorial(n)) for n in range(N + 1)},
        )
        out = g_nabla_apply(basis, xi, f)
        lhs = eval_monomial_seq(out, [x])[0]

        gv = basis.g_alpha.eval_batch([theta])[0]
        symbol = float(np.dot(xi, gv))
        rhs = symbol * eval_monomial_seq(f, [x])[0]
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


class TestSTransform:
    def test_grade_overflow_rejected(self, gauss1d_basis):
        with pytest.raises(ValueError):
            q_kernel_make(gauss1d_basis, tensor_1d(7, 1.0))

    def test_identity_alpha_rank1(self, gauss1d_basis):
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 2.0))
        jet = s_transform(gauss1d_basis, Phi)
        # transform of the grade-1 distribution with kernel a is a*theta
        assert jet.kernels[1][(1,)] == pytest.approx(2.0)
        assert jet.kernels[0].item() == 0.0
        assert all(jet.kernels[n].max_abs() == 0 for n in range(2, 7))

    def test_composition_with_alpha_recovers_eta_power(self, poisson1d_log1p_basis):
        basis = poisson1d_log1p_basis
        rng = np.random.default_rng(11)
        n = 3
        Phi = q_kernel_make(basis, tensor_1d(n, 1.7))
        jet = s_transform(basis, Phi)
        composed = jet_compose_scalar(jet, basis.alpha, basis.A)
        # expected: the function eta -> <Phi, eta^n>, EGF kernel n! Phi at n
        for m in range(basis.degree + 1):
            expected = tensor_1d(n, 1.7 * factorial(n)) if m == n else zero_tensor(1, m)
            assert (composed.kernels[m] - expected).max_abs() < 1e-10

    def test_s_inverse_round_trip(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(12)
        Phi = random_qseq(rng, poisson2d_log1p_basis)
        back = s_inverse(poisson2d_log1p_basis, s_transform(poisson2d_log1p_basis, Phi))
        for n in range(poisson2d_log1p_basis.degree + 1):
            assert (back.kernels[n] - Phi.kernels[n]).max_abs() < 1e-10

    def test_adjoint_route_pairing(self, poisson1d_log1p_basis, gauss1d_basis):
        # <<Q_n(xi^n), phi>> computed as the exact expectation of the n-fold
        # gradient application equals n! <xi^n, phi^(n)>
        rng = np.random.default_rng(13)
        for basis in (poisson1d_log1p_basis, gauss1d_basis):
            xi = np.array([1.0])
            for n in range(4):
                phi = random_pseq(rng, basis, max_grade=4)
                mono = to_monomial(basis, phi)
                work = mono
                for _ in range(n):
                    work = g_nabla_apply(basis, xi, work)
                adjoint_value = exact_expectation(basis.model, work)
                expected = factorial(n) * pairing(power_tensor(xi, n), phi.kernels[n])
                assert adjoint_value == pytest.approx(expected, rel=1e-9, abs=1e-9)


def stirling2(N):
    """Stirling numbers of the second kind S[m][n] for 0 <= n <= m <= N."""
    S = [[0] * (N + 1) for _ in range(N + 1)]
    S[0][0] = 1
    for m in range(1, N + 1):
        for n in range(1, m + 1):
            S[m][n] = n * S[m - 1][n] + S[m - 1][n - 1]
    return S


def max_rel_error(kernels, exact):
    """Largest |kernel - exact| / max(1, |exact|) over the grades of a 1D sequence."""
    return max(
        float(abs(Fraction(k.coeffs[(1,) * n]) - e) / max(1, abs(e)))
        for n, (k, e) in enumerate(zip(kernels, exact))
    )


class TestExactLog1pReference:
    """Poisson nu = 1, d = 1, alpha = log1p against exact rationals.

    The inverse jet is expm1, and kernel m of (e^theta - 1)^n is
    n! S(m, n), so s_transform kernel m is sum_n n! S(m, n) Phi_n.  The
    generalized system is the Charlier family, in which x^k has the
    coefficients sum_n S(k, n) C(n, j).  The float inputs are exact
    Fractions.  The power kernels of log1p hold Stirling numbers of the
    first kind, and a triangular solve through them loses three to five
    digits on these inputs; the tolerances catch that.
    """

    @staticmethod
    def basis(N):
        return AppellBasis(PoissonModel((1.0,)), log1p_vjet(1, N), degree=N)

    @pytest.mark.parametrize("N", [14, 16])
    def test_s_transform_gives_bell_numbers(self, N):
        # Phi_n = 1/n! makes kernel m the Bell number sum_n S(m, n)
        vals = [1.0 / factorial(n) for n in range(N + 1)]
        basis = self.basis(N)
        Phi = q_seq(basis, {n: tensor_1d(n, v) for n, v in enumerate(vals)})
        S = stirling2(N)
        exact = [
            sum(factorial(n) * S[m][n] * Fraction(vals[n]) for n in range(m + 1))
            for m in range(N + 1)
        ]
        assert max_rel_error(s_transform(basis, Phi).kernels, exact) < 1e-13

    @pytest.mark.parametrize("N", [14, 16])
    def test_to_appell_expands_in_charlier_polynomials(self, N):
        # the truncated series of exp(4x)
        vals = [4.0**k / factorial(k) for k in range(N + 1)]
        f = monomial_seq(1, N, {k: tensor_1d(k, v) for k, v in enumerate(vals)})
        S = stirling2(N)
        exact = [
            sum(
                Fraction(vals[k]) * sum(S[k][n] * comb(n, j) for n in range(j, k + 1))
                for k in range(j, N + 1)
            )
            for j in range(N + 1)
        ]
        assert max_rel_error(to_appell(self.basis(N), f).kernels, exact) < 1e-14


class TestPairing:
    def test_grade_zero(self, gauss1d_basis):
        Phi = q_seq(gauss1d_basis, {0: scalar_tensor(1, 2.0)})
        phi = p_seq(gauss1d_basis, {0: scalar_tensor(1, 3.0)})
        assert pair(gauss1d_basis, Phi, phi) == pytest.approx(6.0)

    def test_biorthogonality_of_grades(self, poisson1d_log1p_basis):
        Phi = q_seq(poisson1d_log1p_basis, {2: tensor_1d(2, 1.5)})
        phi = p_seq(poisson1d_log1p_basis, {3: tensor_1d(3, 0.7)})
        assert pair(poisson1d_log1p_basis, Phi, phi) == 0.0

    def test_definition_on_grade2(self, gauss2d_basis):
        rng = np.random.default_rng(14)
        a = random_tensor(rng, 2, 2)
        b = random_tensor(rng, 2, 2)
        Phi = q_seq(gauss2d_basis, {2: a})
        phi = p_seq(gauss2d_basis, {2: b})
        assert pair(gauss2d_basis, Phi, phi) == pytest.approx(2.0 * pairing(a, b))

    def test_basis_mismatch_rejected(self, gauss1d_basis, poisson1d_log1p_basis):
        Phi = q_seq(gauss1d_basis, {0: scalar_tensor(1, 1.0)})
        phi = p_seq(poisson1d_log1p_basis, {0: scalar_tensor(1, 1.0)})
        with pytest.raises(BasisMismatchError, match="remeasure"):
            pair(gauss1d_basis, Phi, phi)

    def test_basis_identity_is_model_alpha_and_degree(self):
        model, d, deg = GaussianModel.standard(2), 2, 3
        first = AppellBasis(model, random_vjet(np.random.default_rng(5), d, deg), deg)
        twin = AppellBasis(model, random_vjet(np.random.default_rng(5), d, deg), deg)
        assert twin.alpha is not first.alpha
        Phi = q_seq(first, {1: vector_tensor([1.0, 2.0])})
        phi = p_seq(twin, {1: vector_tensor([0.5, -1.0])})
        assert pair(first, Phi, phi) == pair(twin, Phi, phi)
        comps = list(twin.alpha.components)
        ks = list(comps[1].kernels)
        ks[2] = SymTensor(d, 2, {**ks[2].coeffs, (1, 2): ks[2].coeffs[(1, 2)] + 2.0**-20})
        comps[1] = ScalarJet(d, deg, tuple(ks))
        other = AppellBasis(model, VectorJet(d, deg, tuple(comps)), deg)
        with pytest.raises(BasisMismatchError):
            pair(first, Phi, p_seq(other, {1: vector_tensor([0.5, -1.0])}))


class TestEvaluationFunctionals:
    def test_eval_test_degree_zero(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {0: scalar_tensor(1, 4.2)})
        assert eval_test(gauss1d_basis, phi, [0.3]) == pytest.approx(4.2)

    def test_eval_test_he2_at_2(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {2: tensor_1d(2, 1.0)})
        assert eval_test(gauss1d_basis, phi, [2.0]) == pytest.approx(3.0)

    def test_eval_matches_monomial_route(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(15)
        phi = random_pseq(rng, poisson2d_log1p_basis, max_grade=4)
        mono = to_monomial(poisson2d_log1p_basis, phi)
        z = rng.standard_normal(2)
        assert eval_test(poisson2d_log1p_basis, phi, z) == pytest.approx(
            eval_monomial_seq(mono, [z])[0], rel=1e-10
        )

    def test_delta_z_evaluates(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(16)
        phi = random_pseq(rng, poisson2d_log1p_basis)
        for _ in range(4):
            z = rng.standard_normal(2)
            dz = delta_z(poisson2d_log1p_basis, z)
            assert pair(poisson2d_log1p_basis, dz, phi) == pytest.approx(
                eval_test(poisson2d_log1p_basis, phi, z), rel=1e-10, abs=1e-10
            )

    def test_delta_zero_evaluates_at_origin(self, gauss1d_basis):
        rng = np.random.default_rng(17)
        phi = random_pseq(rng, gauss1d_basis)
        d0 = delta_z(gauss1d_basis, [0.0])
        assert pair(gauss1d_basis, d0, phi) == pytest.approx(
            eval_test(gauss1d_basis, phi, [0.0]), rel=1e-10
        )


class TestRadonNikodym:
    def test_zero_shift_is_expectation(self, gauss1d_basis):
        rng = np.random.default_rng(18)
        rn = radon_nikodym(gauss1d_basis, [0.0])
        assert rn.kernels[0].item() == 1.0
        assert all(rn.kernels[n].max_abs() < 1e-14 for n in range(1, 7))
        phi = random_pseq(rng, gauss1d_basis)
        mono = to_monomial(gauss1d_basis, phi)
        assert pair(gauss1d_basis, rn, phi) == pytest.approx(
            exact_expectation(gauss1d_basis.model, mono), rel=1e-10
        )

    def test_gaussian_shifted_square(self, gauss1d_basis):
        # integral of (x - 1)^2 under the standard Gaussian is 2
        phi = to_appell(gauss1d_basis, monomial_seq(1, 6, {2: tensor_1d(2, 1.0)}))
        rn = radon_nikodym(gauss1d_basis, [1.0])
        assert pair(gauss1d_basis, rn, phi) == pytest.approx(2.0, rel=1e-12)

    def test_identity_alpha_kernels_are_shifted_powers(self, gauss1d_basis):
        z = np.array([0.7])
        rn = radon_nikodym(gauss1d_basis, z)
        for n in range(7):
            expected = power_tensor(-z, n).scale(1.0 / factorial(n))
            assert (rn.kernels[n] - expected).max_abs() < 1e-12

    def test_shift_moment_oracle(self, poisson1d_log1p_basis):
        # pairing against the shift kernel equals the exact moment of the
        # shifted polynomial
        rng = np.random.default_rng(19)
        basis = poisson1d_log1p_basis
        phi = random_pseq(rng, basis, max_grade=4)
        mono = to_monomial(basis, phi)
        z = 0.8
        rn = radon_nikodym(basis, [z])
        # shifted polynomial phi(x - z) in monomial kernels, 1D binomial shift
        shifted = {n: zero_tensor(1, n) for n in range(7)}
        for m in range(7):
            c = mono.kernels[m][(1,) * m] if m > 0 else mono.kernels[0].item()
            if c == 0.0:
                continue
            for k in range(m + 1):
                shifted[k] = shifted[k] + tensor_1d(k, c * comb(m, k) * (-z) ** (m - k))
        shifted_seq = monomial_seq(1, 6, shifted)
        assert pair(basis, rn, phi) == pytest.approx(
            exact_expectation(basis.model, shifted_seq), rel=1e-9, abs=1e-9
        )


class TestConvolution:
    def test_degree_zero(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {0: scalar_tensor(1, 5.0)})
        assert convolution(gauss1d_basis, phi, [2.0]) == 5.0

    def test_gaussian_x2(self, gauss1d_basis):
        phi = to_appell(gauss1d_basis, monomial_seq(1, 6, {2: tensor_1d(2, 1.0)}))
        # integral of (x + z)^2 = z^2 + 1
        assert convolution(gauss1d_basis, phi, [2.0]) == pytest.approx(5.0)

    def test_matches_shifted_moment(self, gauss2d_basis):
        rng = np.random.default_rng(20)
        basis = gauss2d_basis
        phi = random_pseq(rng, basis, max_grade=3)
        mono = to_monomial(basis, phi)
        z = rng.standard_normal(2)
        # independent route: E[phi(. + z)] = sum_n <E[(x+z)^n], psi_n>
        mjet = basis.m_jet
        total = 0.0
        for n in range(basis.degree + 1):
            psi = mono.kernels[n]
            if psi.max_abs() == 0.0:
                continue
            acc = zero_tensor(2, n)
            for k in range(n + 1):
                acc = acc + sym_product(power_tensor(z, n - k), mjet.kernels[k]).scale(
                    comb(n, k)
                )
            total += pairing(acc, psi)
        assert convolution(basis, phi, z) == pytest.approx(total, rel=1e-10)

    def test_rejects_nonidentity_alpha(self, poisson1d_log1p_basis):
        phi = p_seq(poisson1d_log1p_basis, {0: scalar_tensor(1, 1.0)})
        with pytest.raises(ValueError):
            convolution(poisson1d_log1p_basis, phi, [0.0])

    def test_gaussian_s_equals_c_poisson_differs(self, gauss1d_basis):
        from appellsys.oracle import s_transform_of_polynomial

        f = monomial_seq(1, 6, {2: tensor_1d(2, 1.0)})
        phi_g = to_appell(gauss1d_basis, f)
        sg = s_transform_of_polynomial(gauss1d_basis.model, f, 6)
        for z in (0.5, 2.0):
            assert convolution(gauss1d_basis, phi_g, [z]) == pytest.approx(
                sg.eval_batch([[z]])[0], rel=1e-10
            )
        pbasis = AppellBasis(PoissonModel((1.0,)), degree=6)
        phi_p = to_appell(pbasis, f)
        sp_jet = s_transform_of_polynomial(pbasis.model, f, 6)
        diffs = [
            abs(convolution(pbasis, phi_p, [z]) - sp_jet.eval_batch([[z]])[0]) for z in (0.5, 2.0)
        ]
        assert max(diffs) > 1e-3


class TestStructureIdentities:
    def test_p3_additive_expansion(self, poisson2d_log1p_basis):
        # trinomial expansion of the tensors at z + w
        rng = np.random.default_rng(21)
        basis = poisson2d_log1p_basis
        z, w = rng.standard_normal(2), rng.standard_normal(2)
        tz, tw, tzw = (gen_appell_all(basis, x) for x in (z, w, z + w))
        for n in range(basis.degree + 1):
            lhs = tzw[n]
            rhs = zero_tensor(2, n)
            for k in range(n + 1):
                for l in range(n - k + 1):
                    m = n - k - l
                    coeff = factorial(n) / (factorial(k) * factorial(l) * factorial(m))
                    rhs = rhs + sym_product(
                        sym_product(tz[k], tw[l]),
                        basis.malpha_jet.kernels[m],
                    ).scale(coeff)
            assert (lhs - rhs).max_abs() < 1e-10

    def test_p4_delta_decomposition(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(22)
        basis = poisson2d_log1p_basis
        z, w = rng.standard_normal(2), rng.standard_normal(2)
        tz, tzw = gen_appell_all(basis, z), gen_appell_all(basis, z + w)
        for n in range(basis.degree + 1):
            lhs = tzw[n]
            rhs = zero_tensor(2, n)
            for k in range(n + 1):
                rhs = rhs + sym_product(tz[k], delta_appell_eval(basis, n - k, w)).scale(comb(n, k))
            assert (lhs - rhs).max_abs() < 1e-10

    def test_p1_binomial_at_translate(self, gauss2d_basis):
        # plain tensors: value at x equals binomial sum of powers against
        # the constants
        rng = np.random.default_rng(23)
        basis = gauss2d_basis
        x = rng.standard_normal(2)
        for n in range(basis.degree + 1):
            lhs = appell_eval(basis, n, x)
            rhs = zero_tensor(2, n)
            for k in range(n + 1):
                rhs = rhs + sym_product(
                    power_tensor(x, k), basis.u_jet.kernels[n - k]
                ).scale(comb(n, k))
            assert (lhs - rhs).max_abs() < 1e-12

    def test_p2_monomial_reconstruction(self, gauss2d_basis):
        rng = np.random.default_rng(24)
        basis = gauss2d_basis
        x = rng.standard_normal(2)
        for n in range(basis.degree + 1):
            rhs = zero_tensor(2, n)
            for k in range(n + 1):
                rhs = rhs + sym_product(
                    appell_eval(basis, k, x), basis.m_jet.kernels[n - k]
                ).scale(comb(n, k))
            assert (rhs - power_tensor(x, n)).max_abs() < 1e-10

    def test_inverse_side_reconstruction(self, poisson2d_log1p_basis):
        # two-level inversion: contracting the generalized tensors at z
        # against the inverse-jet power kernels recovers the plain tensors,
        # and the binomial sum against moments recovers the monomials
        rng = np.random.default_rng(30)
        basis = poisson2d_log1p_basis
        z = rng.standard_normal(2)
        from appellsys.appell import gen_appell_all

        gen = gen_appell_all(basis, z)

        def contract_out(k, m):
            row = basis.B.contract_out(k, m, list(gen[m].coeffs.values()))
            return SymTensor(2, k, dict(zip(multi_indices(2, k), row.tolist())))

        for k in range(basis.degree + 1):
            inner = scalar_tensor(2, 1.0) if k == 0 else zero_tensor(2, k)
            for m in range(1, k + 1):
                inner = inner + contract_out(k, m).scale(1.0 / factorial(m))
            assert (inner - appell_eval(basis, k, z)).max_abs() < 1e-10
        for n in range(basis.degree + 1):
            rhs = zero_tensor(2, n)
            for k in range(n + 1):
                inner = scalar_tensor(2, 1.0) if k == 0 else zero_tensor(2, k)
                for m in range(1, k + 1):
                    inner = inner + contract_out(k, m).scale(1.0 / factorial(m))
                rhs = rhs + sym_product(inner, basis.m_jet.kernels[n - k]).scale(comb(n, k))
            assert (rhs - power_tensor(z, n)).max_abs() < 1e-10

    def test_p5_zero_expectation(self, poisson1d_log1p_basis, gauss2d_basis):
        rng = np.random.default_rng(25)
        for basis in (poisson1d_log1p_basis, gauss2d_basis):
            for m in range(1, basis.degree + 1):
                phi = p_seq(basis, {m: random_tensor(rng, basis.dim, m)})
                mono = to_monomial(basis, phi)
                assert exact_expectation(basis.model, mono) == pytest.approx(
                    0.0, abs=1e-10
                )


class TestNorms:
    def test_single_grade_zero(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {0: scalar_tensor(1, -3.0)})
        Phi = q_seq(gauss1d_basis, {0: scalar_tensor(1, -3.0)})
        assert graded_test_norm(gauss1d_basis, phi, 1, 1) == pytest.approx(3.0)
        assert dist_norm(gauss1d_basis, Phi, 1, 1) == pytest.approx(3.0)

    def test_pairing_duality(self, gauss2d_basis):
        rng = np.random.default_rng(26)
        for _ in range(20):
            Phi = random_qseq(rng, gauss2d_basis)
            phi = random_pseq(rng, gauss2d_basis)
            v = abs(pair(gauss2d_basis, Phi, phi))
            for (p, q) in [(0, 0), (1, 1), (2, 3)]:
                bound = dist_norm(gauss2d_basis, Phi, p, q) * graded_test_norm(
                    gauss2d_basis, phi, p, q
                )
                assert v <= bound * (1 + 1e-10)

    def test_beta_monotonicity(self, gauss2d_basis):
        rng = np.random.default_rng(27)
        Phi = random_qseq(rng, gauss2d_basis)
        norms = [dist_norm(gauss2d_basis, Phi, 1, 1, beta=b) for b in (0.0, 0.25, 0.5, 1.0)]
        assert norms == sorted(norms, reverse=True)

    def test_beta_range_enforced(self, gauss2d_basis):
        Phi = q_seq(gauss2d_basis, {0: scalar_tensor(2, 1.0)})
        with pytest.raises(ValueError):
            dist_norm(gauss2d_basis, Phi, 1, 1, beta=1.5)


class TestDeskScale:
    def test_d3_n6_random_alpha_end_to_end(self):
        # largest desk-scale configuration: conversions, evaluation
        # functionals and the transform all stay at solver accuracy
        rng = np.random.default_rng(99)
        model = PoissonModel((1.0, 0.5, 2.0))
        basis = AppellBasis(model, random_vjet(rng, 3, 6), degree=6)
        phi = p_seq(basis, {n: random_tensor(rng, 3, n) for n in range(7)})
        back = to_appell(basis, to_monomial(basis, phi))
        assert max((back.kernels[n] - phi.kernels[n]).max_abs() for n in range(7)) < 1e-10
        z = rng.standard_normal(3)
        assert pair(basis, delta_z(basis, z), phi) == pytest.approx(
            eval_test(basis, phi, z), rel=1e-10, abs=1e-10
        )
        Phi = q_seq(basis, {n: random_tensor(rng, 3, n) for n in range(7)})
        back2 = s_inverse(basis, s_transform(basis, Phi))
        assert max((back2.kernels[n] - Phi.kernels[n]).max_abs() for n in range(7)) < 1e-10

    def test_equal_bases_built_separately_interoperate(self):
        # basis identity is by value (model parameters, alpha kernels,
        # degree), not object identity
        b1 = AppellBasis(PoissonModel((1.0,)), log1p_vjet(1, 4), degree=4)
        b2 = AppellBasis(PoissonModel((1.0,)), log1p_vjet(1, 4), degree=4)
        phi = p_seq(b1, {1: tensor_1d(1, 2.0)})
        Phi = q_seq(b2, {1: tensor_1d(1, 3.0)})
        assert pair(b1, Phi, phi) == pytest.approx(6.0)


class TestGrowth:
    def test_sigma_estimate_positive(self, poisson1d_log1p_basis):
        sigma = estimate_sigma_eps(poisson1d_log1p_basis, 1.0, 0.5, seed=1)
        assert 0 < sigma < 0.5

    def test_constant_function_ratio(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {0: scalar_tensor(1, 2.0)})
        report = growth_bound_check(gauss1d_basis, phi, 2, 4, 0.5, trials=50, seed=2)
        assert report["passed"]
        assert report["max_ratio"] <= 1.0 + 1e-12

    def test_fixed_seed_report_is_pinned(self, gauss1d_basis):
        # the trial points are drawn one at a time, direction before radius;
        # any change to that order or to the arithmetic moves these bits
        rng = np.random.default_rng(0)
        phi = random_pseq(rng, gauss1d_basis)
        report = growth_bound_check(gauss1d_basis, phi, 2, 6, 0.5, trials=300, seed=0)
        assert float.hex(report["max_ratio"]) == "0x1.5133fc3f8932cp-16"
        assert float.hex(report["sigma_eps"]) == "0x1.78b56362cef38p-3"

    def test_hermite_test_function_bounded(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {4: tensor_1d(4, 1.0)})
        report = growth_bound_check(gauss1d_basis, phi, 2, 6, 0.5, trials=200, seed=3, z_radius=10.0)
        assert report["passed"]

    @pytest.mark.parametrize("epsilon", [-0.5, 0.0, -0.0, float("nan"), float("inf"), -float("inf")])
    def test_epsilon_not_positive_and_finite_rejected(self, gauss1d_basis, epsilon):
        message = f"epsilon must be positive and finite, got {epsilon!r}"
        with pytest.raises(ValueError) as err:
            estimate_sigma_eps(gauss1d_basis, 1.0, epsilon)
        assert str(err.value) == message
        phi = p_seq(gauss1d_basis, {2: tensor_1d(2, 1.0)})
        with pytest.raises(ValueError) as err:
            growth_bound_check(gauss1d_basis, phi, 2, 6, epsilon, trials=10)
        assert str(err.value) == message

    def test_negative_trials_rejected(self, gauss1d_basis):
        # zero trials too: a sweep of no point passed having checked nothing
        phi = p_seq(gauss1d_basis, {2: tensor_1d(2, 1.0)})
        for trials in (-3, 0):
            with pytest.raises(ValueError) as err:
                growth_bound_check(gauss1d_basis, phi, 2, 6, 0.5, trials=trials)
            assert str(err.value) == f"trials must be positive, got {trials}"
        report = growth_bound_check(gauss1d_basis, phi, 2, 6, 0.5, trials=1)
        assert report["trials"] == 1 and report["max_ratio"] > 0.0

    def test_epsilon_loosens_bound(self, gauss1d_basis):
        phi = p_seq(gauss1d_basis, {2: tensor_1d(2, 1.0)})
        r1 = growth_bound_check(gauss1d_basis, phi, 2, 6, 0.3, trials=100, seed=4)
        r2 = growth_bound_check(gauss1d_basis, phi, 2, 6, 0.9, trials=100, seed=4)
        assert r2["max_ratio"] <= r1["max_ratio"] * (1 + 1e-9)

    def test_palpha6_tensor_bound(self, poisson1d_log1p_basis, gauss2d_basis):
        # |P_n(z)|_{-p} <= 2 n! sigma^{-n} exp(eps |z|_{-(p-1)})
        from appellsys.appell import gen_appell_all

        for basis in (poisson1d_log1p_basis, gauss2d_basis):
            eps = 0.5
            sigma = estimate_sigma_eps(basis, 1.0, eps, seed=5)
            rng = np.random.default_rng(6)
            for _ in range(100):
                direction = rng.standard_normal(basis.dim)
                z = rng.uniform(0, 8.0) * direction / np.linalg.norm(direction)
                znorm = tensor_norm(vector_tensor(z), -1.0, basis.scale)
                tensors = gen_appell_all(basis, z)
                for n in range(basis.degree + 1):
                    lhs = tensor_norm(tensors[n], -2.0, basis.scale)
                    rhs = 2.0 * factorial(n) * sigma ** (-n) * math.exp(eps * znorm)
                    assert lhs <= rhs
