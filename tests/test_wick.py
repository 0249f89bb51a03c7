"""Wick product, powers, analytic functions, inverse, continuity."""

import math
from functools import lru_cache
from math import factorial

import numpy as np
import pytest

from appellsys.appell import (
    AppellBasis,
    BasisMismatchError,
    q_kernel_make,
    q_seq,
    s_transform,
)
from appellsys.jets import jet_mul
from appellsys.measures import GaussianModel, PoissonModel
from appellsys.symtensor import (
    SymTensor,
    power_tensor,
    random_tensor,
    scalar_tensor,
    sym_product,
    vector_tensor,
)
from appellsys.wick import (
    wick_fn,
    wick_inv,
    wick_mul,
    wick_norm_check,
    wick_pow,
    wick_solve,
    wick_unit,
)


def tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


def seq_1d(basis, grades):
    return q_seq(basis, {n: tensor_1d(n, v) for n, v in grades.items()})


def random_qseq(rng, basis, scale=1.0):
    return q_seq(
        basis,
        {n: random_tensor(rng, basis.dim, n, scale=scale) for n in range(basis.degree + 1)},
    )


class TestWickMul:
    def test_unit_neutral(self, poisson1d_log1p_basis):
        rng = np.random.default_rng(1)
        Phi = random_qseq(rng, poisson1d_log1p_basis)
        out = wick_mul(Phi, wick_unit(poisson1d_log1p_basis))
        for n in range(7):
            assert (out.kernels[n] - Phi.kernels[n]).max_abs() < 1e-14

    def test_single_grades_concatenate(self, gauss1d_basis):
        a = q_kernel_make(gauss1d_basis, tensor_1d(1, 2.0))
        b = q_kernel_make(gauss1d_basis, tensor_1d(1, 3.0))
        out = wick_mul(a, b)
        assert out.kernels[2][(1, 1)] == pytest.approx(6.0)
        assert out.max_grade() == 2

    def test_rank_kernels_combine_symmetrically(self, gauss2d_basis):
        rng = np.random.default_rng(2)
        a = random_tensor(rng, 2, 1)
        b = random_tensor(rng, 2, 2)
        out = wick_mul(q_kernel_make(gauss2d_basis, a), q_kernel_make(gauss2d_basis, b))
        assert (out.kernels[3] - sym_product(a, b)).max_abs() < 1e-13

    def test_s_multiplicativity(self, poisson2d_log1p_basis, gauss2d_basis):
        rng = np.random.default_rng(3)
        for basis in (poisson2d_log1p_basis, gauss2d_basis):
            Phi = random_qseq(rng, basis)
            Psi = random_qseq(rng, basis)
            lhs = s_transform(basis, wick_mul(Phi, Psi))
            rhs = jet_mul(s_transform(basis, Phi), s_transform(basis, Psi))
            for n in range(basis.degree + 1):
                assert (lhs.kernels[n] - rhs.kernels[n]).max_abs() < 1e-11

    def test_commutative_associative(self, gauss2d_basis):
        rng = np.random.default_rng(4)
        a, b, c = (random_qseq(rng, gauss2d_basis) for _ in range(3))
        ab = wick_mul(a, b)
        ba = wick_mul(b, a)
        abc = wick_mul(ab, c)
        acb = wick_mul(wick_mul(a, c), b)
        for n in range(6):
            assert (ab.kernels[n] - ba.kernels[n]).max_abs() < 1e-12
            assert (abc.kernels[n] - acb.kernels[n]).max_abs() < 1e-11

    def test_basis_mismatch(self, gauss1d_basis, poisson1d_log1p_basis):
        a = wick_unit(gauss1d_basis)
        b = wick_unit(poisson1d_log1p_basis)
        with pytest.raises(BasisMismatchError):
            wick_mul(a, b)


class TestWickPow:
    def test_zeroth_power_is_unit(self, gauss1d_basis):
        rng = np.random.default_rng(5)
        Phi = random_qseq(rng, gauss1d_basis)
        out = wick_pow(Phi, 0)
        assert out.kernels[0].item() == 1.0
        assert out.max_grade() == 0

    def test_grade1_cube_scalar(self, gauss1d_basis):
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 2.0))
        out = wick_pow(Phi, 3)
        assert out.kernels[3][(1, 1, 1)] == pytest.approx(8.0)

    def test_grade1_power_is_tensor_power(self, gauss2d_basis):
        rng = np.random.default_rng(6)
        xi = rng.standard_normal(2)
        Phi = q_kernel_make(gauss2d_basis, power_tensor(xi, 1))
        out = wick_pow(Phi, 4)
        assert (out.kernels[4] - power_tensor(xi, 4)).max_abs() < 1e-12
        for n in range(4):
            assert out.kernels[n].max_abs() == 0.0

    def test_negative_rejected(self, gauss1d_basis):
        with pytest.raises(ValueError):
            wick_pow(wick_unit(gauss1d_basis), -1)

    @pytest.mark.parametrize("power", [True, False, 2.5, 2.0, "2"])
    def test_power_that_is_not_an_integer_rejected(self, gauss1d_basis, power):
        # True passed as Phi itself, 2.5 failed inside range
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 2.0))
        with pytest.raises(TypeError) as err:
            wick_pow(Phi, power)
        assert str(err.value) == f"power must be an integer, got {power!r}"

    def test_numpy_integer_power_accepted(self, gauss1d_basis):
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 2.0))
        assert wick_pow(Phi, np.int64(3)) == wick_pow(Phi, 3)


class TestWickFn:
    def test_identity_function(self, poisson1d_log1p_basis):
        rng = np.random.default_rng(7)
        Phi = random_qseq(rng, poisson1d_log1p_basis)
        z0 = Phi.kernels[0].item()
        out = wick_fn([z0, 1.0], Phi)
        for n in range(7):
            assert (out.kernels[n] - Phi.kernels[n]).max_abs() < 1e-13

    def test_exp_of_grade1(self, gauss1d_basis):
        # exponential of the grade-1 unit: S-jet is the scalar exponential
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 1.0))
        coeffs = [1.0 / factorial(k) for k in range(7)]
        out = wick_fn(coeffs, Phi)
        jet = s_transform(gauss1d_basis, out)
        for n in range(7):
            assert jet.kernels[n][(1,) * n] == pytest.approx(1.0, rel=1e-12)

    def test_square_matches_wick_mul(self, gauss2d_basis):
        rng = np.random.default_rng(8)
        Phi = random_qseq(rng, gauss2d_basis)
        z0 = Phi.kernels[0].item()
        out = wick_fn([z0**2, 2 * z0, 1.0], Phi)
        direct = wick_mul(Phi, Phi)
        for n in range(6):
            assert (out.kernels[n] - direct.kernels[n]).max_abs() < 1e-11

    def test_s_transform_composition(self, poisson1d_log1p_basis):
        # S(F(Phi)) = F(S Phi) checked for F = exp via jet exponential
        from appellsys.jets import jet_exp

        rng = np.random.default_rng(9)
        basis = poisson1d_log1p_basis
        Phi = random_qseq(rng, basis, scale=0.4)
        z0 = Phi.kernels[0].item()
        coeffs = [math.exp(z0) / factorial(k) for k in range(basis.degree + 1)]
        lhs = s_transform(basis, wick_fn(coeffs, Phi))
        rhs = jet_exp(s_transform(basis, Phi))
        for n in range(basis.degree + 1):
            assert (lhs.kernels[n] - rhs.kernels[n]).max_abs() < 1e-10

    def test_exp_log_round_trip(self, gauss2d_basis):
        rng = np.random.default_rng(10)
        basis = gauss2d_basis
        Phi = random_qseq(rng, basis, scale=0.5)
        kernels = dict(enumerate(Phi.kernels))
        kernels[0] = scalar_tensor(2, 1.5)
        Phi = q_seq(basis, kernels)
        c = 1.5
        log_coeffs = [math.log(c)] + [
            (-1.0) ** (k - 1) / (k * c**k) for k in range(1, basis.degree + 1)
        ]
        L = wick_fn(log_coeffs, Phi)
        lc = L.kernels[0].item()
        exp_coeffs = [math.exp(lc) / factorial(k) for k in range(basis.degree + 1)]
        back = wick_fn(exp_coeffs, L)
        for n in range(basis.degree + 1):
            assert (back.kernels[n] - Phi.kernels[n]).max_abs() < 1e-10


def accumulating_wick_fn(coeffs, Phi):
    """wick_fn as an accumulating loop: the reference for the graded sums."""
    basis = Phi.basis
    centered_kernels = dict(enumerate(Phi.kernels))
    centered_kernels[0] = scalar_tensor(basis.dim, 0.0)
    centered = q_seq(basis, centered_kernels)
    coeffs = list(coeffs)
    acc = q_seq(basis, {0: scalar_tensor(basis.dim, float(coeffs[0]) if coeffs else 0.0)})
    power = wick_unit(basis)
    for k in range(1, min(len(coeffs), basis.degree + 1)):
        power = wick_mul(power, centered)
        if coeffs[k]:
            a = float(coeffs[k])
            acc = q_seq(basis, {
                n: acc.kernels[n] + power.kernels[n].scale(a) for n in range(basis.degree + 1)
            })
    return acc


def hex_kernels(seq):
    return [[v.hex() for v in k.coeffs.values()] for k in seq.kernels]


def test_wick_fn_bit_identical_to_accumulating_loop():
    # a constant coefficient of -0.0 is the one input whose bits differ: the
    # loop starts grade 0 from it and keeps -0.0, the graded sum gives +0.0
    rng = np.random.default_rng(21)
    degree = 4
    fixed = [[], [0.0], [1.5], [2, 0, -1, 3], [0, 0, 0, 1], [1] * (degree + 4)]
    cases = 0
    for d in (1, 2, 3):
        models = (GaussianModel.standard(d), PoissonModel(tuple(0.5 + i for i in range(d))))
        for model in models:
            basis = AppellBasis(model, degree=degree)
            Phi = random_qseq(rng, basis, scale=0.7)
            drawn = [
                [float(x) if rng.random() < 0.7 else 0.0 for x in rng.standard_normal(length)]
                for length in rng.integers(1, degree + 5, size=15)
            ]
            for coeffs in fixed + drawn:
                expected = hex_kernels(accumulating_wick_fn(coeffs, Phi))
                assert hex_kernels(wick_fn(coeffs, Phi)) == expected
                cases += 1
    assert cases == 126


@lru_cache(maxsize=None)
def gauss_basis(d, N):
    return AppellBasis(GaussianModel.standard(d), degree=N)


class TestWickFnCoefficients:
    def test_text_coefficient_rejected(self, gauss1d_basis):
        # float() read "1.5" as 1.5; a SymTensor entry given as text raises
        Phi = seq_1d(gauss1d_basis, {0: 0.5, 1: 1.0})
        for text in ("1.5", b"1.5"):
            with pytest.raises(TypeError, match="coefficient at index 0 must be a real number"):
                wick_fn([text, 2.0], Phi)
        with pytest.raises(TypeError, match="coefficient at index 1 must be a real number, not str"):
            wick_fn([1.5, "2"], Phi)

    def test_numpy_coefficients_accepted(self, gauss1d_basis):
        Phi = seq_1d(gauss1d_basis, {0: 0.5, 1: 1.0})
        want = wick_fn([1.5, 2.0, 3.0], Phi)
        assert wick_fn([np.float64(1.5), np.int64(2), np.float32(3.0)], Phi) == want
        assert wick_fn(np.array([1.5, 2.0, 3.0]), Phi) == want


class TestWickInverse:
    @pytest.mark.parametrize("d, N", [(2, 4), (1, 12), (3, 6)])
    @pytest.mark.parametrize(
        "c0, f1, message",
        [
            (1e-310, 1.0, "non-finite coefficient at index (): inf"),
            (1e-200, 1.0, "non-finite coefficient at index (1,): -inf"),
            (1.0, 1e200, "non-finite coefficient at index (1, 1): -inf"),
            (1.0, 1e80, "non-finite coefficient at index (1, 1, 1, 1): -inf"),
            (0.0, 1.0, "Wick inverse needs a nonzero grade-0 kernel (expectation)"),
            (-0.0, 1.0, "Wick inverse needs a nonzero grade-0 kernel (expectation)"),
        ],
    )
    def test_overflow_messages(self, d, N, c0, f1, message):
        # f_1 is (f1, 1, ...) beside a c0 other than 1, else (f1, 0, ...):
        # grade 0, 1, 2 or 4 overflows, and each raises where the term route
        # raised, not at a later grade
        rest = 1.0 if c0 != 1.0 else 0.0
        Phi = q_seq(gauss_basis(d, N), {0: scalar_tensor(d, c0), 1: vector_tensor([f1] + [rest] * (d - 1))})
        with pytest.raises(ValueError) as err:
            wick_inv(Phi)
        assert str(err.value) == message

    def test_unit_inverts_to_unit(self, gauss1d_basis):
        out = wick_inv(wick_unit(gauss1d_basis))
        assert out.kernels[0].item() == 1.0
        assert out.max_grade() == 0

    def test_frozen_1d_example(self):
        basis = AppellBasis(GaussianModel.standard(1), degree=2)
        Phi = q_seq(basis, {0: scalar_tensor(1, 2.0), 1: tensor_1d(1, 1.0)})
        inv = wick_inv(Phi)
        got = [inv.kernels[0].item(), inv.kernels[1][(1,)], inv.kernels[2][(1, 1)]]
        assert got == pytest.approx([0.5, -0.25, 0.125])

    def test_round_trip(self, poisson2d_log1p_basis):
        rng = np.random.default_rng(11)
        Phi = random_qseq(rng, poisson2d_log1p_basis)
        kernels = dict(enumerate(Phi.kernels))
        kernels[0] = scalar_tensor(2, 0.8)
        Phi = q_seq(poisson2d_log1p_basis, kernels)
        prod = wick_mul(Phi, wick_inv(Phi))
        assert prod.kernels[0].item() == pytest.approx(1.0, rel=1e-12)
        for n in range(1, 6):
            assert prod.kernels[n].max_abs() < 1e-11

    def test_zero_expectation_rejected(self, gauss1d_basis):
        Phi = q_kernel_make(gauss1d_basis, tensor_1d(1, 1.0))
        with pytest.raises(ValueError):
            wick_inv(Phi)

    def test_solve(self, gauss2d_basis):
        rng = np.random.default_rng(12)
        Phi = random_qseq(rng, gauss2d_basis)
        kernels = dict(enumerate(Phi.kernels))
        kernels[0] = scalar_tensor(2, 1.0)
        Phi = q_seq(gauss2d_basis, kernels)
        Psi = random_qseq(rng, gauss2d_basis)
        X = wick_solve(Phi, Psi)
        back = wick_mul(Phi, X)
        for n in range(6):
            assert (back.kernels[n] - Psi.kernels[n]).max_abs() < 1e-11


class TestContinuity:
    def test_unit_pair(self, gauss1d_basis):
        report = wick_norm_check(gauss1d_basis, 1, 1, 1, 1, trials=1, seed=0)
        assert report["passed"]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, gauss1d_basis, trials):
        # zero trials passed having checked nothing; -1 failed inside numpy
        with pytest.raises(ValueError) as err:
            wick_norm_check(gauss1d_basis, 1, 1, 1, 1, trials=trials)
        assert str(err.value) == f"trials must be positive, got {trials}"

    @pytest.mark.parametrize("trials", [2.5, True, np.float64(2.0)])
    def test_trials_that_are_not_integers_rejected(self, gauss1d_basis, trials):
        # a float or bool failed inside numpy, naming no argument
        with pytest.raises(TypeError) as err:
            wick_norm_check(gauss1d_basis, 1, 1, 1, 1, trials=trials)
        assert str(err.value) == f"trials must be an integer, got {trials!r}"
        assert wick_norm_check(gauss1d_basis, 1, 1, 1, 1, trials=np.int64(2))["trials"] == 2

    def test_thousand_random_pairs(self, gauss2d_basis):
        report = wick_norm_check(gauss2d_basis, 1, 1, 2, 2, trials=1000, seed=1)
        assert report["violations"] == 0
        assert report["q"] == 4

    def test_grade_concentrated_pair(self, gauss2d_basis):
        # single-grade factors exercise the convolution length factor
        rng = np.random.default_rng(13)
        from appellsys.appell import dist_norm

        a = random_tensor(rng, 2, 2)
        b = random_tensor(rng, 2, 3)
        Phi = q_kernel_make(gauss2d_basis, a)
        Psi = q_kernel_make(gauss2d_basis, b)
        lhs = dist_norm(gauss2d_basis, wick_mul(Phi, Psi), 2, 3)
        rhs = dist_norm(gauss2d_basis, Phi, 2, 1) * dist_norm(gauss2d_basis, Psi, 2, 1)
        assert lhs <= rhs * (1 + 1e-12)
