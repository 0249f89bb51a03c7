"""Tensor algebra checked entry-by-entry against dense numpy oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from appellsys.appell import eval_monomial_seq, monomial_seq
from appellsys.jets import ScalarJet
from appellsys.symtensor import (
    DimensionMismatchError,
    HilbertScale,
    RankMismatchError,
    SymTensor,
    basis_vector,
    eval_power_batch,
    multi_indices,
    multiplicity,
    pairing,
    partial_pairing,
    power_tensor,
    random_tensor,
    scalar_tensor,
    sym_product,
    tensor_norm,
    vector_tensor,
    zero_tensor,
)


def full_outer(a: SymTensor, b: SymTensor) -> np.ndarray:
    """Dense symmetrized outer product, averaging over all permutations."""
    m, n = a.rank, b.rank
    raw = np.multiply.outer(a.full(), b.full()) if m and n else None
    if m == 0:
        return a.item() * b.full()
    if n == 0:
        return b.item() * a.full()
    d = a.dim
    out = np.zeros((d,) * (m + n))
    perms = list(itertools.permutations(range(m + n)))
    for p in perms:
        out += np.transpose(raw, p)
    return out / len(perms)


def dense_pairing(a: SymTensor, b: SymTensor) -> float:
    return float((a.full() * b.full()).sum())


class TestStorage:
    def test_entry_count_matches_multiset_count(self):
        t = zero_tensor(3, 4)
        assert len(t.coeffs) == math.comb(3 + 4 - 1, 4)

    def test_rank_zero_is_a_scalar(self):
        assert scalar_tensor(2, 3.5).item() == 3.5

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SymTensor(1, 0, {(): float("nan")})

    def test_rejects_wrong_key_set(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(1,): 1.0})

    def test_getitem_sorts(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 2))
        assert t[(2, 1)] == t[(1, 2)] == 0.5


class TestSymProduct:
    def test_e1_e2_half(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 2))
        assert t[(1, 2)] == pytest.approx(0.5)
        assert t[(1, 1)] == 0.0 and t[(2, 2)] == 0.0

    def test_scalar_unit(self):
        a = vector_tensor([2.0, -1.0])
        assert sym_product(a, scalar_tensor(2, 3.0)).coeffs == a.scale(3.0).coeffs

    def test_vector_square_is_outer_product(self):
        x = np.array([1.0, 2.0])
        t = sym_product(vector_tensor(x), vector_tensor(x))
        dense = np.outer(x, x)
        for i in range(1, 3):
            for j in range(1, 3):
                assert t[tuple(sorted((i, j)))] == pytest.approx(dense[i - 1, j - 1])

    def test_matches_dense_symmetrization(self):
        rng = np.random.default_rng(11)
        for m, n in [(1, 2), (2, 2), (3, 1)]:
            a = random_tensor(rng, 3, m)
            b = random_tensor(rng, 3, n)
            dense = full_outer(a, b)
            got = sym_product(a, b)
            for idx in multi_indices(3, m + n):
                assert got[idx] == pytest.approx(dense[tuple(i - 1 for i in idx)], abs=1e-12)

    def test_commutative_bilinear(self):
        rng = np.random.default_rng(5)
        a = random_tensor(rng, 2, 2)
        b = random_tensor(rng, 2, 3)
        ab = sym_product(a, b)
        ba = sym_product(b, a)
        for idx in multi_indices(2, 5):
            assert ab[idx] == pytest.approx(ba[idx], rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sym_product(basis_vector(2, 1), basis_vector(3, 1))


class TestPairing:
    def test_orthogonal_power_vectors(self):
        x = power_tensor([1.0, 0.0], 2)
        y = power_tensor([0.0, 1.0], 2)
        assert pairing(x, y) == 0.0

    def test_rank_zero(self):
        assert pairing(scalar_tensor(1, 2.0), scalar_tensor(1, 3.0)) == 6.0

    def test_e1e2_with_itself(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 2))
        assert pairing(t, t) == pytest.approx(0.5)

    def test_power_pairing_is_inner_product_power(self):
        x, y = np.array([0.3, -1.2]), np.array([0.7, 0.4])
        for n in range(5):
            assert pairing(power_tensor(x, n), power_tensor(y, n)) == pytest.approx(
                float(np.dot(x, y)) ** n
            )

    def test_matches_dense_sum(self):
        rng = np.random.default_rng(7)
        a = random_tensor(rng, 3, 3)
        b = random_tensor(rng, 3, 3)
        assert pairing(a, b) == pytest.approx(dense_pairing(a, b), rel=1e-12)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            pairing(basis_vector(2, 1), zero_tensor(2, 2))


class TestPartialPairing:
    def test_full_contraction_equals_pairing(self):
        rng = np.random.default_rng(3)
        a = random_tensor(rng, 2, 3)
        b = random_tensor(rng, 2, 3)
        assert partial_pairing(a, b).item() == pytest.approx(pairing(a, b), rel=1e-12)

    def test_k_zero_scales(self):
        a = random_tensor(np.random.default_rng(0), 2, 2)
        out = partial_pairing(a, scalar_tensor(2, 1.0))
        assert out.coeffs == a.coeffs

    def test_insert_vector(self):
        x = np.array([1.0, 1.0])
        y = np.array([2.0, 0.0])
        out = partial_pairing(power_tensor(x, 2), vector_tensor(y))
        # <x, y> x = 2 * (1, 1)
        assert out[(1,)] == pytest.approx(2.0)
        assert out[(2,)] == pytest.approx(2.0)

    def test_e1e2_contract_e1(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 2))
        out = partial_pairing(t, basis_vector(2, 1))
        assert out[(2,)] == pytest.approx(0.5)
        assert out[(1,)] == 0.0

    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(13)
        a = random_tensor(rng, 3, 4)
        b = random_tensor(rng, 3, 2)
        dense = np.tensordot(a.full(), b.full(), axes=([2, 3], [0, 1]))
        got = partial_pairing(a, b)
        for idx in multi_indices(3, 2):
            assert got[idx] == pytest.approx(dense[tuple(i - 1 for i in idx)], rel=1e-11)

    def test_rank_overflow(self):
        with pytest.raises(RankMismatchError):
            partial_pairing(basis_vector(2, 1), zero_tensor(2, 2))

    def test_adjoint_to_sym_product(self):
        # pairing(a sym b, c) == pairing(a, contract(c, b)) on random inputs
        rng = np.random.default_rng(17)
        for d in (1, 2, 3):
            for m, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
                a = random_tensor(rng, d, m)
                b = random_tensor(rng, d, n)
                c = random_tensor(rng, d, m + n)
                lhs = pairing(sym_product(a, b), c)
                rhs = pairing(a, partial_pairing(c, b))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEvalPower:
    def test_rank_zero(self):
        assert eval_power_batch(scalar_tensor(2, 4.0), [[0.0, 0.0]]).tolist() == [4.0]

    def test_coordinate_square(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 1))
        assert eval_power_batch(t, [[3.0, 1.0], [-2.0, 5.0]]) == pytest.approx([9.0, 4.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        a = random_tensor(rng, 3, 3)
        x = rng.standard_normal(3)
        brute = float(
            sum(
                a.full()[i]
                * x[list(i)].prod()
                for i in itertools.product(range(3), repeat=3)
            )
        )
        assert eval_power_batch(a, [x])[0] == pytest.approx(brute, rel=1e-12)

    def test_batch_matches_scalar(self):
        # a batch of points gives, row by row, what each point gives alone
        rng = np.random.default_rng(29)
        a = random_tensor(rng, 2, 3)
        xs = rng.standard_normal((6, 2))
        batch = eval_power_batch(a, xs)
        assert batch.shape == (6,)
        for i in range(6):
            assert batch[i] == pytest.approx(eval_power_batch(a, [xs[i]])[0], rel=1e-12)

    @settings(max_examples=40)
    @given(
        d=st.integers(1, 3),
        degree=st.integers(0, 4),
        count=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluators_match_pairings(self, d, degree, count, seed):
        # each evaluator, row by row, against pairings with x^{tensor n}; the
        # tolerance is relative to the sum of the absolute terms
        rng = np.random.default_rng(seed)
        kernels = [
            random_tensor(rng, d, n) if rng.random() < 0.7 else zero_tensor(d, n)
            for n in range(degree + 1)
        ]
        xs = rng.standard_normal((count, d))

        def graded_sum(x, grades, weight):
            """The sum over grades n of weight(n) <x^n, kernel n>, and the
            same sum over absolute values."""
            want = size = 0.0
            for n in grades:
                k = kernels[n]
                want += weight(n) * pairing(power_tensor(x, n), k)
                size += weight(n) * pairing(
                    power_tensor(np.abs(x), n), SymTensor(d, n, {i: abs(v) for i, v in k.coeffs.items()})
                )
            return want, size

        grades = range(degree + 1)
        jet = ScalarJet(d, degree, tuple(kernels))
        mono = monomial_seq(d, degree, dict(enumerate(kernels)))
        routes = [(eval_power_batch(kernels[n], xs), [n], lambda n: 1.0) for n in grades] + [
            (jet.eval_batch(xs), grades, lambda n: 1.0 / math.factorial(n)),
            (eval_monomial_seq(mono, xs), grades, lambda n: 1.0),
        ]
        for got, graded, weight in routes:
            assert got.shape == (count,)
            for row, x in zip(got, xs):
                want, size = graded_sum(x, graded, weight)
                assert abs(row - want) <= 1e-12 * size

    def test_wrong_column_count_rejected(self):
        a = random_tensor(np.random.default_rng(29), 2, 3)
        for xs in (np.ones((4, 3)), np.ones((4, 1)), np.ones(2)):
            with pytest.raises(DimensionMismatchError):
                eval_power_batch(a, xs)


class TestNorms:
    def test_basis_vector_default_weight(self):
        assert tensor_norm(basis_vector(2, 1), 3.0) == pytest.approx(1.0)
        assert tensor_norm(basis_vector(2, 2), 1.0) == pytest.approx(2.0)

    def test_p_zero_is_euclidean(self):
        assert tensor_norm(vector_tensor([3.0, 4.0]), 0.0) == pytest.approx(5.0)

    def test_rank2_weighted_matches_brute_force(self):
        rng = np.random.default_rng(31)
        a = random_tensor(rng, 2, 2)
        scale = HilbertScale(2, (1.0, 2.0))
        brute = 0.0
        for i, j in itertools.product(range(2), repeat=2):
            w = scale.weights[i] * scale.weights[j]
            brute += (w * a.full()[i, j]) ** 2
        assert tensor_norm(a, 1.0, scale) == pytest.approx(math.sqrt(brute), rel=1e-12)

    def test_cross_norm_property(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            a = random_tensor(rng, d, m)
            b = random_tensor(rng, d, n)
            for p in (0.0, 1.0, 2.0):
                assert tensor_norm(sym_product(a, b), p) <= tensor_norm(a, p) * tensor_norm(
                    b, p
                ) * (1 + 1e-12)

    def test_duality_cauchy_schwarz(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            a = random_tensor(rng, d, n)
            b = random_tensor(rng, d, n)
            for p in (0.0, 1.0, 2.0):
                assert abs(pairing(a, b)) <= tensor_norm(a, -p) * tensor_norm(b, p) * (
                    1 + 1e-12
                )


def test_multiplicity_values():
    assert multiplicity(()) == 1
    assert multiplicity((1, 1, 1)) == 1
    assert multiplicity((1, 2)) == 2
    assert multiplicity((1, 1, 2)) == 3
    assert multiplicity((1, 2, 3)) == 6
