"""Tensor algebra checked entry-by-entry against dense numpy oracles."""

import gc
import itertools
import math
import pickle
import re
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import appellsys.symtensor
from appellsys.appell import eval_monomial_seq, monomial_seq
from appellsys.fixtures import format_tensor, parse_tensor
from appellsys.jets import ScalarJet, VectorJet, constant_jet
from appellsys.symtensor import (
    _position,
    _product_plan,
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
    weighted_sum,
    zero_tensor,
)


def full(t: SymTensor) -> np.ndarray:
    """Expand to the dense (dim,)*rank array (oracle-sized ranks only)."""
    out = np.zeros((t.dim,) * t.rank)
    for idx, v in t.coeffs.items():
        for p in set(itertools.permutations(idx)):
            out[tuple(i - 1 for i in p)] = v
    return out


def full_outer(a: SymTensor, b: SymTensor) -> np.ndarray:
    """Dense symmetrized outer product, averaging over all permutations."""
    m, n = a.rank, b.rank
    raw = np.multiply.outer(full(a), full(b)) if m and n else None
    if m == 0:
        return a.item() * full(b)
    if n == 0:
        return b.item() * full(a)
    d = a.dim
    out = np.zeros((d,) * (m + n))
    perms = list(itertools.permutations(range(m + n)))
    for p in perms:
        out += np.transpose(raw, p)
    return out / len(perms)


def dense_pairing(a: SymTensor, b: SymTensor) -> float:
    return float((full(a) * full(b)).sum())


class TestStorage:
    def test_entry_count_matches_multiset_count(self):
        t = zero_tensor(3, 4)
        assert len(t.coeffs) == math.comb(3 + 4 - 1, 4)

    def test_rank_zero_is_a_scalar(self):
        assert scalar_tensor(2, 3.5).item() == 3.5

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (): nan")):
            SymTensor(1, 0, {(): float("nan")})
        # the first non-finite entry in the given order is named
        with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (2,): nan")):
            SymTensor(2, 1, {(2,): float("nan"), (1,): float("inf")})
        with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (1, 2): -inf")):
            SymTensor(2, 2, {(1, 1): 0.0, (1, 2): float("-inf"), (2, 2): 1.0})

    def test_rejects_wrong_key_set(self):
        message = "coefficient table must have exactly one entry per multiset index "
        for rank, coeffs, counts in [
            (1, {(1,): 1.0}, "(expected 2, got 1)"),
            (2, {(2, 2): 1.0, (1, 1): 1.0}, "(expected 3, got 2)"),
            (1, {(2,): 1.0, (1,): 1.0, (3,): 1.0}, "(expected 2, got 3)"),
            (1, {(2,): 1.0, (2, 1): 1.0}, "(expected 2, got 2)"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message + counts)):
                SymTensor(2, rank, coeffs)

    def test_getitem_sorts(self):
        t = sym_product(basis_vector(2, 1), basis_vector(2, 2))
        assert t[(2, 1)] == t[(1, 2)] == 0.5

    def test_any_key_order_is_stored_in_multi_indices_order(self):
        keys = multi_indices(3, 2)
        given = {k: float(i) for i, k in reversed(list(enumerate(keys)))}
        t = SymTensor(3, 2, given)
        assert tuple(t.coeffs) == keys
        assert list(t.coeffs.values()) == [float(i) for i in range(len(keys))]
        assert t.coeffs == given

    @pytest.mark.parametrize("reordered", [False, True])
    def test_coefficients_are_read_only(self, reordered):
        keys = multi_indices(2, 2)
        t = SymTensor(2, 2, {k: 1.0 for k in (reversed(keys) if reordered else keys)})
        for write in (
            lambda c: c.__setitem__((1, 1), 5.0),
            lambda c: c.__delitem__((1, 1)),
            lambda c: c.update({(1, 1): 5.0}),
            lambda c: c.pop((1, 1)),
        ):
            with pytest.raises((TypeError, AttributeError)):
                write(t.coeffs)
        assert list(t.coeffs.values()) == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("reordered", [False, True])
    def test_a_later_write_to_the_given_table_leaves_the_tensor(self, reordered):
        keys = multi_indices(2, 2)
        given = {k: 1.0 for k in (reversed(keys) if reordered else keys)}
        t = SymTensor(2, 2, given)
        given[(1, 1)] = 5.0
        del given[(2, 2)]
        assert t.values == (1.0, 1.0, 1.0)
        assert dict(t.coeffs) == dict.fromkeys(keys, 1.0)

    def test_values_in_order_are_accepted_and_copied(self):
        given = [1.0, 2.0, 3.0]
        t = SymTensor(2, 2, given)
        given[0] = 5.0
        assert t == SymTensor(2, 2, {(2, 2): 3.0, (1, 2): 2.0, (1, 1): 1.0})
        with pytest.raises(ValueError, match=re.escape("(expected 3, got 2)")):
            SymTensor(2, 2, [1.0, 2.0])
        with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (1, 2): inf")):
            SymTensor(2, 2, (1.0, math.inf, math.nan))

    def test_numpy_scalars_are_kept_as_python_floats(self):
        t = SymTensor(1, 1, {(1,): np.float64(1.5)})
        assert type(t.values[0]) is float and type(t.coeffs[(1,)]) is float
        assert format_tensor(t) == "symtensor\ndim 1\nrank 1\n1 1.5\n"
        assert parse_tensor(format_tensor(t)) == t

    def test_an_overflowing_product_of_numpy_scalars_raises_without_a_warning(self):
        t = SymTensor(1, 1, {(1,): np.float64(1e200)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (1, 1): inf")):
                sym_product(t, t)
            with pytest.raises(ValueError, match=re.escape("non-finite coefficient at index (1,): inf")):
                t.scale(np.float64(1e200))

    def test_fields_are_frozen_and_a_pickle_round_trips(self):
        t = random_tensor(np.random.default_rng(3), 2, 2)
        for name in ("dim", "rank", "values", "coeffs"):
            with pytest.raises((FrozenInstanceError, AttributeError)):
                setattr(t, name, None)
        with pytest.raises(FrozenInstanceError):
            del t.values
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back.values == t.values


@st.composite
def holey_tensors(draw):
    """A tensor of dim <= 3 and rank <= 5 whose entries are random floats,
    +0.0 or -0.0."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    entry = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
    return SymTensor(d, n, draw(st.lists(entry, min_size=len(multi_indices(d, n)), max_size=len(multi_indices(d, n)))))


@settings(max_examples=200)
@given(t=holey_tensors())
def test_coeffs_view_round_trips_the_values(t):
    keys = multi_indices(t.dim, t.rank)
    again = SymTensor(t.dim, t.rank, t.coeffs)
    assert again == t and tuple(t.coeffs) == keys
    assert [v.hex() for v in again.values] == [v.hex() for v in t.values] == [v.hex() for v in t.coeffs.values()]
    assert all(type(v) is float for v in t.values)
    assert [t[k] for k in keys] == list(t.values)
    with pytest.raises(TypeError):
        hash(t)


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

    def test_product_of_overflowing_power_tensors(self):
        # power_tensor stores Python floats, so the overflow is the
        # "non-finite coefficient" error, not numpy's RuntimeWarning, which
        # the test settings turn into an error
        big = power_tensor([1e200], 1)
        assert type(big[(1,)]) is float
        with pytest.raises(ValueError, match=r"non-finite coefficient at index \(1, 1\): inf"):
            sym_product(big, big)


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
        dense = np.tensordot(full(a), full(b), axes=([2, 3], [0, 1]))
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


def dict_sym_product(dim, m, n, ac, bc):
    """The dict loop sym_product replaces, over canonical coefficient dicts."""
    total = math.comb(m + n, m)
    coeffs = {}
    for t in multi_indices(dim, m + n):
        s = 0.0
        for u, v, ways in recursive_splits(t, m):
            au = ac[u]
            if au:
                bv = bc[v]
                if bv:
                    s += ways * au * bv
        coeffs[t] = s / total
    return coeffs


def dict_partial_pairing(dim, n, ac, bc):
    """The dict loop partial_pairing replaces; bc holds rank k >= 1."""
    k = len(next(iter(bc)))
    coeffs = {}
    nz = [(u, multiplicity(u) * bv) for u, bv in bc.items() if bv]
    for s in multi_indices(dim, n - k):
        acc = 0.0
        for u, w in nz:
            acc += w * ac[tuple(sorted(s + u))]
        coeffs[s] = acc
    return coeffs


def dict_pairing(ac, bc):
    """The dict loop pairing replaces."""
    s = 0.0
    for k, av in ac.items():
        if av:
            bv = bc[k]
            if bv:
                s += multiplicity(k) * av * bv
    return s


@st.composite
def coefficient_dicts(draw, dim, rank):
    """A canonical coefficient dict of the shape, entries random, +0.0 or
    -0.0, and the same dict in a shuffled key order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = multi_indices(dim, rank)
    entry = st.sampled_from(("random", "random", 0.0, -0.0))
    canonical = {}
    for k in keys:
        e = draw(entry)
        canonical[k] = float(rng.standard_normal()) if e == "random" else e
    shuffled = draw(st.permutations(keys))
    return canonical, {k: canonical[k] for k in shuffled}


@st.composite
def plan_cases(draw):
    d, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return d, m, n, *(draw(coefficient_dicts(d, r)) for r in (m, n, m))


def hexes(coeffs):
    return [(k, v.hex()) for k, v in coeffs.items()]


def live_coefficients(rng, dim, rank, live, negative_zeros=0):
    """Coefficients in multi_indices order: `live` random entries at random
    positions, then -0.0 at `negative_zeros` of the others, +0.0 elsewhere."""
    keys = multi_indices(dim, rank)
    order = rng.permutation(len(keys))
    vals = [0.0] * len(keys)
    for i in order[:live]:
        vals[i] = float(rng.standard_normal())
    for i in order[live : live + negative_zeros]:
        vals[i] = -0.0
    return dict(zip(keys, vals))


class TestPositionalPlans:
    @settings(max_examples=150)
    @given(case=plan_cases())
    def test_bit_identical_to_dict_loops(self, case):
        d, m, n, (ac, a_shuffled), (bc, b_shuffled), (cc, c_shuffled) = case
        a, b, c = SymTensor(d, m, a_shuffled), SymTensor(d, n, b_shuffled), SymTensor(d, m, c_shuffled)
        want = hexes(dict_sym_product(d, m, n, ac, bc))
        assert hexes(sym_product(a, b).coeffs) == want
        big, small = (a, b) if m >= n else (b, a)
        big_c, small_c = (ac, bc) if m >= n else (bc, ac)
        assert hexes(partial_pairing(big, small).coeffs) == hexes(
            dict_partial_pairing(d, big.rank, big_c, small_c)
        )
        assert pairing(a, c).hex() == dict_pairing(ac, cc).hex()

    # (dim, m, n, live entries of a, live entries of b): terms are live
    # entries of b times entries of a; one live entry is identity-like.  The
    # cases straddle 64 terms, and the dense d = 8 case has 1 296: small and
    # large products take the one loop.
    THRESHOLD_CASES = [
        (4, 1, 3, 4, 15),  # 60 terms
        (4, 1, 3, 4, 16),  # 64
        (4, 3, 1, 20, 3),  # 60
        (4, 3, 1, 20, 4),  # 80
        (2, 7, 7, 8, 7),  # 56
        (2, 7, 7, 8, 8),  # 64
        (5, 4, 2, 70, 1),  # 70, b identity-like
        (4, 5, 1, 56, 1),  # 56, b identity-like
        (3, 3, 4, 1, 15),  # 150, a identity-like
        (5, 1, 1, 1, 1),  # 5, both identity-like
        (3, 4, 4, 0, 15),  # a all zeros
        (3, 4, 4, 15, 0),  # b all zeros
        (8, 2, 2, 36, 36),  # 1 296, dense
    ]

    @pytest.mark.parametrize("d, m, n, live_a, live_b", THRESHOLD_CASES)
    def test_kernel_choice_and_bits_at_threshold(self, d, m, n, live_a, live_b):
        # one kernel at every size: the loop's bits are the dict loop's
        rng = np.random.default_rng(1000 * d + 10 * m + n)
        ac = live_coefficients(rng, d, m, live_a, negative_zeros=2)
        bc = live_coefficients(rng, d, n, live_b, negative_zeros=2)
        got = sym_product(SymTensor(d, m, ac), SymTensor(d, n, bc))
        assert hexes(got.coeffs) == hexes(dict_sym_product(d, m, n, ac, bc))

    @pytest.mark.parametrize("d, m, n", [(1, 2, 3), (2, 1, 1), (4, 2, 3), (3, 3, 3)])
    def test_overflow_raises_the_same_error_on_both_kernels(self, d, m, n):
        # sym_product and the dict loop raise one message, with no warning
        rng = np.random.default_rng(7)
        a = random_tensor(rng, d, m, scale=1e200)
        b = random_tensor(rng, d, n, scale=1e200)
        want = dict_sym_product(d, m, n, a.coeffs, b.coeffs)
        with pytest.raises(ValueError, match="non-finite coefficient") as by_dict_loop:
            SymTensor(d, m + n, want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                sym_product(a, b)
        assert str(err.value) == str(by_dict_loop.value)

    def test_zero_factor_beside_an_overflowing_weight_is_skipped(self):
        # ways * a[u] overflows only where b[v] is zero, a term the loop skips
        a = SymTensor(2, 1, {(1,): 1e308, (2,): 0.0})
        b = SymTensor(2, 1, {(1,): 0.0, (2,): 1.0})
        want = hexes(dict_sym_product(2, 1, 1, a.coeffs, b.coeffs))
        assert want == [((1, 1), "0x0.0p+0"), ((1, 2), (1e308 / 2).hex()), ((2, 2), "0x0.0p+0")]
        assert hexes(sym_product(a, b).coeffs) == want


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
                full(a)[i]
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

    @settings(max_examples=100)
    @given(
        d=st.integers(1, 3),
        degree=st.integers(0, 8),
        count=st.integers(0, 9),
        special=st.sampled_from((0.0, 0.1, 0.4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluators_match_the_literal_loop_bit_for_bit(self, d, degree, count, special, seed):
        # every evaluator equals the term-by-term loop through int64 views,
        # with the same warnings, whole and in blocks of 1 and 3 floats
        rng = np.random.default_rng(seed)
        kernels = []
        for n in range(degree + 1):
            vals = rng.standard_normal(len(multi_indices(d, n))) * 10.0 ** rng.integers(-3, 4)
            vals[rng.random(len(vals)) < 0.3] = rng.choice((0.0, -0.0))
            if rng.random() < 0.2:
                vals[:] = 0.0
            kernels.append(SymTensor(d, n, dict(zip(multi_indices(d, n), vals.tolist()))))
        xs = rng.standard_normal((count, d)) * 2.0
        hole = rng.random(xs.shape) < special
        xs[hole] = rng.choice((0.0, -0.0, -1.5, 1e200, -1e200, np.inf, -np.inf, np.nan), hole.sum())
        xs[rng.random(xs.shape) < 0.1] = 0.0

        def literal(a):
            """eval_power_batch of one tensor as one column product per term."""
            out = np.zeros(count)
            for idx, v in a.coeffs.items():
                if v:
                    prod = np.ones(count)
                    for i in idx:
                        prod *= xs[:, i - 1]
                    out += multiplicity(idx) * v * prod
            return out

        def literal_sum(ks, weight=lambda n: None):
            out = np.zeros(count)
            for k in ks:
                w = weight(k.rank)
                out += literal(k) if w is None else literal(k) / w
            return out

        jet = ScalarJet(d, degree, tuple(kernels))
        components = tuple(
            ScalarJet(d, degree, (scalar_tensor(d, 0.0), *kernels[1:])) if j == d - 1 else constant_jet(d, degree, 0.0)
            for j in range(d)
        )
        mono = monomial_seq(d, degree, dict(enumerate(kernels)))
        routes = [(lambda k=k: eval_power_batch(k, xs), lambda k=k: literal(k)) for k in kernels] + [
            (lambda: eval_power_batch(kernels, xs), lambda: literal_sum(kernels)),
            (lambda: eval_power_batch(kernels[::-1], xs), lambda: literal_sum(kernels[::-1])),
            (lambda: eval_monomial_seq(mono, xs), lambda: literal_sum(kernels)),
            (lambda: jet.eval_batch(xs), lambda: literal_sum(kernels, math.factorial)),
            (
                lambda: VectorJet(d, degree, components).eval_batch(xs),
                lambda: np.stack([literal_sum(c.kernels, math.factorial) for c in components], axis=1),
            ),
        ]

        def run(evaluate):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = evaluate()
            return got.shape, got.view(np.int64).tolist(), {(w.category, str(w.message)) for w in caught}

        wants = [run(want) for _, want in routes]
        for floats in (None, 1, 3):
            with pytest.MonkeyPatch.context() as mp:
                if floats:
                    mp.setattr(appellsys.symtensor, "_BLOCK_FLOATS", floats)
                assert [run(got) for got, _ in routes] == wants

    def test_blocks_leave_no_reference_cycle(self):
        # a cycle would hold each block's powers until the collector runs,
        # and a 100 000-row batch would grow memory block by block
        rng = np.random.default_rng(31)
        kernels = [random_tensor(rng, 2, n) for n in range(5)]
        xs = rng.standard_normal((50, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(appellsys.symtensor, "_BLOCK_FLOATS", 8)
            gc.collect()
            gc.disable()
            try:
                eval_power_batch(kernels, xs)
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_wrong_column_count_rejected(self):
        # all-zero kernels included: every evaluator checks the points itself
        a = random_tensor(np.random.default_rng(29), 2, 3)
        zero_jet = constant_jet(2, 3, 0.0)
        evaluators = [
            lambda xs: eval_power_batch(a, xs),
            lambda xs: eval_power_batch(zero_tensor(2, 3), xs),
            zero_jet.eval_batch,
            VectorJet(2, 3, (zero_jet, zero_jet)).eval_batch,
            lambda xs: eval_monomial_seq(monomial_seq(2, 3, {}), xs),
            lambda xs: eval_power_batch([zero_tensor(2, 0), a], xs),
        ]
        for evaluate in evaluators:
            for xs in (np.ones((4, 3)), np.ones((4, 1)), np.ones(2), [1.0, 2.0, 3.0]):
                with pytest.raises(DimensionMismatchError):
                    evaluate(xs)

    def test_tensors_of_two_dims_rejected(self):
        a, b = zero_tensor(2, 1), random_tensor(np.random.default_rng(3), 3, 2)
        for xs in (np.ones((4, 2)), np.ones((4, 3))):
            with pytest.raises(DimensionMismatchError, match=r"dims \[2, 3\]"):
                eval_power_batch([a, b], xs)


def literal_sum(dim, rank, terms):
    """The hand-written accumulator loop weighted_sum replaces."""
    acc = zero_tensor(dim, rank)
    for w, t in terms:
        acc = acc + (t if w == 1 else t.scale(w))
    return acc


@st.composite
def weighted_terms(draw):
    """A shape and up to 5 (weight, tensor) terms of it; entries are random,
    +0.0 or -0.0, and weights include 1, 1.0, 0.0 and -0.0."""
    d, rank = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entry = st.sampled_from(("random", 0.0, -0.0))
    weight = st.one_of(
        st.sampled_from((1, 1.0, 0.0, -0.0, -1.0, 2, 6)),
        st.floats(-10.0, 10.0, allow_nan=False),
    )
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {}
        for k in multi_indices(d, rank):
            e = draw(entry)
            coeffs[k] = float(rng.standard_normal()) if e == "random" else e
        terms.append((draw(weight), SymTensor(d, rank, coeffs)))
    return d, rank, terms


class TestWeightedSum:
    @settings(max_examples=120)
    @given(case=weighted_terms())
    def test_bit_identical_to_literal_loop(self, case):
        d, rank, terms = case
        got, want = weighted_sum(d, rank, terms), literal_sum(d, rank, terms)
        assert (got.dim, got.rank) == (d, rank)
        assert {k: v.hex() for k, v in got.coeffs.items()} == {
            k: v.hex() for k, v in want.coeffs.items()
        }

    def test_wrong_shape_raises_as_add(self):
        good = random_tensor(np.random.default_rng(3), 2, 2)
        for bad in (random_tensor(np.random.default_rng(4), 3, 2), zero_tensor(2, 1)):
            with pytest.raises(ValueError) as by_add:
                zero_tensor(2, 2) + bad
            with pytest.raises(ValueError) as by_sum:
                weighted_sum(2, 2, [(1, good), (2.0, bad)])
            assert type(by_sum.value) is type(by_add.value)
            assert str(by_sum.value) == str(by_add.value)


def recursive_splits(idx, m):
    """Distinct splits (u, v, ways) of the multiset idx with |u| = m, where
    ways = prod_c C(count_idx(c), count_u(c)); the reference for the plans."""
    items = sorted(Counter(idx).items())
    tail_capacity = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + items[i][1]
    out = []

    def rec(i, need, taken):
        if need == 0:
            u, v, ways = [], [], 1
            for (val, cnt), tk in zip(items, taken + [0] * (len(items) - len(taken))):
                u += [val] * tk
                v += [val] * (cnt - tk)
                ways *= math.comb(cnt, tk)
            out.append((tuple(u), tuple(v), ways))
            return
        if i == len(items) or need > tail_capacity[i]:
            return
        cnt = items[i][1]
        for tk in range(min(cnt, need), -1, -1):
            rec(i + 1, need - tk, taken + [tk])

    rec(0, m, [])
    return tuple(out)


def plan_shapes():
    """(d, m, n) with d <= 5 and at most 5000 (u, v) pairs up to m + n = 12,
    and d = 1 up to m + n = 18."""
    for d in range(1, 6):
        top = 18 if d == 1 else 12
        for m in range(1, top):
            for n in range(1, top - m + 1):
                if d == 1 or len(multi_indices(d, m)) * len(multi_indices(d, n)) <= 5000:
                    yield d, m, n


def test_product_plan_matches_recursive_splits():
    shapes = list(plan_shapes())
    assert len(shapes) == 380
    for d, m, n in shapes:
        pu, pv = _position(d, m), _position(d, n)
        want = [[None] * len(pv) for _ in pu]
        for p, t in enumerate(multi_indices(d, m + n)):
            for u, v, ways in recursive_splits(t, m):
                want[pu[u]][pv[v]] = (p, ways)
        assert _product_plan(d, m, n) == tuple(map(tuple, want)), (d, m, n)


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
            brute += (w * full(a)[i, j]) ** 2
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
