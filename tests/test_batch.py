"""Evaluation over point batches: gen_appell_batch, the batched graded
products and compositions, and norms over rows.  Every row is the
single-object route bit for bit, and the suites that sweep points or pairs
in one batch equal their point-by-point loops, kept here literally."""

import warnings
from functools import lru_cache
from math import comb, exp, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from appellsys import suites, symtensor
from appellsys.appell import (
    AppellBasis,
    appell_eval,
    delta_appell_eval,
    delta_z,
    dist_norm,
    gen_appell_all,
    gen_appell_batch,
    q_seq,
    radon_nikodym,
    s_inverse,
    s_transform,
)
from appellsys.jets import (
    ScalarJet,
    _frozen,
    _graded_plan,
    _row_tensors,
    _stack,
    graded_product,
    graded_rows,
    identity_vjet,
    jet_compose_scalar,
    log1p_vjet,
    random_vjet,
)
from appellsys.measures import GaussianModel, PoissonModel
from appellsys.symtensor import (
    DimensionMismatchError,
    HilbertScale,
    SymTensor,
    multi_indices,
    multiplicity,
    norm_rows,
    power_tensor,
    random_tensor,
    scalar_tensor,
    tensor_norm,
    vector_tensor,
    zero_tensor,
)
from appellsys.wick import _dist_norm_rows, wick_mul, wick_norm_check


def view(ks):
    """The (vector, live) view of kernels 0, 1, ..., as ScalarJet._view gives it."""
    return _frozen(_stack(ks), _graded_plan(ks[0].dim, tuple(range(len(ks)))).starts)


def hexes(values):
    return [float(v).hex() for v in values]


def tensor_hexes(tensors):
    return [float(v).hex() for t in tensors for v in t.coeffs.values()]


def as_tensors(dim, row, top):
    """Kernels 0..top whose coefficients, grade after grade, are row."""
    out, col = [], 0
    for n in range(top + 1):
        keys = multi_indices(dim, n)
        out.append(SymTensor(dim, n, dict(zip(keys, row[col : col + len(keys)].tolist()))))
        col += len(keys)
    return out


def literal_plain(basis, z, grades):
    """The plain tensors at z as before batching: power tensors and one
    graded product against the constants at zero."""
    powers = [power_tensor(z, k) for k in range(max(grades) + 1)]
    values = graded_product(basis.dim, grades, view(powers), basis.u_jet._view(), comb)
    return _row_tensors(basis.dim, grades, values)


def literal_gen_appell_all(basis, z):
    """gen_appell_all as before batching: one composition per grade."""
    N = basis.degree
    plain = literal_plain(basis, z, range(N + 1))
    return [scalar_tensor(basis.dim, 1.0)] + [literal_compose(basis.A, n, plain) for n in range(1, N + 1)]


def literal_compose(ck, n, ks):
    """Grade n of compose_stack as a literal loop over every row of the
    tables (n, m) of the kernels ks holds: ks may end before kernel n."""
    if n == 0:
        return ks[0]
    acc = zero_tensor(ck.dim, n)
    for m in range(1, min(n, len(ks) - 1) + 1):
        inner = zero_tensor(ck.dim, n)
        for u, row in zip(*ck.rows.get((n, m), ((), []))):
            tens = SymTensor(ck.dim, n, dict(zip(multi_indices(ck.dim, n), row.tolist())))
            inner = inner + tens.scale(multiplicity(u) * ks[m][u])
        acc = acc + inner.scale(1.0 / factorial(m))
    return acc


@lru_cache(maxsize=None)
def make_basis(measure, alpha_kind, d, N):
    if measure == "gaussian":
        model = GaussianModel.standard(d)
    else:
        model = PoissonModel(tuple(1.0 + 0.5 * i for i in range(d)))
    if alpha_kind == "random":
        alpha = random_vjet(np.random.default_rng(10 * d + N), d, N)
    else:
        alpha = (identity_vjet if alpha_kind == "id" else log1p_vjet)(d, N)
    return AppellBasis(model, alpha, degree=N)


@st.composite
def point_batches(draw):
    """A basis with d <= 3, N <= 6 and a batch of points holding 0,
    negative coordinates, signed zeros and a repeated row."""
    d, N = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    measure = draw(st.sampled_from(["gaussian", "poisson"]))
    basis = make_basis(measure, draw(st.sampled_from(["id", "log1p", "random"])), d, N)
    coord = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, -0.0, -1.0])
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=6))
    return basis, np.array([*points, points[0], [0.0] * d])


def random_stack(rng, d, top, rows):
    """rows stacks of kernels 0..top with some dead kernels and zero entries."""
    x = rng.standard_normal((rows, sum(len(multi_indices(d, n)) for n in range(top + 1))))
    x[rng.random(x.shape) < 0.2] = 0.0
    col = 0
    for n in range(top + 1):
        width = len(multi_indices(d, n))
        x[rng.random(rows) < 0.3, col : col + width] = 0.0
        col += width
    return x


class TestGenAppellBatch:
    @settings(max_examples=40)
    @given(case=point_batches())
    def test_rows_are_the_single_point_tensors(self, case):
        basis, zs = case
        rows = gen_appell_batch(basis, zs)
        sizes = [len(multi_indices(basis.dim, n)) for n in range(basis.degree + 1)]
        assert [r.shape for r in rows] == [(len(zs), s) for s in sizes]
        for i, z in enumerate(zs):
            want = tensor_hexes(literal_gen_appell_all(basis, z))
            assert hexes(np.concatenate([r[i] for r in rows])) == want
            assert tensor_hexes(gen_appell_all(basis, z)) == want
            n = i % (basis.degree + 1)
            assert tensor_hexes([appell_eval(basis, n, z)]) == tensor_hexes(literal_plain(basis, z, [n]))

    def test_blocks_keep_bits(self, monkeypatch):
        basis = make_basis("poisson", "random", 2, 5)
        zs = np.random.default_rng(4).standard_normal((50, 2)) * 2
        whole = gen_appell_batch(basis, zs)
        for floats in (1, 200):
            monkeypatch.setattr(symtensor, "_BLOCK_FLOATS", floats)
            cut = gen_appell_batch(basis, zs)
            assert [r.tobytes() for r in cut] == [r.tobytes() for r in whole]

    def test_no_points(self):
        basis = make_basis("gaussian", "log1p", 2, 4)
        rows = gen_appell_batch(basis, np.empty((0, 2)))
        assert [r.shape for r in rows] == [(0, len(multi_indices(2, n))) for n in range(5)]


class TestPointShapes:
    def test_misshapen_points_raise_dimension_mismatch(self):
        b1, b2 = make_basis("gaussian", "id", 1, 4), make_basis("gaussian", "log1p", 2, 4)
        with pytest.raises(DimensionMismatchError, match=r"shape \(1, 2\)"):
            gen_appell_all(b2, [[1.0, 2.0]])
        with pytest.raises(DimensionMismatchError, match=r"shape \(\)"):
            gen_appell_all(b1, 3.0)
        with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
            appell_eval(b2, 2, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\)"):
            gen_appell_batch(b2, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError, match=r"shape \(1, 3\)"):
            gen_appell_batch(b2, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize(
        "z, message",
        [
            ([float("nan"), 1.0], r"index \(1,\): nan"),
            ([1.0, float("inf")], r"index \(2,\): inf"),
            ([1e200, 1.0], r"index \(1, 1\): inf"),
            ([1e100, 1e100], r"index \(1, 1, 1, 1\): inf"),
        ],
    )
    def test_non_finite_points_raise_as_before_without_warning(self, z, message):
        basis = make_basis("gaussian", "log1p", 2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite coefficient at " + message):
                gen_appell_all(basis, z)
            # the first row holding a non-finite entry raises
            with pytest.raises(ValueError, match="non-finite coefficient at " + message):
                gen_appell_batch(basis, [[0.5, -1.0], z, [np.nan, np.nan]])

    def test_shift_kernel_points_raise_dimension_mismatch(self):
        basis = make_basis("gaussian", "log1p", 2, 4)
        for z, shape in (([1.0, 2.0, 3.0], r"\(3,\)"), ([[1.0, 2.0]], r"\(1, 2\)"), (3.0, r"\(\)")):
            with pytest.raises(DimensionMismatchError, match="shape " + shape):
                radon_nikodym(basis, z)

    @pytest.mark.parametrize(
        "z, message",
        [
            ([float("nan"), 1.0], r"index \(1,\): nan"),
            ([1e200, 1.0], r"index \(1, 1\): inf"),
            ([1e100, 1e100], r"index \(1, 1, 1, 1\): inf"),
        ],
    )
    def test_point_mass_powers_raise_without_warning(self, z, message):
        basis = make_basis("gaussian", "log1p", 2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite coefficient at " + message):
                delta_appell_eval(basis, 5, z)
            with pytest.raises(ValueError, match="non-finite coefficient at " + message):
                radon_nikodym(basis, z)

    @pytest.mark.parametrize("measure, alpha_kind, d, N", [("gaussian", "log1p", 2, 5), ("poisson", "random", 3, 4)])
    def test_point_mass_routes_keep_the_power_tensor_bits(self, measure, alpha_kind, d, N):
        # the literal routes build their powers with power_tensor
        basis = make_basis(measure, alpha_kind, d, N)
        rng = np.random.default_rng(8)
        for w in [np.zeros(d), -np.zeros(d), *(rng.standard_normal(d) * 3 for _ in range(5))]:
            for n in range(N + 1):
                want = literal_compose(basis.A, n, [power_tensor(w, m) for m in range(n + 1)])
                assert tensor_hexes([delta_appell_eval(basis, n, w)]) == tensor_hexes([want])
            jet = ScalarJet(d, N, tuple(power_tensor(-w, m) for m in range(N + 1)))
            assert tensor_hexes(radon_nikodym(basis, w).kernels) == tensor_hexes(s_inverse(basis, jet).kernels)

    def test_an_overflowing_power_raises_before_the_sums(self):
        # z^2 overflows to inf, and 2 z u_1 = -2e309 makes the plain sum
        # inf - inf = nan: the power raises first, as power_tensor did
        basis = AppellBasis(PoissonModel((1000.0,)), degree=2)
        with pytest.raises(ValueError, match=r"index \(1, 1\): inf$"):
            gen_appell_all(basis, [1e306])

    def test_overflow_of_a_grade_raises_at_its_first_entry(self):
        basis = make_basis("gaussian", "id", 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"index \(1, 1, 1, 1, 1\): inf"):
                gen_appell_all(basis, [1e62])
            with pytest.raises(ValueError, match=r"index \(1, 1, 1, 1, 1\): inf"):
                appell_eval(basis, 5, [1e62])
            assert appell_eval(basis, 4, [1e62]).rank == 4


class TestBatchedPlans:
    @settings(max_examples=40)
    @given(data=st.data(), d=st.integers(1, 3), top=st.integers(0, 6), rows=st.integers(1, 4))
    def test_graded_rows_are_graded_products(self, data, d, top, rows):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grades = sorted(data.draw(st.sets(st.integers(0, top), min_size=1)))
        weight = data.draw(st.sampled_from([comb, lambda n, k: 1, lambda n, k: n - k + 0.5]))
        X, Y = random_stack(rng, d, top, rows), random_stack(rng, d, top, rows)
        both = graded_rows(d, grades, X, Y, weight)
        left = graded_rows(d, grades, X, Y[0], weight)
        right = graded_rows(d, grades, X[0], Y, weight)
        for r in range(rows):
            f, g = as_tensors(d, X[r], top), as_tensors(d, Y[r], top)
            f0, g0 = as_tensors(d, X[0], top), as_tensors(d, Y[0], top)
            assert hexes(both[r]) == hexes(graded_product(d, grades, view(f), view(g), weight))
            assert hexes(left[r]) == hexes(graded_product(d, grades, view(f), view(g0), weight))
            assert hexes(right[r]) == hexes(graded_product(d, grades, view(f0), view(g), weight))
        assert hexes(graded_rows(d, grades, X[0], Y[0], weight)) == hexes(both[0])

    @settings(max_examples=80)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        N=st.integers(1, 6),
        alpha_kind=st.sampled_from(["id", "log1p", "random"]),
        side=st.sampled_from(["A", "B"]),
        rows=st.sampled_from([0, 1, 5]),
    )
    def test_compose_stack_is_literal_compose(self, data, d, N, alpha_kind, side, rows):
        # the kernels have +0.0 and -0.0 holes, dead grades of either sign,
        # and now and then a grade of +-1e308 that overflows in the sums
        ck = getattr(make_basis("poisson", alpha_kind, d, N), side)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = random_stack(rng, d, N, rows) * rng.choice([1.0, -1.0], (rows, 1))
        X[rng.random(X.shape) < 0.1] = -0.0
        starts = np.cumsum([0] + [len(multi_indices(d, n)) for n in range(N + 1)])
        if rows and data.draw(st.booleans()):
            m = data.draw(st.integers(1, N))
            X[0, starts[m] : starts[m + 1]] = rng.choice([1e308, -1e308], starts[m + 1] - starts[m])
        got = ck.compose_stack(X)
        assert got.shape == X.shape
        for r in range(rows):
            ks = as_tensors(d, X[r], N)
            assert hexes(ck.compose_stack(X[r])) == hexes(got[r])
            for n in range(N + 1):
                grade = got[r, starts[n] : starts[n + 1]]
                assert hexes(ck.compose_stack(X[r, : starts[n + 1]], n)) == hexes(grade)
                # a stack that ends before kernel n leaves out its block
                narrow = ck.compose_stack(X[r, : starts[max(n, 1)]], n)
                try:
                    want = tensor_hexes([literal_compose(ck, n, ks)])
                    want_narrow = tensor_hexes([literal_compose(ck, n, ks[: max(n, 1)])])
                except ValueError:
                    assert not np.isfinite(grade).all()
                    continue
                assert hexes(grade) == want
                assert hexes(narrow) == want_narrow

    @settings(max_examples=40)
    @given(data=st.data(), case=point_batches(), scale=st.sampled_from([1.0, 1e-320, -1e-322]))
    def test_one_call_routes_are_the_per_grade_routes(self, data, case, scale):
        # the per-grade routes as they were: one composition per grade, then a
        # scale per tensor; kernel 0 is often -0.0, and a tiny scale puts
        # grades below the smallest subnormal after 1/n!, where a -0.0
        # grade must stay a tensor of -0.0, not become the shared +0.0
        basis, zs = case
        d, N = basis.dim, basis.degree
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ks = as_tensors(d, random_stack(rng, d, N, 1)[0] * scale, N)
        if data.draw(st.booleans()):
            ks[0] = scalar_tensor(d, -0.0)
        jet = ScalarJet(d, N, tuple(ks))
        Phi = q_seq(basis, dict(enumerate(ks)))
        coeffs = [k.scale(factorial(n)) for n, k in enumerate(ks)]
        want = [literal_compose(basis.B, n, coeffs) for n in range(N + 1)]
        assert tensor_hexes(s_transform(basis, Phi).kernels) == tensor_hexes(want)
        want = [literal_compose(basis.A, n, ks).scale(1.0 / factorial(n)) for n in range(N + 1)]
        assert tensor_hexes(s_inverse(basis, jet).kernels) == tensor_hexes(want)
        want = [literal_compose(basis.A, n, ks) for n in range(N + 1)]
        assert tensor_hexes(jet_compose_scalar(jet, basis.alpha, basis.A).kernels) == tensor_hexes(want)
        for z in zs * scale:
            want = [t.scale(1.0 / factorial(n)) for n, t in enumerate(literal_gen_appell_all(basis, z))]
            assert tensor_hexes(delta_z(basis, z).kernels) == tensor_hexes(want)

    @settings(max_examples=40)
    @given(data=st.data(), d=st.integers(1, 3), rank=st.integers(0, 6), p=st.sampled_from([-2, -1.0, 0, 1, 2.5]))
    def test_norm_rows_are_tensor_norms(self, data, d, rank, p):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = HilbertScale(d, tuple(rng.uniform(0.5, 3.0, d))) if data.draw(st.booleans()) else HilbertScale(d)
        values = random_stack(rng, d, rank, 5)[:, -len(multi_indices(d, rank)) :]
        values[1] = -values[0]
        got = norm_rows(values, rank, p, scale)
        want = [tensor_norm(SymTensor(d, rank, dict(zip(multi_indices(d, rank), v.tolist()))), p, scale) for v in values]
        assert hexes(got) == hexes(want)

    @settings(max_examples=20)
    @given(data=st.data(), case=point_batches(), p=st.sampled_from([0, 1, 2]), q=st.sampled_from([1, 2, 4]))
    def test_dist_norm_rows_are_dist_norms(self, data, case, p, q):
        basis, _ = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = random_stack(rng, basis.dim, basis.degree, 4)
        want = [dist_norm(basis, q_seq(basis, dict(enumerate(as_tensors(basis.dim, x, basis.degree)))), p, q) for x in X]
        assert hexes(_dist_norm_rows(basis, X, p, q)) == hexes(want)


def literal_growth_bounds(seed):
    """suite_growth_bounds point by point, as before batching: its details
    and (n, lhs, bound) of each violation."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    eps, details, rows = 0.5, {}, []
    for kind, alpha_kind, dim in [("gaussian", "id", 1), ("poisson", "log1p", 1), ("gaussian", "log1p", 2)]:
        basis = suites._basis(kind, alpha_kind, dim, 5)
        sigma = suites.estimate_sigma_eps(basis, 1.0, eps, seed=seed)
        details[f"sigma-{kind}-{alpha_kind}-d{dim}"] = sigma
        for _ in range(334):
            direction = rng.standard_normal(dim)
            z = rng.uniform(0.0, 8.0) * direction / np.linalg.norm(direction)
            znorm = tensor_norm(vector_tensor(z), -1.0, basis.scale)
            tensors = literal_gen_appell_all(basis, z)
            for n in range(basis.degree + 1):
                lhs = tensor_norm(tensors[n], -2.0, basis.scale)
                bound = 2.0 * factorial(n) * sigma ** (-n) * exp(eps * znorm)
                if lhs > bound:
                    rows.append((n, lhs, bound))
    details["violations"] = len(rows)
    details["trials"] = 3 * 334
    return details, rows


def literal_wick_norm_check(basis, p1, q1, p2, q2, trials, seed):
    """wick_norm_check trial by trial, as before batching."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    p, q = max(p1, p2), q1 + q2 + 1
    violations, worst = 0, 0.0
    for _ in range(trials):
        Phi = q_seq(basis, {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)})
        Psi = q_seq(basis, {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)})
        lhs = dist_norm(basis, wick_mul(Phi, Psi), p, q)
        rhs = dist_norm(basis, Phi, p1, q1) * dist_norm(basis, Psi, p2, q2)
        worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
        violations += lhs > rhs * (1 + 1e-12)
    return {"p": p, "q": q, "trials": trials, "violations": violations, "max_quotient": worst,
            "passed": violations == 0}


def bits(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    return obj


class TestBatchedSuites:
    @pytest.mark.parametrize("seed", [5, 12345])
    def test_growth_bounds_equal_the_point_loop(self, seed):
        (got,) = suites.run_suite(["growth-bounds"], seed)
        details, rows = literal_growth_bounds(seed)
        assert bits(got.details) == bits(details)
        assert bits([(r["n"], r["value"], r["expected"]) for r in got.rows]) == bits(rows)

    @pytest.mark.parametrize("seed", [5, 12345])
    def test_growth_bound_violations_equal_the_point_loop(self, seed, monkeypatch):
        # a radius this large makes the bound fail often, so every lhs and
        # bound of a violation is compared
        monkeypatch.setattr(suites, "estimate_sigma_eps", lambda basis, p, eps, seed: 1.5)
        (got,) = suites.run_suite(["growth-bounds"], seed)
        details, rows = literal_growth_bounds(seed)
        assert len(rows) > 100
        assert bits(got.details) == bits(details)
        assert bits([(r["n"], r["value"], r["expected"]) for r in got.rows]) == bits(rows)

    def test_growth_bounds_makes_one_batch_call_per_basis(self, monkeypatch):
        batch, calls, singles = suites.gen_appell_batch, [], []

        def counted(basis, zs):
            calls.append(len(zs))
            return batch(basis, zs)

        monkeypatch.setattr(suites, "gen_appell_batch", counted)
        monkeypatch.setattr(suites, "gen_appell_all", lambda *args: singles.append(args))
        suites.run_suite(["growth-bounds"], 5)
        assert calls == [334, 334, 334] and singles == []

    @pytest.mark.parametrize("seed", [5, 12345])
    def test_wick_continuity_equals_the_trial_loop(self, seed):
        basis = suites._basis("gaussian", "id", 2, 5)
        want = literal_wick_norm_check(basis, 1, 1, 2, 2, 1000, seed)
        assert bits(wick_norm_check(basis, 1, 1, 2, 2, trials=1000, seed=seed)) == bits(want)
        (got,) = suites.run_suite(["wick-continuity"], seed)
        assert bits(got.details) == bits(want)

    def test_wick_norm_check_on_other_shapes(self):
        basis = make_basis("poisson", "log1p", 3, 3)
        want = literal_wick_norm_check(basis, 0, 1, 1, 0, 40, 3)
        assert bits(wick_norm_check(basis, 0, 1, 1, 0, trials=40, seed=3)) == bits(want)
