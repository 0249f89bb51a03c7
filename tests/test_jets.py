"""Jet arithmetic against sympy series and composition-sum oracles."""

import sys
from functools import lru_cache
from math import comb, exp, factorial, log

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

import appellsys.jets
from appellsys.appell import (
    AppellBasis,
    appell_eval,
    gen_appell_all,
    p_seq,
    q_seq,
    to_monomial,
)
from appellsys.jets import (
    CompKernels,
    ScalarJet,
    SingularJetError,
    VectorJet,
    comp_kernels,
    constant_jet,
    expm1_vjet,
    identity_vjet,
    jet_compose_scalar,
    jet_compose_vector,
    jet_exp,
    jet_invert,
    jet_log,
    jet_mul,
    jet_recip,
    linear_jet,
    linear_part,
    log1p_vjet,
    random_vjet,
    unit_jet,
)
from appellsys.measures import GaussianModel, PoissonModel
from appellsys.remeasure import transport_dist
from appellsys.symtensor import (
    _zero,
    multi_indices,
    pairing,
    partial_pairing,
    power_tensor,
    random_tensor,
    scalar_tensor,
    SymTensor,
    sym_product,
    zero_tensor,
)
from appellsys.wick import wick_inv, wick_mul

N = 6


def jet_1d(coeffs):
    """1D scalar jet from exponential kernels (c_0, c_1, ...)."""
    ks = [SymTensor(1, n, {(1,) * n: float(c)}) for n, c in enumerate(coeffs)]
    return ScalarJet(1, len(coeffs) - 1, tuple(ks))


def kernels_1d(jet):
    return [jet.kernels[n][(1,) * n] for n in range(jet.degree + 1)]


def sympy_kernels(expr, x, degree):
    """Exponential coefficients of a sympy expression around 0."""
    series = sp.series(expr, x, 0, degree + 1).removeO()
    poly = sp.Poly(series, x)
    out = []
    for n in range(degree + 1):
        out.append(float(poly.coeff_monomial(x**n)) * factorial(n))
    return out


class TestScalarArithmetic:
    def test_unit_is_multiplicative_identity(self):
        rng = np.random.default_rng(1)
        f = ScalarJet(2, 4, tuple(random_tensor(rng, 2, n) for n in range(5)))
        g = jet_mul(unit_jet(2, 4), f)
        for n in range(5):
            assert (g.kernels[n] - f.kernels[n]).max_abs() < 1e-14

    def test_one_plus_theta_squared(self):
        f = jet_1d([1.0, 1.0, 0.0, 0.0])
        sq = jet_mul(f, f)
        assert kernels_1d(sq) == pytest.approx([1.0, 2.0, 2.0, 0.0])

    def test_exp_jets_add_exponents(self):
        # exp(<a,x>) * exp(<b,x>) = exp(<a+b,x>): kernels are tensor powers
        a, b = np.array([0.5, -0.3]), np.array([0.2, 0.7])
        ja = jet_exp(linear_jet(2, N, a))
        jb = jet_exp(linear_jet(2, N, b))
        prod = jet_mul(ja, jb)
        for n in range(N + 1):
            assert (prod.kernels[n] - power_tensor(a + b, n)).max_abs() < 1e-12

    def test_exp_of_theta(self):
        f = jet_exp(jet_1d([0.0, 1.0] + [0.0] * (N - 1)))
        assert kernels_1d(f) == pytest.approx([1.0] * (N + 1))

    def test_exp_of_zero(self):
        f = jet_exp(constant_jet(2, 3, 0.0))
        assert f.constant() == 1.0
        assert all(f.kernels[n].max_abs() == 0 for n in range(1, 4))

    def test_recip_geometric(self):
        f = jet_recip(jet_1d([1.0, 1.0] + [0.0] * (N - 1)))
        expected = [(-1.0) ** n * factorial(n) for n in range(N + 1)]
        assert kernels_1d(f) == pytest.approx(expected)

    def test_recip_round_trip(self):
        rng = np.random.default_rng(2)
        ks = [scalar_tensor(2, 1.7)] + [random_tensor(rng, 2, n) for n in range(1, N + 1)]
        f = ScalarJet(2, N, tuple(ks))
        prod = jet_mul(f, jet_recip(f))
        assert abs(prod.constant() - 1.0) < 1e-12
        for n in range(1, N + 1):
            assert prod.kernels[n].max_abs() < 1e-11

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(3)
        ks = [scalar_tensor(2, 0.4)] + [
            random_tensor(rng, 2, n, scale=0.5) for n in range(1, N + 1)
        ]
        f = ScalarJet(2, N, tuple(ks))
        back = jet_log(jet_exp(f))
        for n in range(N + 1):
            assert (back.kernels[n] - f.kernels[n]).max_abs() < 1e-11

    def test_log_needs_positive_constant(self):
        with pytest.raises(SingularJetError):
            jet_log(jet_1d([0.0, 1.0]))
        with pytest.raises(SingularJetError):
            jet_recip(jet_1d([0.0, 1.0]))

    @pytest.mark.parametrize(
        "expr_name",
        ["exp", "log1p_shifted", "recip"],
    )
    def test_against_sympy(self, expr_name):
        x = sp.Symbol("x")
        base = sp.Rational(1, 2) * x + sp.Rational(1, 3) * x**2 - sp.Rational(1, 5) * x**3
        base_kernels = sympy_kernels(base, x, N)
        f = jet_1d(base_kernels)
        if expr_name == "exp":
            got, expected = jet_exp(f), sympy_kernels(sp.exp(base), x, N)
        elif expr_name == "log1p_shifted":
            got, expected = jet_log(jet_1d([c + (1.0 if i == 0 else 0.0) for i, c in enumerate(base_kernels)])), sympy_kernels(sp.log(1 + base), x, N)
        else:
            got, expected = jet_recip(jet_1d([c + (2.0 if i == 0 else 0.0) for i, c in enumerate(base_kernels)])), sympy_kernels(1 / (2 + base), x, N)
        assert kernels_1d(got) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_eval_truncated_series(self):
        f = jet_exp(jet_1d([0.0, 1.0] + [0.0] * (N - 1)))
        theta = 0.1
        assert f.eval_batch([[theta]])[0] == pytest.approx(
            sum(theta**n / factorial(n) for n in range(N + 1))
        )

    def test_shape_mismatch_rejected(self):
        from appellsys.symtensor import DimensionMismatchError

        with pytest.raises(ValueError):
            jet_mul(jet_1d([1.0, 1.0]), jet_1d([1.0, 1.0, 0.0]))
        with pytest.raises(DimensionMismatchError):
            jet_mul(jet_1d([1.0, 1.0]), unit_jet(2, 1))


def dense_mul(f, g):
    """jet_mul as a literal loop over every grade pair, zero kernels included."""
    ks = []
    for n in range(f.degree + 1):
        acc = zero_tensor(f.dim, n)
        for k in range(n + 1):
            acc = acc + sym_product(f.kernels[k], g.kernels[n - k]).scale(comb(n, k))
        ks.append(acc)
    return ScalarJet(f.dim, f.degree, tuple(ks))


def dense_exp(f):
    h = [scalar_tensor(f.dim, exp(f.constant()))]
    for n in range(1, f.degree + 1):
        acc = zero_tensor(f.dim, n)
        for j in range(1, n + 1):
            acc = acc + sym_product(f.kernels[j], h[n - j]).scale(comb(n - 1, j - 1))
        h.append(acc)
    return ScalarJet(f.dim, f.degree, tuple(h))


def dense_log(f):
    c0 = f.constant()
    g = [scalar_tensor(f.dim, log(c0))]
    for n in range(1, f.degree + 1):
        acc = f.kernels[n]
        for j in range(1, n):
            acc = acc - sym_product(g[j], f.kernels[n - j]).scale(comb(n - 1, j - 1))
        g.append(acc.scale(1.0 / c0))
    return ScalarJet(f.dim, f.degree, tuple(g))


def dense_recip(f):
    c0 = f.constant()
    h = [scalar_tensor(f.dim, 1.0 / c0)]
    for n in range(1, f.degree + 1):
        acc = zero_tensor(f.dim, n)
        for k in range(1, n + 1):
            acc = acc + sym_product(f.kernels[k], h[n - k]).scale(comb(n, k))
        h.append(acc.scale(-1.0 / c0))
    return ScalarJet(f.dim, f.degree, tuple(h))


def dense_wick_mul(Phi, Psi):
    out = {}
    for n in range(Phi.degree + 1):
        acc = zero_tensor(Phi.dim, n)
        for k in range(n + 1):
            acc = acc + sym_product(Phi.kernels[k], Psi.kernels[n - k])
        out[n] = acc
    return q_seq(Phi.basis, out)


def dense_wick_inv(Phi):
    c0 = Phi.kernels[0].item()
    inv = {0: scalar_tensor(Phi.dim, 1.0 / c0)}
    for n in range(1, Phi.degree + 1):
        acc = zero_tensor(Phi.dim, n)
        for k in range(1, n + 1):
            acc = acc + sym_product(Phi.kernels[k], inv[n - k])
        inv[n] = acc.scale(-1.0 / c0)
    return q_seq(Phi.basis, inv)


def dense_transport(basis_mut, basis_mu, Phi_t):
    ratio = jet_mul(basis_mu.ualpha_jet, basis_mut.malpha_jet)
    weights = [r.scale(1.0 / factorial(j)) for j, r in enumerate(ratio.kernels)]
    out = {}
    for n in range(basis_mu.degree + 1):
        acc = zero_tensor(basis_mu.dim, n)
        for k in range(n + 1):
            acc = acc + sym_product(Phi_t.kernels[k], weights[n - k])
        out[n] = acc
    return q_seq(basis_mu, out)


@lru_cache(maxsize=None)
def shared_alpha_bases(d, deg):
    """Standard Gaussian, a wider Gaussian (its ratio jet to the standard one
    has dead odd kernels) and Poisson, all with the identity alpha."""
    return (
        AppellBasis(GaussianModel.standard(d), degree=deg),
        AppellBasis(GaussianModel.standard(d, 2.0), degree=deg),
        AppellBasis(PoissonModel(tuple(1.0 for _ in range(d))), degree=deg),
    )


def bits(jet):
    """Every coefficient as its exact hex form, so -0.0 and +0.0 differ."""
    return [[v.hex() for v in k.coeffs.values()] for k in jet.kernels]


def count_calls(monkeypatch, fn):
    """Record every call of fn made through an appellsys module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("appellsys.") and vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@st.composite
def sparse_jets(draw, count):
    """count jets of one shape, each kernel random, +0.0 or -0.0; the
    constant stays random so that log and recip are defined."""
    d, deg = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jets = []
    for _ in range(count):
        ks = [scalar_tensor(d, 0.5 + rng.random())]
        for n in range(1, deg + 1):
            t = random_tensor(rng, d, n)
            ks.append(draw(st.sampled_from((t, t.scale(0.0), t.scale(-0.0)))))
        jets.append(ScalarJet(d, deg, tuple(ks)))
    return jets


class TestLiveGrades:
    @settings(max_examples=60)
    @given(jets=sparse_jets(2), zero_constant=st.booleans())
    def test_skipping_zero_kernels_is_bit_identical(self, jets, zero_constant):
        f, g = jets
        if zero_constant:
            f = f.shift_constant(-f.constant())
        assert bits(jet_mul(f, g)) == bits(dense_mul(f, g))
        assert bits(jet_exp(f)) == bits(dense_exp(f))
        assert bits(jet_recip(g)) == bits(dense_recip(g))
        assert bits(jet_log(g)) == bits(dense_log(g))
        if f.degree == 0:
            return  # an AppellBasis needs degree >= 1
        gauss, wide, poisson = shared_alpha_bases(f.dim, f.degree)
        Phi, Psi = (q_seq(gauss, dict(enumerate(j.kernels))) for j in (f, g))
        assert bits(wick_mul(Phi, Psi)) == bits(dense_wick_mul(Phi, Psi))
        assert bits(wick_inv(Psi)) == bits(dense_wick_inv(Psi))
        for src in (wide, poisson):
            Phi_t = q_seq(src, dict(enumerate(f.kernels)))
            assert bits(transport_dist(src, gauss, Phi_t)) == bits(dense_transport(src, gauss, Phi_t))

    def test_identity_power_kernels_cost_one_product_each(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a.rank, b.rank))
            return sym_product(a, b)

        monkeypatch.setattr(appellsys.jets, "sym_product", counted)
        d, deg = 3, 6
        ck = comp_kernels(identity_vjet(d, deg))
        assert len(calls) == sum(comb(d + m - 1, m) for m in range(2, deg + 1)) == 80
        assert sorted(ck.tables) == [(n, n) for n in range(1, deg + 1)]

    def test_plain_tensors_cost_one_product_per_live_kernel(self, monkeypatch):
        # the constants u_jet of a centred Gaussian are live at even grades only
        d, deg, z = 2, 6, [0.3, -0.7]
        basis = AppellBasis(GaussianModel.standard(d), degree=deg)
        products = count_calls(monkeypatch, sym_product)
        appell_eval(basis, deg, z)
        assert len(products) == 4
        products.clear()
        gen_appell_all(basis, z)
        assert len(products) == 16
        contractions = count_calls(monkeypatch, partial_pairing)
        rng = np.random.default_rng(0)
        to_monomial(basis, p_seq(basis, {n: random_tensor(rng, d, n) for n in range(deg + 1)}))
        assert len(contractions) == 16

    def test_product_builds_one_tensor_per_grade_and_product(self, monkeypatch):
        # the terms of a grade add into one accumulator, built once
        rng = np.random.default_rng(8)
        d, deg = 2, 5
        f, g = (
            ScalarJet(d, deg, tuple(random_tensor(rng, d, n) for n in range(deg + 1)))
            for _ in range(2)
        )
        built = []
        post_init = SymTensor.__post_init__

        def counted(self):
            built.append(self.rank)
            post_init(self)

        products = count_calls(monkeypatch, sym_product)
        monkeypatch.setattr(SymTensor, "__post_init__", counted)
        jet_mul(f, g)
        assert len(products) == sum(n + 1 for n in range(deg + 1)) == 21
        assert len(built) == (deg + 1) + len(products)

    def test_dead_grades_share_one_zero_that_stays_zero(self):
        # a linear factor times a constant: grades 2..deg have no live term
        d, deg = 2, 5
        lin = linear_jet(d, deg, [1.0, -2.0])
        zeros = [_zero(d, n) for n in range(deg + 1)]
        before = [[v.hex() for v in z.coeffs.values()] for z in zeros]
        prod = jet_mul(constant_jet(d, deg, 3.0), lin)
        for n in range(2, deg + 1):
            assert prod.kernels[n] is zeros[n]
        # the shared zeros then flow into further products and sums
        jet_mul(prod, prod)
        jet_exp(prod)
        jet_compose_scalar(prod, random_vjet(np.random.default_rng(2), d, deg))
        assert [[v.hex() for v in z.coeffs.values()] for z in zeros] == before
        assert before == [["0x0.0p+0"] * len(multi_indices(d, n)) for n in range(deg + 1)]


class TestCompose:
    def test_identity_returns_f(self):
        rng = np.random.default_rng(4)
        f = ScalarJet(2, N, tuple(random_tensor(rng, 2, n) for n in range(N + 1)))
        g = jet_compose_scalar(f, identity_vjet(2, N))
        for n in range(N + 1):
            assert (g.kernels[n] - f.kernels[n]).max_abs() < 1e-12

    def test_constant_jet_composes_to_itself(self):
        f = constant_jet(2, N, 3.0)
        g = jet_compose_scalar(f, random_vjet(np.random.default_rng(5), 2, N))
        assert g.constant() == 3.0
        assert all(g.kernels[n].max_abs() < 1e-14 for n in range(1, N + 1))

    def test_exp_compose_log1p(self):
        # exp(log(1 + theta)) = 1 + theta
        f = jet_1d([1.0] * (N + 1))  # exp jet
        got = jet_compose_scalar(f, log1p_vjet(1, N))
        assert kernels_1d(got) == pytest.approx([1.0, 1.0] + [0.0] * (N - 1), abs=1e-12)

    def test_compose_matches_sympy(self):
        x = sp.Symbol("x")
        inner = x + sp.Rational(1, 4) * x**2 - sp.Rational(1, 6) * x**3
        outer = 1 + x + sp.Rational(1, 2) * x**2 + sp.Rational(1, 7) * x**3
        f = jet_1d(sympy_kernels(outer, x, N))
        a_kernels = sympy_kernels(inner, x, N)
        comps = (jet_1d(a_kernels),)
        a = VectorJet(1, N, comps)
        got = jet_compose_scalar(f, a)
        expected = sympy_kernels(outer.subs(x, inner), x, N)
        assert kernels_1d(got) == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestCompKernels:
    def test_identity_power_kernels(self):
        ck = comp_kernels(identity_vjet(2, 3))
        # A[n][m] vanishes off the diagonal; on it, contraction is the identity
        assert (2, 1) not in ck.tables or all(
            t.max_abs() == 0 for t in ck.tables[(2, 1)].values()
        )
        rng = np.random.default_rng(6)
        p = random_tensor(rng, 2, 3)
        out = ck.contract_out(3, 3, p).scale(1.0 / factorial(3))
        assert (out - p).max_abs() < 1e-12

    def test_log1p_a32_composition_sum(self):
        # two output slots at degree three: sum over (1,2) and (2,1) splits
        ck = comp_kernels(log1p_vjet(1, 4))
        a32 = ck.tables[(3, 2)][(1, 1)][(1, 1, 1)]
        assert a32 == pytest.approx(-6.0)

    def test_expm1_b32_composition_sum(self):
        ck = comp_kernels(expm1_vjet(1, 4))
        b32 = ck.tables[(3, 2)][(1, 1)][(1, 1, 1)]
        assert b32 == pytest.approx(6.0)

    def test_power_kernels_match_pointwise_powers(self):
        # the truncated expansion of the m-th power agrees with the direct
        # power of the evaluated jet up to the truncation tail; small theta
        # pushes the tail below the target accuracy
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            a = random_vjet(rng, d, N)
            ck = comp_kernels(a)
            theta = 0.02 * rng.standard_normal(d)
            av = a.eval_batch([theta])[0]
            for m in (1, 2, 3):
                for u in multi_indices(d, m):
                    direct = 1.0
                    for j in u:
                        direct *= av[j - 1]
                    series = sum(
                        pairing(ck.tables[(n, m)][u], power_tensor(theta, n)) / factorial(n)
                        for n in range(m, N + 1)
                    )
                    assert series == pytest.approx(direct, rel=1e-10, abs=1e-14)

    def test_compose_contracts_present_tables_only(self, monkeypatch):
        # identity power kernels have the tables (n, n) only
        d, deg = 3, 8
        ck = comp_kernels(identity_vjet(d, deg))
        rng = np.random.default_rng(12)
        ks = [random_tensor(rng, d, n) for n in range(deg + 1)]
        calls = []
        contract_out = CompKernels.contract_out

        def counted(self, n, m, coeff):
            calls.append((n, m))
            return contract_out(self, n, m, coeff)

        monkeypatch.setattr(CompKernels, "contract_out", counted)
        got = ck.compose(deg, ks)
        assert calls == [(deg, deg)]
        assert (got - ks[deg]).max_abs() < 1e-12

    def test_vanishing_below_diagonal(self):
        ck = comp_kernels(random_vjet(np.random.default_rng(8), 2, 4))
        assert (1, 2) not in ck.tables
        assert (3, 4) not in ck.tables


class TestInversion:
    def test_identity_inverts_to_identity(self):
        g = jet_invert(identity_vjet(2, 4))
        ident = identity_vjet(2, 4)
        for j in range(2):
            for n in range(5):
                assert (
                    g.components[j].kernels[n] - ident.components[j].kernels[n]
                ).max_abs() < 1e-13

    def test_log1p_inverts_to_expm1(self):
        for deg, tol in ((N, 1e-11), (12, 1e-10)):
            g = jet_invert(log1p_vjet(1, deg))
            expected = expm1_vjet(1, deg)
            for n in range(1, deg + 1):
                assert (g.kernel(n, 1) - expected.kernel(n, 1)).max_abs() < tol

    @settings(max_examples=30)
    @given(
        d=st.integers(1, 3),
        deg=st.integers(1, 6),
        nonlinearity=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_sided_inverse_property(self, d, deg, nonlinearity, seed):
        # the kernels of g grow with the conditioning of the linear part, and
        # rounding with them, so the gap is measured against their size
        a = random_vjet(np.random.default_rng(seed), d, deg, nonlinearity)
        assume(np.linalg.cond(linear_part(a)) < 20)
        g = jet_invert(a)
        size = max(1.0, max(c.max_abs() for c in g.components))
        ident = identity_vjet(d, deg)
        for back in (jet_compose_vector(a, g), jet_compose_vector(g, a)):
            for j in range(d):
                for n in range(1, deg + 1):
                    gap = back.components[j].kernels[n] - ident.components[j].kernels[n]
                    assert gap.max_abs() < 1e-11 * size
        cached = jet_invert(a, comp_kernels(a))
        for c, c_cached in zip(g.components, cached.components):
            for k, k_cached in zip(c.kernels, c_cached.kernels):
                assert k.coeffs == k_cached.coeffs

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            a = random_vjet(rng, d, 5)
            g = jet_invert(a)
            ident = identity_vjet(d, 5)
            for comp_pair in [(a, g), (g, a)]:
                back = jet_compose_vector(*comp_pair)
                for j in range(d):
                    for n in range(1, 6):
                        assert (
                            back.components[j].kernels[n] - ident.components[j].kernels[n]
                        ).max_abs() < 1e-11

    def test_diag_linear_plus_quadratic(self):
        rng = np.random.default_rng(10)
        d, deg = 2, 5
        comps = []
        diag = [2.0, 3.0]
        for j in range(1, d + 1):
            ks = [scalar_tensor(d, 0.0)]
            vec = [diag[j - 1] if i == j else 0.0 for i in range(1, d + 1)]
            ks.append(SymTensor(d, 1, {(i,): vec[i - 1] for i in range(1, d + 1)}))
            ks.append(random_tensor(rng, d, 2, scale=0.2))
            ks += [zero_tensor(d, n) for n in range(3, deg + 1)]
            comps.append(ScalarJet(d, deg, tuple(ks)))
        a = VectorJet(d, deg, tuple(comps))
        g = jet_invert(a)
        back = jet_compose_vector(a, g)
        ident = identity_vjet(d, deg)
        for j in range(d):
            for n in range(1, deg + 1):
                assert (
                    back.components[j].kernels[n] - ident.components[j].kernels[n]
                ).max_abs() < 1e-12

    def test_singular_linear_part_rejected(self):
        d, deg = 2, 3
        comps = []
        for j in range(1, d + 1):
            ks = [scalar_tensor(d, 0.0), SymTensor(d, 1, {(1,): 1.0, (2,): 1.0})]
            ks += [zero_tensor(d, n) for n in range(2, deg + 1)]
            comps.append(ScalarJet(d, deg, tuple(ks)))
        with pytest.raises(SingularJetError):
            jet_invert(VectorJet(d, deg, tuple(comps)))


class TestPowerDuality:
    def test_a_kernels_compose_with_inverse_to_monomials(self):
        # substituting the inverse into the power series of a power of alpha
        # must recover the plain coordinate monomial
        rng = np.random.default_rng(12)
        d = 2
        a = random_vjet(rng, d, N)
        g = jet_invert(a)
        ck = comp_kernels(a)
        for m in (1, 2):
            for u in multi_indices(d, m):
                ks = [zero_tensor(d, n) for n in range(N + 1)]
                ks[0] = scalar_tensor(d, 0.0)
                for n in range(m, N + 1):
                    ks[n] = ck.tables[(n, m)][u]
                jet_u = ScalarJet(d, N, tuple(ks))
                back = jet_compose_scalar(jet_u, g)
                # expected kernels: the degree-m monomial prod theta_{u_i}
                mono = power_tensor(np.ones(d), m)  # placeholder shape
                for n in range(N + 1):
                    if n != m:
                        assert back.kernels[n].max_abs() < 1e-10
                expected = {k: 0.0 for k in multi_indices(d, m)}
                from appellsys.symtensor import multiplicity

                expected[u] = factorial(m) / multiplicity(u)
                for k in multi_indices(d, m):
                    assert back.kernels[m][k] == pytest.approx(expected[k], abs=1e-10)
