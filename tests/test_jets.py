"""Jet arithmetic against sympy series and composition-sum oracles."""

import ast
import re
import sys
import warnings
from dataclasses import FrozenInstanceError
from functools import lru_cache
from math import comb, exp, factorial, log
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

import appellsys.jets
from appellsys.appell import (
    AppellBasis,
    appell_eval,
    gen_appell_all,
    monomial_seq,
    p_seq,
    q_seq,
    to_appell,
    to_monomial,
)
from appellsys.jets import (
    CompKernels,
    _linear_power_kernels,
    _power_layer,
    _live,
    _row_tensors,
    _stack,
    _starts,
    graded_product,
    graded_solve,
    graded_solve_view,
    unit_weight,
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
    jet_from_entries,
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
    DimensionMismatchError,
    _product_plan,
    is_live,
    multi_indices,
    multiplicity,
    pairing,
    partial_pairing,
    power_tensor,
    random_tensor,
    scalar_tensor,
    SymTensor,
    sym_product,
    vector_tensor,
    weighted_sum,
    zero_tensor,
)
from appellsys.wick import wick_inv, wick_mul, wick_solve

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


def hexes(t):
    """Every coefficient of a tensor as its exact hex form, so -0.0 and +0.0 differ."""
    return [v.hex() for v in t.coeffs.values()]


def bits(jet):
    """hexes of every kernel."""
    return [hexes(k) for k in jet.kernels]


def hex_list(x):
    return [v.hex() for v in np.asarray(x).ravel().tolist()]


def values(t):
    """The coefficients of a tensor as a vector, in multi_indices order."""
    return np.array(list(t.coeffs.values()))


def stack_of(ks):
    """Kernels 0, 1, ... as one vector, as a jet's view reads them."""
    return np.concatenate([values(t) for t in ks])


def stack_starts(d, deg):
    """Where each kernel 0..deg begins in a stack, and where the stack ends."""
    return np.cumsum([0] + [len(multi_indices(d, n)) for n in range(deg + 1)]).tolist()


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


def count_method(monkeypatch, cls, name):
    """Record every call of the method cls.name."""
    calls = []
    method = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def count_tensors(monkeypatch):
    """Record the rank of every SymTensor built."""
    built = []
    post_init = SymTensor.__post_init__

    def counted(self, dim, rank, coeffs):
        built.append(rank)
        post_init(self, dim, rank, coeffs)

    monkeypatch.setattr(SymTensor, "__post_init__", counted)
    return built


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

    def test_identity_power_kernels_cost_no_plan(self, monkeypatch):
        # a linear alpha: every table comes from the layer step over its
        # linear part, and no tensor is built; its views are stacked at
        # construction and their offsets need no product plan
        d, deg = 3, 6
        a = identity_vjet(d, deg)
        for n in range(deg + 1):
            zero_tensor(d, n)
        products = count_calls(monkeypatch, sym_product)
        built = count_tensors(monkeypatch)
        appellsys.jets._graded_plan.cache_clear()
        ck = comp_kernels(a)
        assert products == [] and built == []
        assert appellsys.jets._graded_plan.cache_info().misses == 0
        assert sorted(ck.rows) == [(n, n) for n in range(1, deg + 1)]
        comp_kernels(a)
        assert appellsys.jets._graded_plan.cache_info().misses == 0

    def test_plain_tensors_cost_one_plan_per_shape(self, monkeypatch):
        # the constants u_jet of a centred Gaussian are live at even grades only
        d, deg, z = 2, 6, [0.3, -0.7]
        basis = AppellBasis(GaussianModel.standard(d), degree=deg)
        products = count_calls(monkeypatch, sym_product)
        contract_outs = count_method(monkeypatch, CompKernels, "contract_out")
        appellsys.jets._graded_plan.cache_clear()
        for _ in range(2):
            appell_eval(basis, deg, z)
            gen_appell_all(basis, z)
        assert products == [] and contract_outs == []
        # one plan for grade deg alone, one for all grades; the second
        # round builds none
        assert appellsys.jets._graded_plan.cache_info().misses == 2
        contractions = count_calls(monkeypatch, partial_pairing)
        rng = np.random.default_rng(0)
        to_monomial(basis, p_seq(basis, {n: random_tensor(rng, d, n) for n in range(deg + 1)}))
        # the conversion's plan links grade k to kernel m only where weight
        # m - k is live, the 16 contractions of the term route; it calls none
        links = basis.u_plan.combs.reshape(deg + 1, -1)[:, appellsys.jets._starts(d, deg)[:-1]]
        assert contractions == [] and np.count_nonzero(links) == 16

    def test_product_builds_one_tensor_per_live_grade(self, monkeypatch):
        # the terms of a grade add into one accumulator, built once
        rng = np.random.default_rng(8)
        d, deg = 2, 5
        f, g = (
            ScalarJet(d, deg, tuple(random_tensor(rng, d, n) for n in range(deg + 1)))
            for _ in range(2)
        )
        const, lin = constant_jet(d, deg, 3.0), linear_jet(d, deg, [1.0, -2.0])
        zeros = [zero_tensor(d, n) for n in range(deg + 1)]
        products = count_calls(monkeypatch, sym_product)
        built = count_tensors(monkeypatch)
        prod = jet_mul(f, g)
        assert products == [] and built == []
        # the first read of the kernels builds them, the second none
        assert prod.kernels is prod.kernels
        assert built == list(range(deg + 1))
        built.clear()
        # a constant times a linear factor: grades 0 and 2..deg are dead
        prod = jet_mul(const, lin)
        assert built == []
        assert [prod.kernels[n] is zeros[n] for n in range(deg + 1)] == [True, False] + [True] * (deg - 1)
        assert built == [1]

    def test_dead_grades_share_one_zero_that_stays_zero(self):
        # a linear factor times a constant: grades 2..deg have no live term
        d, deg = 2, 5
        lin = linear_jet(d, deg, [1.0, -2.0])
        zeros = [zero_tensor(d, n) for n in range(deg + 1)]
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

    def test_shared_zero_is_read_only(self):
        p = jet_mul(constant_jet(2, 4, 3.0), linear_jet(2, 4, [1.0, 2.0]))
        assert p.kernels[3] is zero_tensor(2, 3)
        with pytest.raises(TypeError):
            p.kernels[3].coeffs[(1, 1, 1)] = float("nan")
        later = jet_mul(constant_jet(2, 4, 1.0), linear_jet(2, 4, [3.0, 4.0]))
        assert all(np.isfinite(list(t.coeffs.values())).all() for t in later.kernels)
        # a tensor that is not the shared zero is read-only too
        with pytest.raises(TypeError):
            p.kernels[1].coeffs[(1,)] = 5.0

    def test_zero_kernels_of_built_jets_are_the_shared_zero(self):
        with pytest.raises(TypeError):
            constant_jet(2, 3, 1.0).kernels[2].coeffs[(1, 1)] = 1.0
        assert constant_jet(2, 3, 1.0).kernels[3] is zero_tensor(2, 3)
        assert linear_jet(2, 3, [1.0, 2.0]).kernels[2] is zero_tensor(2, 2)


class TestFromEntries:
    def test_entries_fill_their_kernels_and_the_rest_is_zero(self):
        jet = jet_from_entries(2, 3, {(): 0.5, (1, 2): -2.0, (2, 2, 2): 3.0})
        assert bits(jet) == [
            [0.5.hex()],
            ["0x0.0p+0"] * 2,
            ["0x0.0p+0", (-2.0).hex(), "0x0.0p+0"],
            ["0x0.0p+0"] * 3 + [3.0.hex()],
        ]

    def test_entry_above_the_degree_is_left_out(self):
        jet = jet_from_entries(2, 2, {(1,): 1.0, (1, 1, 1): 7.0})
        assert bits(jet) == bits(linear_jet(2, 2, [1.0, 0.0]))

    @pytest.mark.parametrize("idx", [(2, 1), (3,)])
    def test_bad_index_rejected(self, idx):
        with pytest.raises(ValueError):
            jet_from_entries(2, 3, {idx: 1.0})


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
        assert (2, 1) not in ck.rows
        rng = np.random.default_rng(6)
        p = values(random_tensor(rng, 2, 3))
        out = ck.contract_out(3, 3, p) / factorial(3)
        assert np.abs(out - p).max() < 1e-12

    def test_log1p_a32_composition_sum(self):
        # two output slots at degree three: sum over (1,2) and (2,1) splits
        ck = comp_kernels(log1p_vjet(1, 4))
        a32 = row_tables(ck)[(3, 2)][(1, 1)][(1, 1, 1)]
        assert a32 == pytest.approx(-6.0)

    def test_expm1_b32_composition_sum(self):
        ck = comp_kernels(expm1_vjet(1, 4))
        b32 = row_tables(ck)[(3, 2)][(1, 1)][(1, 1, 1)]
        assert b32 == pytest.approx(6.0)

    def test_power_kernels_match_pointwise_powers(self):
        # the truncated expansion of the m-th power agrees with the direct
        # power of the evaluated jet up to the truncation tail; small theta
        # pushes the tail below the target accuracy
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            a = random_vjet(rng, d, N)
            tables = row_tables(comp_kernels(a))
            theta = 0.02 * rng.standard_normal(d)
            av = a.eval_batch([theta])[0]
            for m in (1, 2, 3):
                for u in multi_indices(d, m):
                    direct = 1.0
                    for j in u:
                        direct *= av[j - 1]
                    series = sum(
                        pairing(tables[(n, m)][u], power_tensor(theta, n)) / factorial(n)
                        for n in range(m, N + 1)
                    )
                    assert series == pytest.approx(direct, rel=1e-10, abs=1e-14)

    def test_compose_builds_one_plan_per_instance(self, monkeypatch):
        # compose_stack, contract_in and contract_out all read one plan
        d, deg = 3, 8
        ck = comp_kernels(identity_vjet(d, deg))
        assert sorted(ck.rows) == [(n, n) for n in range(1, deg + 1)]
        rng = np.random.default_rng(12)
        x = stack_of([random_tensor(rng, d, n) for n in range(deg + 1)])
        starts = stack_starts(d, deg)
        plans = count_calls(monkeypatch, appellsys.jets._flat_plan)
        built = count_tensors(monkeypatch)
        got = ck.compose_stack(x)
        low = ck.compose_stack(x[: starts[4]], 3)
        back = ck.contract_in(x)
        out = ck.contract_out(deg, deg, x[starts[deg] :])
        assert plans == [(ck,)] and built == []
        # identity power kernels: grade n of M x is kernel n, and so is
        # grade n of M^T x, as (1/n!) n! over the pairing's multiplicities
        assert np.abs(got - x).max() < 1e-12 and np.abs(low - x[starts[3] : starts[4]]).max() < 1e-12
        assert np.abs(back - x).max() < 1e-12
        assert hex_list(out / factorial(deg)) == hex_list(got[starts[deg] :])
        # another instance builds its own
        other = comp_kernels(identity_vjet(d, deg))
        assert hex_list(other.contract_in(x)) == hex_list(back)
        assert plans == [(ck,), (other,)]

    def test_compose_skips_the_block_of_a_dead_kernel(self, monkeypatch):
        # jet_invert composes grade n from a stack that ends before kernel n:
        # the terms of the (n, n) block, the largest, are left out, and the
        # bits are those of the literal sum over the kernels held
        d, deg = 3, 5
        ck = comp_kernels(random_vjet(np.random.default_rng(21), d, deg))
        assert [len(ck.rows[(deg, m)][0]) for m in range(1, deg + 1)] == [3, 6, 10, 15, 21]
        rng = np.random.default_rng(22)
        ks = [random_tensor(rng, d, n) for n in range(deg + 1)]
        x, starts = stack_of(ks), stack_starts(d, deg)
        sums = count_calls(monkeypatch, appellsys.jets._term_sums)
        got = ck.compose_stack(x[: starts[deg]], deg)
        assert hex_list(got) == hexes(literal_compose(ck, deg, ks[:deg]))
        assert hex_list(got) == hexes(literal_compose(ck, deg, ks[:deg] + [zero_tensor(d, deg)]))
        # grade deg's 55 rows come last in the plan, the (deg, deg) block's 21 last of all
        plan = ck._plan
        assert [args[2:4] for args in sums] == [(len(plan.at) - 55, len(plan.at) - 21)]
        # a stack that holds kernel deg brings its block back
        sums.clear()
        assert hex_list(ck.compose_stack(x, deg)) == hexes(literal_compose(ck, deg, ks))
        assert [args[2:4] for args in sums] == [(len(plan.at) - 55, len(plan.at))]
        # so does the stack of every grade; one that ends before kernel deg
        # leaves it out of the top grade only
        assert hex_list(ck.compose_stack(x[: starts[deg]])[starts[deg] :]) == hex_list(got)
        below = ck.compose_stack(x[: starts[deg]])[: starts[deg]]
        assert hex_list(below) == hex_list(ck.compose_stack(x)[: starts[deg]])

    def test_vanishing_below_diagonal(self):
        ck = comp_kernels(random_vjet(np.random.default_rng(8), 2, 4))
        assert (1, 2) not in ck.rows
        assert (3, 4) not in ck.rows

    def test_coefficient_of_another_dim_rejected(self):
        # a stack or a row of another dim's widths, or that cuts a kernel, is rejected
        ck = comp_kernels(random_vjet(np.random.default_rng(13), 2, 4))
        rng = np.random.default_rng(14)
        for dim in (1, 3):
            width = len(multi_indices(dim, 2))
            with pytest.raises(ValueError, match=f"rows of width {width} are not rank-2 tensors of dim 2"):
                ck.contract_out(3, 2, values(random_tensor(rng, dim, 2)))
            x = stack_of([random_tensor(rng, dim, n) for n in range(5)])
            with pytest.raises(ValueError, match=re.escape(f"stack width {len(x)} is not one of [10, 15]")):
                ck.compose_stack(x)
        x = stack_of([random_tensor(rng, 2, n) for n in range(5)])
        for cut in (x[:2], x[:5], x[:9], x[:14], np.concatenate([x, [1.0]])):
            with pytest.raises(ValueError, match=f"stack width {len(cut)} is not one of"):
                ck.compose_stack(cut, 4 if len(cut) < 14 else None)
        # grade 3 may leave out kernel 3, not kernel 2; the stack of every
        # grade may leave out kernel 4
        ck.compose_stack(x[:6], 3)
        with pytest.raises(ValueError, match=re.escape("stack width 3 is not one of [6, 10, 15]")):
            ck.compose_stack(x[:3], 3)
        assert hex_list(ck.compose_stack(x[:10])[:10]) == hex_list(ck.compose_stack(x)[:10])

    def test_contract_in_rejects_a_wrong_shape(self):
        ck = comp_kernels(random_vjet(np.random.default_rng(23), 2, 4))
        rng = np.random.default_rng(24)
        x = stack_of([random_tensor(rng, 2, n) for n in range(5)])
        other_dim = stack_of([random_tensor(rng, 3, n) for n in range(5)])
        for bad in (x[:10], np.concatenate([x, [1.0]]), other_dim, np.stack([x, x])):
            message = f"contract_in takes one stack of width 15, got shape {bad.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                ck.contract_in(bad)
        assert ck.contract_in(x).shape == x.shape

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 6),
           kind=st.sampled_from(("identity", "log1p", "random")),
           scale=st.sampled_from((1.0, 1.0, 0.0, 1e300, 1e-320)))
    def test_contract_in_matches_literal_pairing(self, data, d, deg, kind, scale):
        # phi has +0.0 and -0.0 holes, dead kernels or is all zeros; absent
        # tables read as zero; a scale of 1e300 makes pairings and grade sums
        # overflow, and the error is the first of the per-table loop
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alpha = {"identity": identity_vjet, "log1p": log1p_vjet}.get(kind, lambda d, deg: random_vjet(rng, d, deg))
        ck = comp_kernels(alpha(d, deg))
        phis = [t.scale(scale) if scale != 1e300 or rng.random() < 0.5 else t for t in data.draw(kernel_seqs(d, deg))]
        try:
            want = [hexes(t) for t in literal_contract_in(ck, phis)]
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                ck.contract_in(stack_of(phis))
            assert str(got.value) == str(err)
            return
        got = ck.contract_in(stack_of(phis))
        starts = stack_starts(d, deg)
        assert [hex_list(got[starts[n] : starts[n + 1]]) for n in range(deg + 1)] == want
        assert hex_list(ck.contract_in(stack_of(phis))) == hex_list(got)

    def test_contract_in_raises_at_the_first_pairing_in_table_order(self):
        # alpha = 4 log1p: table (2, 1) pairs phi_2 to -4e308 at (2,), and
        # table (3, 1) phi_3 to 8e308 at (1,); the per-table loop raised at
        # grade 1, table n = 2, not at the first entry of grade 1
        alpha = VectorJet(2, 3, tuple(c.scale(4.0) for c in log1p_vjet(2, 3).components))
        ck = comp_kernels(alpha)
        phis = [zero_tensor(2, n) for n in range(4)]
        phis[2] = SymTensor(2, 2, {(1, 1): 0.0, (1, 2): 0.0, (2, 2): 1e308})
        phis[3] = SymTensor(2, 3, {(1, 1, 1): 1e308, (1, 1, 2): 0.0, (1, 2, 2): 0.0, (2, 2, 2): 0.0})
        with pytest.raises(ValueError) as want:
            literal_contract_in(ck, phis)
        assert str(want.value) == "non-finite coefficient at index (2,): -inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                ck.contract_in(stack_of(phis))
        assert str(got.value) == str(want.value)

    def test_contract_in_of_zeros_and_of_an_overflow_beside_a_zero(self):
        # an all-zero stack gives +0.0 everywhere, -0.0 included; a pairing
        # term of a zero entry is skipped, so 24 * 1e307 overflowing beside
        # it leaves no nan
        ck = comp_kernels(random_vjet(np.random.default_rng(25), 2, 4))
        for zero in (0.0, -0.0):
            assert hex_list(ck.contract_in(np.full(15, zero))) == ["0x0.0p+0"] * 15
        # a_1 = s (theta_1 + ... + theta_4): row (1, 1, 1, 1) of table (4, 4)
        # is 24 s^4 = 2.4e307 in every column, and column (1, 2, 3, 4) has
        # multiplicity 24
        s = 1e306**0.25
        comps = [linear_jet(4, 4, [s] * 4)] + [linear_jet(4, 4, row) for row in np.eye(4)[1:]]
        ck = comp_kernels(VectorJet(4, 4, tuple(comps)))
        with np.errstate(over="ignore"):
            assert not np.isfinite(24 * ck.rows[(4, 4)][1][0]).all()
        phis = [zero_tensor(4, n) for n in range(5)]
        phis[4] = SymTensor(4, 4, {u: 1.0 if u == (1, 1, 1, 1) else 0.0 for u in multi_indices(4, 4)})
        x = stack_of(phis)
        assert np.isfinite(ck.contract_in(x)).all()
        assert hex_list(ck.contract_in(x)) == [h for t in literal_contract_in(ck, phis) for h in hexes(t)]


def graded_terms(f, g, grades, weight):
    """graded_product as the term route: one sym_product per pair of live
    kernels, summed by weighted_sum; a grade with no such pair is the
    shared zero tensor."""
    f_live, g_live = [is_live(k) for k in f], [is_live(k) for k in g]

    def terms(n):
        for k in range(n + 1):
            if f_live[k] and g_live[n - k]:
                yield weight(n, k), sym_product(f[k], g[n - k])

    return [weighted_sum(f[0].dim, n, terms(n)) for n in grades]


def product_tensors(f, g, grades, weight=comb):
    """graded_product of the kernel lists f and g, as tensors."""
    d = f[0].dim
    return _row_tensors(d, grades, graded_product(d, grades, _stack(f), _stack(g), weight))


def literal_product(f, g, grades, weight):
    """graded_product as a literal loop over every pair, dead kernels included."""
    out = []
    for n in grades:
        acc = zero_tensor(f[0].dim, n)
        for k in range(n + 1):
            acc = acc + sym_product(f[k], g[n - k]).scale(weight(n, k))
        out.append(acc)
    return out


def literal_compose(ck, n, ks):
    """Grade n of compose_stack as a literal loop over every row of the
    tables (n, m) of the kernels ks holds: ks may end before kernel n."""
    if n == 0:
        return ks[0]
    acc, tables = zero_tensor(ck.dim, n), row_tables(ck)
    for m in range(1, min(n, len(ks) - 1) + 1):
        inner = zero_tensor(ck.dim, n)
        for u, tens in tables.get((n, m), {}).items():
            inner = inner + tens.scale(multiplicity(u) * ks[m][u])
        acc = acc + inner.scale(1.0 / factorial(m))
    return acc


def literal_contract_in(ck, phis):
    """contract_in as the per-table route before it: grade m is (1/m!)
    times the weighted_sum over n = m..N of the tensor of pairings of the
    rows of table (n, m) with phis[n], an absent row 0.0; grade 0 is
    phis[0] added to +0.0."""
    tables, d = row_tables(ck), ck.dim
    out = [weighted_sum(d, 0, [(1, phis[0])])]
    for m in range(1, ck.degree + 1):
        terms = []
        for n in range(m, ck.degree + 1):
            table = tables.get((n, m), {})
            pairs = {u: pairing(table[u], phis[n]) if u in table else 0.0 for u in multi_indices(d, m)}
            terms.append((1, SymTensor(d, m, pairs)))
        out.append(weighted_sum(d, m, terms).scale(1.0 / factorial(m)))
    return out


@st.composite
def kernel_seqs(draw, d, deg):
    """Kernels 0..deg, each random, random with entries of +0.0 and -0.0,
    all +0.0 or all -0.0; live kernels are drawn most often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = []
    for n in range(deg + 1):
        t = random_tensor(rng, d, n)
        kind = draw(st.sampled_from(("live", "live", "holes", "+0", "-0")))
        if kind == "holes":
            signs = rng.choice([1.0, 0.0, -0.0], size=len(t.coeffs))
            t = SymTensor(d, n, {k: s * v for (k, v), s in zip(t.coeffs.items(), signs)})
        ks.append({"+0": t.scale(0.0), "-0": t.scale(-0.0)}.get(kind, t))
    return ks


class TestPlans:
    """The cached plans against literal term-by-term sums, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(0, 7),
           weight=st.sampled_from((comb, lambda n, k: 1, lambda n, k: -1)))
    def test_graded_product_matches_literal_sum(self, data, d, deg, weight):
        # a weight of -1 turns a zero sum to -0.0, which the sums must not return
        f, g = data.draw(kernel_seqs(d, deg)), data.draw(kernel_seqs(d, deg))
        grades = data.draw(st.lists(st.integers(0, deg), min_size=1, unique=True))
        got = graded_product(d, grades, _stack(f), _stack(g), weight)
        want = literal_product(f, g, grades, weight)
        assert hex_list(got) == [h for t in want for h in hexes(t)]
        assert hex_list(got) == [h for t in graded_terms(f, g, grades, weight) for h in hexes(t)]
        # a dead grade is all +0.0, so its tensor is the shared zero, as is
        # that of a live grade whose sums are all +0.0
        for n, t, w in zip(grades, _row_tensors(d, grades, got), want):
            dead = not any(is_live(f[k]) and is_live(g[n - k]) for k in range(n + 1))
            assert not dead or hexes(t) == ["0x0.0p+0"] * len(t.coeffs)
            assert (t is zero_tensor(d, n)) == (not is_live(w))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 5),
           kind=st.sampled_from(("identity", "log1p", "random")))
    def test_compose_matches_literal_sum(self, data, d, deg, kind):
        if kind == "identity":
            alpha = identity_vjet(d, deg)
        elif kind == "log1p":
            alpha = log1p_vjet(d, deg)
        else:
            alpha = random_vjet(np.random.default_rng(data.draw(st.integers(0, 99))), d, deg)
        ck = comp_kernels(alpha)
        ks = data.draw(kernel_seqs(d, deg))
        x, starts = stack_of(ks), stack_starts(d, deg)
        got = ck.compose_stack(x)
        for n in range(deg + 1):
            want = hexes(literal_compose(ck, n, ks))
            assert hex_list(got[starts[n] : starts[n + 1]]) == want
            assert hex_list(ck.compose_stack(x[: starts[n + 1]], n)) == want

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_graded_plan_indexes_like_product_plan(self, dim):
        # the plan's vectorised indices against sym_product's own plans
        for grades in ((0,), (0, 1, 2, 3, 4, 5), (5, 2), (4,)):
            plan = appellsys.jets._graded_plan(dim, grades)
            starts, width = _starts(dim, max(grades)), sum(plan.widths)
            want, col = [], 0
            for n in grades:
                for k in range(n + 1):
                    for i, row in enumerate(_product_plan(dim, k, n - k)):
                        for j, (p, w) in enumerate(row):
                            want.append((starts[k] + i, starts[n - k] + j, k * width + col + p, w))
                col += len(multi_indices(dim, n))
            got = zip(plan.f_at.tolist(), plan.g_at.tolist(), plan.cells.tolist(), plan.ways.tolist())
            assert list(got) == want

    def test_a_zero_sum_is_positive_zero(self):
        # every term of entry (1, 1) is -0.0; the literal sum from +0.0 is +0.0
        f = [scalar_tensor(2, 1.0), SymTensor(2, 1, {(1,): 1.0, (2,): 0.0}), zero_tensor(2, 2)]
        g = [scalar_tensor(2, 1.0), SymTensor(2, 1, {(1,): 0.0, (2,): 1.0}), zero_tensor(2, 2)]
        got = graded_product(2, [2], _stack(f), _stack(g), lambda n, k: -1)
        assert got[0].hex() == "0x0.0p+0"
        assert hex_list(got) == hexes(literal_product(f, g, [2], lambda n, k: -1)[0])
        ck = comp_kernels(identity_vjet(2, 2))
        ks = [scalar_tensor(2, 0.0), zero_tensor(2, 1), SymTensor(2, 2, {(1, 1): -0.0, (1, 2): -1.0, (2, 2): -1.0})]
        got = ck.compose_stack(stack_of(ks), 2)
        assert got[0].hex() == "0x0.0p+0"
        assert hex_list(got) == hexes(literal_compose(ck, 2, ks))

    def test_overflow_raises_as_the_term_route(self):
        big = SymTensor(2, 1, {(1,): 1e308, (2,): 1e308})
        one = [scalar_tensor(2, 1.0), big, zero_tensor(2, 2)]
        with pytest.raises(ValueError, match="non-finite coefficient") as err:
            graded_product(2, [2], _stack(one), _stack(one), comb)
        with pytest.raises(ValueError) as want:
            graded_terms(one, one, [2], comb)
        assert str(err.value) == str(want.value)
        # compose_stack leaves the check to its caller
        ck = comp_kernels(identity_vjet(2, 2))
        huge = SymTensor(2, 2, dict.fromkeys(multi_indices(2, 2), 1e308))
        ks = [scalar_tensor(2, 0.0), big, huge]
        assert not np.isfinite(ck.compose_stack(stack_of(ks), 2)).all()
        with pytest.raises(ValueError, match="non-finite coefficient"):
            literal_compose(ck, 2, ks)

    def test_zero_factor_beside_an_overflow_is_skipped(self):
        # ways * 1e308 overflows in the dead product f_1 g_1; the first sums
        # hold a nan there, and the sums again with its zero factors +0.0,
        # as the term route skips them, are finite
        big = SymTensor(2, 1, {(1,): 1e308, (2,): 1e308})
        dead = SymTensor(2, 1, {(1,): 0.0, (2,): -0.0})
        f = [scalar_tensor(2, 1.0), big, zero_tensor(2, 2)]
        g = [scalar_tensor(2, 1.0), dead, random_tensor(np.random.default_rng(4), 2, 2)]
        with np.errstate(over="ignore", invalid="ignore"):
            first = appellsys.jets.graded_rows(2, [0, 1, 2], stack_of(f), stack_of(g), comb)
        assert np.isnan(first).any()
        want = [h for t in graded_terms(f, g, [0, 1, 2], comb) for h in hexes(t)]
        got = graded_product(2, [0, 1, 2], _stack(f), _stack(g), comb)
        assert hex_list(got) == want
        assert np.isfinite(got).all()
        # jet_mul's product is born from these sums
        h = jet_mul(ScalarJet(2, 2, tuple(f)), ScalarJet(2, 2, tuple(g)))
        assert is_view_born(h)
        assert view_bits(h) == want
        assert bits(h) == [hexes(t) for t in graded_terms(f, g, [0, 1, 2], comb)]


WIDE = ((1.0, 1e10, 1e100, 1e154, 1e300, 1e308), ("live", "holes", "holes", "+0", "-0"))


@st.composite
def wide_kernel_seqs(draw, d, deg, scales=WIDE[0], kinds=WIDE[1]):
    """Kernels 0..deg, each live, live with +0.0 and -0.0 holes, all +0.0 or
    all -0.0, at one of the scales, by default from 1 up to 1e308: products
    overflow, often beside a zero factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = []
    for n in range(deg + 1):
        keys = multi_indices(d, n)
        v = rng.uniform(-1.5, 1.5, len(keys)) * draw(st.sampled_from(scales))
        kind = draw(st.sampled_from(kinds))
        if kind == "holes":
            v *= rng.choice([1.0, 0.0, -0.0], size=len(keys))
        elif kind != "live":
            v = np.full(len(keys), 0.0 if kind == "+0" else -0.0)
        ks.append(SymTensor(d, n, dict(zip(keys, v.tolist()))))
    return ks


@st.composite
def factor_pairs(draw, d, deg):
    """Two kernel sequences, both wide, or one of kernels near 1e308 beside
    one of dead kernels and kernels of scale 1 with holes, in either order:
    there ways * f[u] overflows beside many zero factors."""
    if draw(st.booleans()):
        return draw(wide_kernel_seqs(d, deg)), draw(wide_kernel_seqs(d, deg))
    big = draw(wide_kernel_seqs(d, deg, (1e308,), ("live", "holes", "+0")))
    sparse = draw(wide_kernel_seqs(d, deg, (1.0,), ("holes", "+0", "-0", "+0", "-0")))
    return (big, sparse) if draw(st.booleans()) else (sparse, big)


def outcome(route):
    """The hex form of the coefficients of the tensors route() returns, or
    the message of the ValueError it raises; a numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return [h for t in route() for h in hexes(t)]
        except ValueError as err:
            return str(err)


@lru_cache(maxsize=None)
def route_bases(d, deg):
    """A Gaussian and a Poisson basis of the shape, both with the identity alpha."""
    return AppellBasis(GaussianModel.standard(d), degree=deg), AppellBasis(PoissonModel((1.5,) * d), degree=deg)


class TestOneRoute:
    """Every graded product over stacks against the term route: one
    sym_product per pair of live kernels, summed by weighted_sum.  The bits
    are equal, and on an overflow so is the message."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(0, 6),
           weight=st.sampled_from((comb, lambda n, k: 1, lambda n, k: -1)))
    def test_graded_product_is_the_term_route(self, data, d, deg, weight):
        f, g = data.draw(factor_pairs(d, deg))
        grades = data.draw(st.lists(st.integers(0, deg), min_size=1, unique=True))
        want = outcome(lambda: graded_terms(f, g, grades, weight))
        got = outcome(lambda: _row_tensors(d, grades, graded_product(d, grades, _stack(f), _stack(g), weight)))
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 6))
    def test_jet_wick_and_transport_products_are_the_term_route(self, data, d, deg):
        f, g = data.draw(factor_pairs(d, deg))
        grades = range(deg + 1)
        jets = [ScalarJet(d, deg, tuple(ks)) for ks in (f, g)]
        want = outcome(lambda: graded_terms(f, g, grades, comb))
        if isinstance(want, str):
            assert outcome(lambda: jet_mul(*jets).kernels) == want
        else:
            # born from its view, which holds the term route's bits
            h = jet_mul(*jets)
            assert is_view_born(h)
            assert view_bits(h) == want
            assert bits(h) == [hexes(t) for t in graded_terms(f, g, grades, comb)]
        gauss, poisson = route_bases(d, deg)
        one = lambda n, k: 1
        Phi, Psi = q_seq(gauss, dict(enumerate(f))), q_seq(gauss, dict(enumerate(g)))
        want = outcome(lambda: graded_terms(f, g, grades, one))
        assert outcome(lambda: wick_mul(Phi, Psi).kernels) == want
        # the ratio kernels (1/n!) times those of l_mut(alpha) / l_mu(alpha)
        ratio = jet_mul(gauss.ualpha_jet, poisson.malpha_jet)
        ratio = [t.scale(1.0 / factorial(n)) for n, t in enumerate(ratio.kernels)]
        Phi_t = q_seq(poisson, dict(enumerate(f)))
        want = outcome(lambda: graded_terms(f, ratio, grades, one))
        assert outcome(lambda: transport_dist(poisson, gauss, Phi_t).kernels) == want


def term_route_wick_inv(Phi):
    """wick_inv as graded_solve forms it: one sym_product per live pair."""
    c0 = Phi.kernels[0].item()
    if c0 == 0.0:
        raise ValueError("Wick inverse needs a nonzero grade-0 kernel (expectation)")
    return graded_solve(Phi.kernels, scalar_tensor(Phi.dim, 1.0 / c0), -1.0 / c0, unit_weight)


class TestSolveView:
    """graded_solve_view, the route of wick_inv, against graded_solve and
    the dense reference loops: the bits are equal, and on an overflow so is
    the message."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 8), sign=st.sampled_from((1.0, -1.0)))
    def test_bits_of_sparse_signed_kernels(self, data, d, deg, sign):
        ks = data.draw(wide_kernel_seqs(d, deg, (1.0,), ("live", "holes", "+0", "-0")))
        c0 = sign * (0.5 + abs(ks[0].item()))
        ks[0] = scalar_tensor(d, c0)
        Phi = q_seq(route_bases(d, deg)[0], dict(enumerate(ks)))
        inv = wick_inv(Phi)
        assert is_view_born(inv)
        assert view_bits(inv) == [h for t in dense_wick_inv(Phi).kernels for h in hexes(t)]
        f = ScalarJet(d, deg, tuple(ks))
        recip = graded_solve_view(d, deg, f._view(), 1.0 / c0, -1.0 / c0, comb)
        assert hex_list(recip) == view_bits(jet_recip(f))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 6))
    def test_overflow_raises_as_the_term_route(self, data, d, deg):
        ks = data.draw(wide_kernel_seqs(d, deg))
        Phi = q_seq(route_bases(d, deg)[0], dict(enumerate(ks)))
        assert outcome(lambda: wick_inv(Phi).kernels) == outcome(lambda: term_route_wick_inv(Phi))

    def test_zero_factor_beside_an_overflow_is_skipped(self, monkeypatch):
        # grade 3 pairs f_2 = 1e308 at (1, 1) with h_1 = -0.0 at (1,): in the
        # bincount's term, ways * f = 3 * 1e308 is inf and inf * -0.0 is nan,
        # so graded_product forms the grade again without it
        Phi = q_seq(route_bases(2, 3)[0], {0: scalar_tensor(2, 1.0), 1: vector_tensor([0.0, 1.0]),
                                           2: SymTensor(2, 2, [1e308, 0.0, 0.0])})
        reruns = count_calls(monkeypatch, graded_product)
        inv = wick_inv(Phi)
        assert len(reruns) == 1 and np.isfinite(inv._view()).all()
        assert view_bits(inv) == [h for t in term_route_wick_inv(Phi) for h in hexes(t)]

    def test_a_dead_grade_is_post_times_zero(self):
        # with c0 < 0, post = -1/c0 > 0 and a grade with no live pair is all
        # +0.0, the shared zero; with c0 > 0 it is all -0.0, as in graded_solve
        basis = route_bases(2, 3)[0]
        for c0, zero in ((-2.0, "0x0.0p+0"), (2.0, "-0x0.0p+0")):
            Phi = q_seq(basis, {0: scalar_tensor(2, c0)})
            inv, want = wick_inv(Phi), [hexes(t) for t in term_route_wick_inv(Phi)]
            assert bits(inv) == want and want[1] == [zero, zero]
            assert all((t is zero_tensor(2, n)) == (c0 < 0) for n, t in enumerate(inv.kernels) if n)

    def test_wick_inv_takes_no_term_route(self, monkeypatch):
        basis = route_bases(3, 6)[0]
        rng = np.random.default_rng(34)
        Phi = q_seq(basis, {n: random_tensor(rng, 3, n) for n in range(7)})
        Psi = q_seq(basis, {n: random_tensor(rng, 3, n) for n in range(7)})
        calls = [count_calls(monkeypatch, fn) for fn in (graded_solve, sym_product, weighted_sum)]
        wick_solve(Phi, Psi)
        assert calls == [[], [], []]
        # graded_solve is left to the build's jet_exp and jet_recip
        callers = {
            fn.name
            for path in Path(appellsys.jets.__file__).parent.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "graded_solve"
        }
        assert callers == {"jet_exp", "jet_recip"}


def linear_route(inv, deg):
    """The pull-back kernels as comp_kernels formed them from products: by
    graded_product of every prefix with the linear jet of each row."""
    d = len(inv)
    return plain_power_kernels(VectorJet(d, deg, tuple(linear_jet(d, deg, row) for row in inv)))


def row_tables(ck):
    """The rows of ck as {(n, m): {u: rank-n SymTensor}}, in order."""
    return {
        (n, m): {u: SymTensor(ck.dim, n, dict(zip(multi_indices(ck.dim, n), r))) for u, r in zip(us, R.tolist())}
        for (n, m), (us, R) in ck.rows.items()
    }


def table_bits(ck):
    """Every table in order, each row in order with the hex form of its entries."""
    return [(key, [(u, hexes(t)) for u, t in table.items()]) for key, table in row_tables(ck).items()]


@st.composite
def pullback_matrices(draw):
    """Identity, signed diagonal, sparse random or the inverse of one, with
    -0.0 holes and row scalings that underflow, so that rows die."""
    d, deg = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "signed diagonal", "random", "inverse"]))
    if kind == "identity":
        mat = np.eye(d)
    elif kind == "signed diagonal":
        mat = np.diag(rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0, d))
    else:
        mat = rng.standard_normal((d, d))
        mat[rng.random((d, d)) < 0.3] = 0.0
        if kind == "inverse":
            mat = np.linalg.inv(mat + d * np.eye(d))
    mat[(mat == 0) & (rng.random((d, d)) < 0.5)] = -0.0
    scales = draw(st.lists(st.sampled_from([1.0, -3.0, 1e-30, 1e-100, 1e-160]), min_size=d, max_size=d))
    return mat * np.array(scales)[:, None], deg


class TestLinearPowerKernels:
    """jet_invert's pull-back kernels, built layer by layer from L^-1."""

    @settings(max_examples=60, deadline=None)
    @given(case=pullback_matrices())
    def test_matches_linear_route(self, case):
        inv, deg = case
        assert table_bits(_linear_power_kernels(inv, deg)) == table_bits(linear_route(inv, deg))

    def test_matches_linear_route_at_8_4(self):
        inv = np.random.default_rng(16).standard_normal((8, 8))
        assert table_bits(_linear_power_kernels(inv, 4)) == table_bits(linear_route(inv, 4))

    def test_dead_row_drops_its_extensions(self):
        # 1e-200 squared underflows: row (2, 2) dies at rank 2
        inv = np.diag([1.0, 1e-200])
        ck = _linear_power_kernels(inv, 4)
        assert table_bits(ck) == table_bits(linear_route(inv, 4))
        assert ck.rows[(2, 2)][0] == ((1, 1), (1, 2))
        assert ck.rows[(4, 4)][0] == ((1, 1, 1, 1), (1, 1, 1, 2))

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflow_raises_as_before(self, d):
        # L^-1 = 1e30 I: rank 11 of the pull-back overflows, in jet_invert
        # as in the per-component loop
        a = VectorJet(d, 12, tuple(linear_jet(d, 12, 1e-30 * row) for row in np.eye(d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                jet_invert(a)
        assert str(err.value) == f"non-finite coefficient at index {(1,) * 11}: inf"
        with pytest.raises(ValueError) as want:
            literal_invert(a)
        assert str(want.value) == str(err.value)

    def test_inversion_builds_no_jet(self, monkeypatch):
        a = random_vjet(np.random.default_rng(17), 3, 5)
        ck = comp_kernels(a)
        builds = count_calls(monkeypatch, comp_kernels)
        products = count_calls(monkeypatch, jet_mul)
        jet_invert(a, ck)
        assert builds == [] and products == []
        # A at construction; B, of the inverse, on its first read alone
        basis = AppellBasis(GaussianModel.standard(3), a, degree=5)
        assert len(builds) == 1
        basis.B
        assert len(builds) == 2

    @pytest.mark.parametrize("kind", ["identity", "log1p", "random"])
    def test_inversion_builds_no_tensor(self, monkeypatch, kind):
        a = {"identity": identity_vjet, "log1p": log1p_vjet}.get(
            kind, lambda d, deg: random_vjet(np.random.default_rng(18), d, deg)
        )(3, 5)
        ck = comp_kernels(a)
        built = count_tensors(monkeypatch)
        g = jet_invert(a, ck)
        assert built == []
        assert all(is_view_born(c) for c in g.components)
        assert [c.constant() for c in g.components] == [0.0] * 3


@st.composite
def layer_inputs(draw):
    """Rows of a layer m-1, keyed by a subset of its multi-indices, and a
    d x d matrix, with entries of scale 1 or 1e308, small ones in the
    matrix, and +0.0 and -0.0 holes: ways * x overflows, often beside a
    zero entry of the matrix."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = multi_indices(d, m - 1)
    picked = sorted(draw(st.sets(st.integers(0, len(keys) - 1), min_size=1)))
    x = rng.uniform(-1.5, 1.5, (len(picked), len(keys))) * rng.choice([1.0, 1e308, 0.0, -0.0], (len(picked), len(keys)))
    mat = rng.uniform(-1.5, 1.5, (d, d)) * rng.choice([1.0, 1e-10, 0.0, -0.0], (d, d))
    return [keys[i] for i in picked], x, mat, m


def layer_by_products(us, x, mat, m):
    """_power_layer as jet_mul forms it: per row u' and j >= u'[-1], grade
    m of the product of the jet whose only live grade is row u' with the
    linear jet of mat[j-1]; the live rows, in hex, with their keys."""
    d = len(mat)
    keys, rows = [], []
    for u, row in zip(us, x):
        ks = [zero_tensor(d, n) for n in range(m + 1)]
        ks[m - 1] = SymTensor(d, m - 1, dict(zip(multi_indices(d, m - 1), row.tolist())))
        for j in range(u[-1], d + 1):
            grade = jet_mul(ScalarJet(d, m, tuple(ks)), linear_jet(d, m, mat[j - 1])).kernels[m]
            if is_live(grade):
                keys.append(u + (j,))
                rows.append(hexes(grade))
    return keys, rows


def layer_outcome(route):
    """The keys and hex rows route() gives, or the message of the
    ValueError it raises; a numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            keys, rows = route()
        except ValueError as err:
            return str(err)
    return list(keys), [hex_list(r) for r in rows] if isinstance(rows, np.ndarray) else rows


class TestDiagonalLayers:
    """comp_kernels forms a product only where a table above the diagonal
    can be live; every other table (m, m) comes from _power_layer over the
    linear part, as jet_mul gave it."""

    @settings(max_examples=150, deadline=None)
    @given(case=layer_inputs())
    def test_power_layer_is_the_products_diagonal(self, case):
        us, x, mat, m = case
        assert layer_outcome(lambda: _power_layer(us, x, mat, m)) == layer_outcome(
            lambda: layer_by_products(us, x, mat, m)
        )

    def test_product_is_checked_before_its_sum(self):
        # row (1, 1, 1): cell (1, 1, 1) is inf * 0, skipped as a zero factor;
        # cell (1, 1, 2) sums to the largest float, finite / 3 but inf once
        # times 3; cell (2, 2, 2) is 3 * 1e308, inf in the product too
        big = sys.float_info.max
        us, x, mat = [(1, 1)], np.array([[big, 0.0, 1e308]]), np.array([[0.0, 1.0], [1.0, 1.0]])
        want = "non-finite coefficient at index (2, 2, 2): inf"
        assert layer_outcome(lambda: _power_layer(us, x, mat, 3)) == want
        assert layer_outcome(lambda: layer_by_products(us, x, mat, 3)) == want

    @pytest.mark.parametrize(
        "mat, extras, index",
        [
            # table (3, 2) overflows at (1, 1, 2) in layer 2, before the top
            # diagonal (3, 3) overflows at (1, 1, 1)
            ([[1e110, 0.0], [0.0, 1.0]], [{(1, 2): 1e200}, {}], (1, 1, 2)),
            # the top layer alone: rows (1, 1, 3) and (1, 2, 2) overflow, and
            # (1, 1, 3) is first in multi_indices order, though its last
            # coordinate is the larger
            (np.diag([1e100, 1e105, 1e110]), [{(1, 1): 1.0}, {}, {}], (1, 1, 3)),
            (np.diag([1e100, 1e105, 1e110]), [{}, {}, {}], (1, 1, 3)),
        ],
        ids=["layer-2-first", "top-layer-order", "top-layer-order-linear"],
    )
    def test_overflow_message_is_the_product_route(self, mat, extras, index):
        d, deg = len(mat), 3
        comps = [linear_jet(d, deg, np.array(row)) + jet_from_entries(d, deg, e) for row, e in zip(mat, extras)]
        a = VectorJet(d, deg, tuple(comps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                comp_kernels(a)
        assert str(err.value) == f"non-finite coefficient at index {index}: inf"
        with pytest.raises(ValueError) as want:
            plain_power_kernels(a)
        assert str(want.value) == str(err.value)

    @pytest.mark.parametrize("d, deg", [(1, 6), (2, 5), (3, 4), (5, 3), (2, 2), (3, 1)])
    def test_products_only_below_the_top_layer(self, monkeypatch, d, deg):
        rng = np.random.default_rng(21)
        linear = VectorJet(d, deg, tuple(linear_jet(d, deg, row) for row in rng.standard_normal((d, d))))
        products = count_calls(monkeypatch, jet_mul)
        for a in (identity_vjet(d, deg), linear):
            ck = comp_kernels(a)
            assert sorted(ck.rows) == [(n, n) for n in range(1, deg + 1)]
        assert products == []
        for a in (log1p_vjet(d, deg), random_vjet(rng, d, deg)):
            comp_kernels(a)
            assert len(products) == sum(comb(d + m - 1, m) for m in range(2, deg))
            products.clear()


def plain_tables(a):
    """The tables of comp_kernels through graded_product on plain kernel
    lists, with is_live per grade."""
    tables, prods = {}, {}
    for m in range(1, a.degree + 1):
        for u in multi_indices(a.dim, m):
            last = list(a.components[u[-1] - 1].kernels)
            ks = last if m == 1 else product_tensors(prods[u[:-1]], last, range(a.degree + 1))
            prods[u] = ks
            for n in range(m, a.degree + 1):
                if is_live(ks[n]):
                    tables.setdefault((n, m), {})[u] = ks[n]
    return tables


def stacked_table(table):
    """A {u: tensor} table as its keys and the tensors' coefficients as rows."""
    return tuple(table), np.array([list(t.coeffs.values()) for t in table.values()])


def plain_power_kernels(a):
    """comp_kernels from plain_tables, the rows of each table stacked."""
    return CompKernels(a.dim, a.degree, {key: stacked_table(t) for key, t in plain_tables(a).items()})


@st.composite
def chain_alphas(draw):
    """Identity, log1p, random or linear alphas with d <= 4 and N <= 8, each
    output coordinate scaled by 1, -3, 1e-30, 1e-100 or 1e-160, so that
    products underflow and grades die, and with +0.0 and -0.0 holes.  A
    linear alpha is a random one with every kernel of rank >= 2 all +-0.0."""
    d, deg = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "log1p", "random", "linear"]))
    a = {"identity": identity_vjet, "log1p": log1p_vjet}.get(kind, lambda d, deg: random_vjet(rng, d, deg))(d, deg)
    scales = draw(st.lists(st.sampled_from([1.0, -3.0, 1e-30, 1e-100, 1e-160]), min_size=d, max_size=d))
    holes = draw(st.booleans())
    comps = []
    for c, scale in zip(a.components, scales):
        ks = [c.kernels[0]]
        for t in c.kernels[1:]:
            v = np.array(list(t.coeffs.values())) * scale
            if kind == "linear" and t.rank >= 2:
                v = rng.choice([0.0, -0.0], len(v))
            if holes:
                v[rng.random(len(v)) < 0.4] = 0.0
                v[(v == 0) & (rng.random(len(v)) < 0.5)] = -0.0
            ks.append(SymTensor(d, t.rank, dict(zip(t.coeffs, v.tolist()))))
        comps.append(ScalarJet(d, deg, tuple(ks)))
    return VectorJet(d, deg, tuple(comps))


def view_bits(jet):
    """The hex form of a jet's stacked view."""
    return [v.hex() for v in jet._view().tolist()]


def assert_view_matches(jet):
    x = jet._view()
    assert view_bits(jet) == [h for t in jet.kernels for h in hexes(t)]
    assert _live(x, jet.dim, jet.degree) == [is_live(t) for t in jet.kernels]
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 1.0


def literal_contract_out(ck, n, m, coeff):
    """CompKernels.contract_out as a literal loop over the table rows of
    nonzero coefficient; with no such row, the shared zero."""
    acc = None
    for u, tens in row_tables(ck).get((n, m), {}).items():
        if coeff[u]:
            term = tens.scale(multiplicity(u) * coeff[u])
            acc = term + zero_tensor(ck.dim, n) if acc is None else acc + term
    return zero_tensor(ck.dim, n) if acc is None else acc


class TestStackedViews:
    """jet_mul reads the stacked views of its factors and seeds its
    product's; contract_out reads one block of the plan."""

    @settings(max_examples=60, deadline=None)
    @given(a=chain_alphas(), data=st.data())
    def test_jet_mul_chain_matches_plain_routes(self, a, data):
        # one chain as comp_kernels forms it: the last product times a component
        u = data.draw(st.lists(st.integers(1, a.dim), min_size=a.degree, max_size=a.degree))
        jet = a.components[u[0] - 1]
        plain = terms = list(jet.kernels)
        for j in u[1:]:
            comp = a.components[j - 1]
            jet = jet_mul(jet, comp)
            plain = product_tensors(plain, list(comp.kernels), range(a.degree + 1))
            terms = graded_terms(terms, list(comp.kernels), range(a.degree + 1), comb)
            assert bits(jet) == [hexes(t) for t in plain] == [hexes(t) for t in terms]
            assert_view_matches(jet)

    @settings(max_examples=25, deadline=None)
    @given(a=chain_alphas())
    def test_power_kernels_match_plain_route(self, a):
        assert table_bits(comp_kernels(a)) == table_bits(plain_power_kernels(a))

    def test_a_write_through_coeffs_raises(self):
        # a write would leave the cached views of f and its kernels stale
        f = linear_jet(2, 2, [1.0, 2.0])
        before = bits(jet_mul(f, f))
        with pytest.raises(TypeError):
            f.kernels[1].coeffs[(1,)] = 5.0
        assert bits(jet_mul(f, f)) == before
        assert_view_matches(f)

    def test_near_overflow_chain_raises_as_before(self):
        # (1e80)^4 overflows at the fourth factor, in grade 4 only
        a = linear_jet(2, 4, [1e80, -1e80])
        jet = a
        for _ in range(2):
            jet = jet_mul(jet, a)
            assert_view_matches(jet)
        with pytest.raises(ValueError) as err:
            jet_mul(jet, a)
        with pytest.raises(ValueError) as want:
            graded_terms(jet.kernels, a.kernels, range(5), comb)
        assert str(err.value) == str(want.value) == "non-finite coefficient at index (1, 1, 1, 1): inf"

    def test_nan_of_a_dead_grade_stays_out_of_the_view(self):
        # f_1 g_1 is dead, but 2 * 1e308 overflows, so the plan leaves a nan
        # in grade 2, which is the shared zero
        f = jet_1d([0.0, 1e308, 0.0])
        g = jet_1d([1.0, -0.0, 0.0])
        h = jet_mul(f, g)
        assert h.kernels[2] is zero_tensor(1, 2)
        assert_view_matches(h)
        assert bits(h) == bits(dense_mul(f, g))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), deg=st.integers(0, 8))
    def test_views_of_fresh_products_and_inverses(self, data, d, deg):
        f, g = (ScalarJet(d, deg, tuple(data.draw(kernel_seqs(d, deg)))) for _ in range(2))
        for jet in (f, g, jet_mul(f, g), jet_mul(jet_mul(f, g), g)):
            assert_view_matches(jet)
        if deg >= 1:
            a = random_vjet(np.random.default_rng(data.draw(st.integers(0, 99))), d, deg)
            for c in jet_invert(a).components:
                assert_view_matches(c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), deg=st.integers(1, 6),
           kind=st.sampled_from(("identity", "log1p", "random", "pull-back")))
    def test_contract_out_matches_literal_loop(self, data, d, deg, kind):
        # one tensor, then three rows at once with an all +0.0 and an all
        # -0.0 row, against the literal loop per tensor
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "pull-back":
            ck = _linear_power_kernels(np.linalg.inv(rng.standard_normal((d, d)) + d * np.eye(d)), deg)
        else:
            alpha = {"identity": identity_vjet, "log1p": log1p_vjet}.get(kind, lambda d, deg: random_vjet(rng, d, deg))
            ck = comp_kernels(alpha(d, deg))
        ks = data.draw(kernel_seqs(d, deg))
        for n in range(1, deg + 1):
            for m in range(1, deg + 1):
                want = hexes(literal_contract_out(ck, n, m, ks[m]))
                assert hex_list(ck.contract_out(n, m, values(ks[m]))) == want
                rows = np.stack([values(ks[m]), np.zeros(len(ks[m].coeffs)), np.full(len(ks[m].coeffs), -0.0)])
                got = ck.contract_out(n, m, rows)
                assert got.shape == (3, len(multi_indices(d, n)))
                assert hex_list(got) == want + ["0x0.0p+0"] * (2 * got.shape[1])

    def test_contract_out_of_zero_rows_is_positive_zero(self):
        ck = comp_kernels(random_vjet(np.random.default_rng(18), 2, 4))
        for zero in (0.0, -0.0):
            assert hex_list(ck.contract_out(4, 2, np.full(3, zero))) == ["0x0.0p+0"] * 5
        # an absent table gives +0.0
        assert (1, 2) not in ck.rows
        assert hex_list(ck.contract_out(1, 2, np.ones((2, 3)))) == ["0x0.0p+0"] * 4
        # a zero sum is +0.0: every term of entry (1, 1) is -0.0
        ck = comp_kernels(identity_vjet(2, 2))
        got = ck.contract_out(2, 2, [-0.0, -1.0, -1.0])
        assert got[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("seeded", [False, True])
    def test_contract_out_rejects_a_wrong_shape(self, seeded):
        if seeded:
            ck = _linear_power_kernels(np.array([[2.0, 1.0], [0.0, 1.0]]), 3)
        else:
            ck = comp_kernels(random_vjet(np.random.default_rng(19), 2, 3))
        rng = np.random.default_rng(20)
        ck.contract_out(3, 3, values(random_tensor(rng, 2, 3)))  # builds or reads the plan
        with pytest.raises(ValueError, match="rows of width 3 are not rank-3 tensors of dim 2"):
            ck.contract_out(3, 3, values(random_tensor(rng, 2, 2)))
        for dim in (1, 3):
            with pytest.raises(ValueError, match="are not rank-3 tensors of dim 2"):
                ck.contract_out(3, 3, rng.standard_normal((2, len(multi_indices(dim, 3)))))


def is_view_born(jet):
    """Whether the kernels slot of jet is still unset."""
    return "kernels" not in jet.__dict__


def hex_rows(x):
    return [[v.hex() for v in row] for row in x.tolist()]


def assert_read_only(*arrays):
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1.0


class TestViewBornJets:
    """jet_mul's products and comp_kernels' tables stay stacked arrays; a
    product's tensors are built on first read."""

    @settings(max_examples=60, deadline=None)
    @given(a=chain_alphas(), data=st.data())
    def test_kernels_built_from_the_view_match_the_term_route(self, a, data):
        u = data.draw(st.lists(st.integers(1, a.dim), min_size=2, max_size=a.degree + 1))
        jet = a.components[u[0] - 1]
        for j in u[1:]:
            comp = a.components[j - 1]
            terms = graded_terms(jet.kernels, comp.kernels, range(a.degree + 1), comb)
            prod = jet_mul(jet, comp)
            assert is_view_born(prod)
            assert_read_only(prod._view())
            ks = prod.kernels
            assert not is_view_born(prod) and prod.kernels is ks
            assert bits(prod) == [hexes(t) for t in terms]
            # a dead grade is the shared zero, a live one a tensor of its own
            assert [t is zero_tensor(a.dim, n) for n, t in enumerate(ks)] == [not is_live(t) for t in ks]
            assert_view_matches(prod)
            jet = prod

    @settings(max_examples=40, deadline=None)
    @given(a=chain_alphas())
    def test_tables_and_rows_match_plain_tables(self, a):
        ck, tables = comp_kernels(a), plain_tables(a)
        assert list(ck.rows) == list(tables)
        for key, (us, x) in ck.rows.items():
            want_us, want_x = stacked_table(tables[key])
            assert us == want_us and hex_rows(x) == hex_rows(want_x)
            assert_read_only(x)
        assert table_bits(ck) == [(key, [(u, hexes(t)) for u, t in table.items()]) for key, table in tables.items()]
        with pytest.raises(FrozenInstanceError):
            ck.rows = {}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(0, 6))
    def test_lazy_jet_compares_as_its_eager_twin(self, data, d, deg):
        f, g = (ScalarJet(d, deg, tuple(data.draw(kernel_seqs(d, deg)))) for _ in range(2))
        lazy, twin = jet_mul(f, g), jet_mul(f, g)
        eager = ScalarJet(d, deg, twin.kernels)
        assert is_view_born(lazy)
        assert lazy == eager and eager == lazy
        assert repr(jet_mul(f, g)) == repr(eager)
        for jet in (jet_mul(f, g), eager):
            for name, value in (("kernels", eager.kernels), ("dim", d), ("_stacked", None)):
                with pytest.raises(FrozenInstanceError):
                    setattr(jet, name, value)
            with pytest.raises(TypeError):
                hash(jet)
        with pytest.raises(AttributeError):
            jet_mul(f, g).coeffs
        assert_read_only(lazy._view(), eager._view())

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 5))
    def test_composites_and_s_transforms_are_born_from_their_views(self, data, d, deg):
        # each is the compose_stack row, as the tensors it used to be built
        # from; an eager jet holds its view from construction
        from appellsys.appell import s_transform

        f = ScalarJet(d, deg, tuple(data.draw(kernel_seqs(d, deg))))
        assert not is_view_born(f)
        assert_read_only(f._view())
        basis = AppellBasis(GaussianModel.standard(d), log1p_vjet(d, deg), degree=deg)
        Phi = q_seq(basis, dict(enumerate(f.kernels)))
        x = stack_of(f.kernels)
        routes = [
            (jet_compose_scalar(f, basis.alpha, basis.A), basis.A.compose_stack(x)),
            (s_transform(basis, Phi), basis.B.compose_stack(x * appellsys.jets._factorials(d, deg))),
        ]
        for jet, row in routes:
            assert is_view_born(jet)
            assert_read_only(jet._view())
            assert hex_list(jet._view()) == hex_list(row)
            assert bits(jet) == [hexes(t) for t in _row_tensors(d, range(deg + 1), row)]
            assert_view_matches(jet)

    def test_a_composite_that_overflows_raises_as_its_tensors_did(self):
        a = log1p_vjet(1, 3)
        f = jet_1d([0.0, 1e308, 1e308, 1e308])
        with pytest.raises(ValueError) as err:
            jet_compose_scalar(f, a)
        with pytest.raises(ValueError) as want:
            _row_tensors(1, range(4), comp_kernels(a).compose_stack(f._view()))
        assert str(err.value) == str(want.value)
        assert str(err.value).startswith("non-finite coefficient at index")


def literal_invert(a):
    """jet_invert as a loop over grades, then components, each grade of a
    component solved by literal_compose over kernels 0..n-1 and
    literal_contract_out through the pull-back kernels."""
    d, deg = a.dim, a.degree
    inv = np.linalg.inv(linear_part(a))
    ck, pull = comp_kernels(a), _linear_power_kernels(inv, deg)
    g = [[scalar_tensor(d, 0.0), vector_tensor(row)] for row in inv]
    for n in range(2, deg + 1):
        for ks in g:
            ks.append(literal_contract_out(pull, n, n, literal_compose(ck, n, ks)).scale(-1.0 / factorial(n)))
    return g


class TestInversion:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 6),
           kind=st.sampled_from(("identity", "log1p", "random")))
    def test_matches_the_per_component_loop(self, data, d, deg, kind):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        nonlinearity = data.draw(st.sampled_from((0.3, 0.9)))
        a = {"identity": identity_vjet, "log1p": log1p_vjet}.get(
            kind, lambda d, deg: random_vjet(rng, d, deg, nonlinearity)
        )(d, deg)
        # one composition and one pull-back per grade n >= 2, for all d components
        with pytest.MonkeyPatch.context() as mp:
            composes = count_method(mp, CompKernels, "compose_stack")
            contracts = count_method(mp, CompKernels, "contract_out")
            got = jet_invert(a)
        assert [len(composes), len(contracts)] == [deg - 1, deg - 1]
        assert [bits(c) for c in got.components] == [[hexes(t) for t in ks] for ks in literal_invert(a)]

    @pytest.mark.parametrize(
        "mat, extra_1, extra_2, deg",
        [
            ([[1.0, 0.0], [0.0, 1.0]], {}, {(2, 2): 1e10}, 5),
            ([[1.0, 0.0], [0.0, 1.0]], {(1, 2): 1e10}, {(2, 2): 1e10}, 5),
            ([[1.0, 0.0], [0.0, 1.0]], {(1, 1): 1e100}, {(1, 2): 1e10}, 5),
            ([[1.0, 1.0], [0.0, 1.0]], {}, {(1, 1): 1e200}, 3),
        ],
    )
    def test_overflow_message_is_the_per_component_loop(self, mat, extra_1, extra_2, deg):
        # L = 1e-30 mat plus a large quadratic term: grade 3 or 5 of g
        # overflows in the pull-back, in component 2 alone or in both, where
        # component 1 raises; in the last case the composition overflows,
        # and its pull-back through a non-diagonal L^-1 holds a nan first
        d = 2
        lin = [linear_jet(d, deg, 1e-30 * np.array(row)) for row in mat]
        a = VectorJet(d, deg, (lin[0] + jet_from_entries(d, deg, extra_1), lin[1] + jet_from_entries(d, deg, extra_2)))
        with pytest.raises(ValueError) as want:
            literal_invert(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                jet_invert(a)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite coefficient at index")

    def test_degree_zero_rejected(self):
        a = VectorJet(2, 0, (constant_jet(2, 0, 0.0),) * 2)
        assert comp_kernels(a).rows == {}
        with pytest.raises(ValueError, match="degree must be at least 1, got 0"):
            jet_invert(a)

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
        tables = row_tables(comp_kernels(a))
        for m in (1, 2):
            for u in multi_indices(d, m):
                ks = [zero_tensor(d, n) for n in range(N + 1)]
                ks[0] = scalar_tensor(d, 0.0)
                for n in range(m, N + 1):
                    ks[n] = tables[(n, m)][u]
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


def row_bytes(ck):
    """Every table of ck in order: its key, its keys u and its rows' bytes."""
    return [(key, us, x.tobytes()) for key, (us, x) in ck.rows.items()]


class TestLazyBasisParts:
    """AppellBasis builds B and alpha_is_identity on first read."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), deg=st.integers(1, 6),
           kind=st.sampled_from(("identity", "log1p", "random")))
    def test_b_is_comp_kernels_of_the_inverse(self, data, d, deg, kind):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = {"identity": identity_vjet, "log1p": log1p_vjet}.get(kind, lambda d, deg: random_vjet(rng, d, deg))(d, deg)
        with pytest.MonkeyPatch.context() as mp:
            builds = count_calls(mp, comp_kernels)
            basis = AppellBasis(GaussianModel.standard(d), a, degree=deg)
            assert len(builds) == 1
            b = basis.B
            assert len(builds) == 2
            assert basis.B is b and len(builds) == 2
        g = basis.g_alpha
        eager = VectorJet(d, deg, tuple(ScalarJet(d, deg, c.kernels) for c in g.components))
        assert row_bytes(b) == row_bytes(comp_kernels(g)) == row_bytes(comp_kernels(eager))

    @pytest.mark.parametrize(
        "make, want",
        [
            (identity_vjet, True),
            (lambda d, deg: VectorJet(d, deg, tuple(jet_from_entries(d, deg, {(j,): 1.0}) for j in (1, 2))), True),
            (lambda d, deg: VectorJet(d, deg, tuple(linear_jet(d, deg, row) for row in np.eye(d) * (1 + 2**-52))), False),
            (log1p_vjet, False),
            (lambda d, deg: random_vjet(np.random.default_rng(19), d, deg), False),
        ],
    )
    def test_alpha_is_identity_on_first_read(self, monkeypatch, make, want):
        a = make(2, 4)
        basis = AppellBasis(GaussianModel.standard(2), a, degree=4)
        made = count_calls(monkeypatch, identity_vjet)
        assert basis.alpha_is_identity is want
        assert want is (a == identity_vjet(2, 4))
        assert len(made) == 1
        assert basis.alpha_is_identity is want and len(made) == 1

    def test_overflow_of_b_raises_at_its_first_read(self):
        # L = 1e-10 and a_5 = 1e240: g_1 = 1e10 and g_5 = -1e300, both
        # finite, so the inversion holds; B(6, 2) = 6 g_1 g_5 overflows
        a = VectorJet(1, 6, (jet_from_entries(1, 6, {(1,): 1e-10, (1,) * 5: 1e240}),))
        message = f"non-finite coefficient at index {(1,) * 6}: -inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = jet_invert(a)
            assert g.components[0].kernels[5][(1,) * 5] == -1e300
            with pytest.raises(ValueError) as direct:
                comp_kernels(g)
            assert str(direct.value) == message
            basis = AppellBasis(GaussianModel.standard(1), a, degree=6)
            for _ in range(2):
                with pytest.raises(ValueError) as err:
                    basis.B
                assert str(err.value) == message
            mono = monomial_seq(1, 6, {1: vector_tensor([1.0])})
            with pytest.raises(ValueError, match=re.escape(message)):
                to_appell(basis, mono)
