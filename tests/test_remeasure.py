"""Measure transport: cross-measure expansions, reordering, pairing invariance."""

import gc
import weakref
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import appellsys.appell
import appellsys.remeasure
from appellsys.appell import (
    AppellBasis,
    BasisMismatchError,
    delta_z,
    eval_test,
    gen_appell_all,
    pair,
    p_seq,
    q_seq,
    to_appell,
    to_monomial,
    monomial_seq,
)
from appellsys.jets import _row_tensors, _stack, graded_product, identity_vjet, jet_mul, log1p_vjet, random_vjet
from appellsys.measures import DeltaModel, GaussianModel, PoissonModel
from appellsys.oracle import exact_expectation
from appellsys.remeasure import (
    change_alpha_dist,
    p_relation,
    reorder_test,
    transport_dist,
)
from appellsys.symtensor import (
    SymTensor,
    partial_pairing,
    random_tensor,
    scalar_tensor,
    sym_product,
    zero_tensor,
)

N = 5


def tensor_1d(rank, value):
    return SymTensor(1, rank, {(1,) * rank: float(value)})


def make_basis(kind, alpha_kind, dim=1, degree=N, alpha_seed=0):
    if kind == "gaussian":
        model = GaussianModel.standard(dim)
    elif kind == "poisson":
        model = PoissonModel(tuple(1.0 + 0.5 * i for i in range(dim)))
    else:
        model = DeltaModel(dim)
    if alpha_kind == "random":
        alpha = random_vjet(np.random.default_rng(alpha_seed), dim, degree)
    else:
        alpha = identity_vjet(dim, degree) if alpha_kind == "id" else log1p_vjet(dim, degree)
    return AppellBasis(model, alpha, degree=degree)


def random_pseq(rng, basis, max_grade=None):
    top = basis.degree if max_grade is None else max_grade
    return p_seq(
        basis, {n: random_tensor(rng, basis.dim, n) for n in range(top + 1)}
    )


def random_qseq(rng, basis):
    return q_seq(
        basis, {n: random_tensor(rng, basis.dim, n) for n in range(basis.degree + 1)}
    )


def trinomial_transport(basis_mut, basis_mu, Phi_t):
    """Literal transport: grade n is the sum over k + m + l = n of
    Phi_k sym u_m sym M_l / (m! l!), u the mu constants and M the mut
    moments, both reparametrized."""
    u, M = basis_mu.ualpha_jet.kernels, basis_mut.malpha_jet.kernels
    out = {}
    for n in range(basis_mu.degree + 1):
        acc = zero_tensor(basis_mu.dim, n)
        for k in range(n + 1):
            for m in range(n - k + 1):
                l = n - k - m
                term = sym_product(sym_product(Phi_t.kernels[k], u[m]), M[l])
                acc = acc + term.scale(1.0 / (factorial(m) * factorial(l)))
        out[n] = acc
    return out


def trinomial_reorder(basis_mu, basis_mut, phi):
    """Literal reordering: grade n is the sum over m, l of the trinomial
    (n+m+l)!/(n! m! l!) times phi_{n+m+l} contracted with u_m sym M_l."""
    u, M = basis_mu.ualpha_jet.kernels, basis_mut.malpha_jet.kernels
    N = basis_mu.degree
    out = {}
    for n in range(N + 1):
        acc = zero_tensor(basis_mu.dim, n)
        for m in range(N - n + 1):
            for l in range(N - n - m + 1):
                coeff = factorial(n + m + l) / (factorial(n) * factorial(m) * factorial(l))
                weight = sym_product(u[m], M[l])
                acc = acc + partial_pairing(phi.kernels[n + m + l], weight).scale(coeff)
        out[n] = acc
    return out


def assert_close_rel(got, ref, rel):
    scale = max(t.max_abs() for t in ref.values())
    for n, t in ref.items():
        assert (got.kernels[n] - t).max_abs() <= rel * scale


class TestPRelation:
    def test_same_measure_collapses(self):
        b = make_basis("gaussian", "id")
        report = p_relation(b, b, 3, [np.array([0.7])])
        assert report["max_discrepancy"] < 1e-10

    def test_gaussian_delta_hand_example(self):
        bg = make_basis("gaussian", "id")
        bd = make_basis("delta", "id")
        # expanding the quadratic with the point mass as the second measure:
        # x^2 - 1 = x^2 * 1 + constant(-1)
        report = p_relation(bg, bd, 2, [np.array([1.3]), np.array([-0.4])])
        assert report["max_discrepancy"] < 1e-12

    def test_poisson_vs_gaussian_log1p(self):
        bp = make_basis("poisson", "log1p")
        bg = make_basis("gaussian", "log1p")
        rng = np.random.default_rng(1)
        points = [rng.standard_normal(1) for _ in range(3)]
        for n in range(5):
            report = p_relation(bp, bg, n, points)
            assert report["max_discrepancy"] < 1e-10

    def test_2d_case(self):
        bp = make_basis("poisson", "log1p", dim=2)
        bg = make_basis("gaussian", "log1p", dim=2)
        rng = np.random.default_rng(2)
        report = p_relation(bp, bg, 4, [rng.standard_normal(2)])
        assert report["max_discrepancy"] < 1e-10

    def test_alpha_mismatch_rejected(self):
        b1 = make_basis("gaussian", "id")
        b2 = make_basis("poisson", "log1p")
        with pytest.raises(BasisMismatchError):
            p_relation(b1, b2, 2, [np.zeros(1)])

    @pytest.mark.parametrize(
        "n, message", [(5, "grade 5 exceeds truncation degree 4"), (-1, "grade -1 is negative")]
    )
    def test_grade_out_of_range_rejected(self, n, message):
        bp = make_basis("poisson", "log1p", degree=4)
        bg = make_basis("gaussian", "log1p", degree=4)
        with pytest.raises(ValueError) as err:
            p_relation(bp, bg, n, [np.array([0.5]), np.array([1.5])])
        assert str(err.value) == message

    def test_generator_points_counted(self):
        bp = make_basis("poisson", "log1p")
        bg = make_basis("gaussian", "log1p")
        report = p_relation(bp, bg, 3, (np.array([x]) for x in (0.5, 1.5, 2.5)))
        assert report["points"] == 3
        assert report["max_discrepancy"] < 1e-10

    def test_equals_the_point_loop(self):
        # the points go through one batch per basis; the report is that of
        # the loop over points, bit for bit
        def point_loop(mu, mut, n, points):
            ratio = jet_mul(mu.ualpha_jet, mut.malpha_jet)
            worst = 0.0
            for x in points:
                values = graded_product(mut.dim, [n], _stack(gen_appell_all(mut, x)), ratio._view(), comb)
                rhs = _row_tensors(mut.dim, [n], values)[0]
                worst = max(worst, (gen_appell_all(mu, x)[n] - rhs).max_abs())
            return {"n": n, "max_discrepancy": worst, "points": len(points)}

        rng = np.random.default_rng(1)
        cases = [
            (make_basis("gaussian", "id"), make_basis("delta", "id"), [np.array([1.3]), np.array([-0.4])]),
            (make_basis("poisson", "log1p"), make_basis("gaussian", "log1p"), [rng.standard_normal(1) for _ in range(3)]),
            (make_basis("poisson", "log1p", dim=2), make_basis("gaussian", "log1p", dim=2), list(rng.standard_normal((4, 2)))),
            (make_basis("poisson", "random", dim=2), make_basis("gaussian", "random", dim=2), list(rng.standard_normal((30, 2)))),
            (make_basis("poisson", "log1p"), make_basis("gaussian", "log1p"), []),
        ]
        for mu, mut, points in cases:
            for n in range(N + 1):
                got = p_relation(mu, mut, n, points)
                want = point_loop(mu, mut, n, points)
                assert got == want and got["max_discrepancy"].hex() == want["max_discrepancy"].hex()


class TestReorderTest:
    def test_degree_zero_unchanged(self):
        bg = make_basis("gaussian", "id")
        bp = make_basis("poisson", "id")
        phi = p_seq(bg, {0: scalar_tensor(1, 3.0)})
        out = reorder_test(bg, bp, phi)
        assert out.kernels[0].item() == pytest.approx(3.0)
        assert out.max_grade() == 0

    def test_gaussian_to_delta_recovers_monomials(self):
        # in the point-mass basis the kernels are plain monomial coefficients
        bg = make_basis("gaussian", "id")
        bd = make_basis("delta", "id")
        phi = p_seq(bg, {2: tensor_1d(2, 1.0)})  # the quadratic minus one
        out = reorder_test(bg, bd, phi)
        got = [out.kernels[n][(1,) * n] for n in range(N + 1)]
        assert got == pytest.approx([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-12)
        mono = to_monomial(bg, phi)
        got_mono = [mono.kernels[n][(1,) * n] for n in range(N + 1)]
        assert got == pytest.approx(got_mono, abs=1e-12)

    def test_pointwise_values_preserved(self):
        rng = np.random.default_rng(3)
        for alpha_kind in ("id", "log1p"):
            bp = make_basis("poisson", alpha_kind, dim=2)
            bg = make_basis("gaussian", alpha_kind, dim=2)
            phi = random_pseq(rng, bp, max_grade=4)
            out = reorder_test(bp, bg, phi)
            for _ in range(4):
                z = rng.standard_normal(2)
                assert eval_test(bg, out, z) == pytest.approx(
                    eval_test(bp, phi, z), rel=1e-10, abs=1e-10
                )

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        bp = make_basis("poisson", "log1p")
        bg = make_basis("gaussian", "log1p")
        phi = random_pseq(rng, bp, max_grade=3)
        back = reorder_test(bg, bp, reorder_test(bp, bg, phi))
        for n in range(N + 1):
            assert (back.kernels[n] - phi.kernels[n]).max_abs() < 1e-10

    def test_matches_trinomial_formula(self):
        rng = np.random.default_rng(13)
        for alpha_kind in ("id", "log1p", "random"):
            for src, dst in (("poisson", "gaussian"), ("gaussian", "delta"), ("delta", "poisson")):
                bsrc = make_basis(src, alpha_kind, dim=2)
                bdst = make_basis(dst, alpha_kind, dim=2)
                phi = random_pseq(rng, bsrc)
                ref = trinomial_reorder(bsrc, bdst, phi)
                assert_close_rel(reorder_test(bsrc, bdst, phi), ref, 1e-12)


class TestTransportDist:
    def test_matches_trinomial_formula(self):
        rng = np.random.default_rng(14)
        for alpha_kind in ("id", "log1p", "random"):
            for src, dst in (("poisson", "gaussian"), ("gaussian", "delta"), ("delta", "poisson")):
                bsrc = make_basis(src, alpha_kind, dim=2)
                bdst = make_basis(dst, alpha_kind, dim=2)
                Phi = random_qseq(rng, bsrc)
                ref = trinomial_transport(bsrc, bdst, Phi)
                assert_close_rel(transport_dist(bsrc, bdst, Phi), ref, 1e-12)

    def test_same_measure_identity(self):
        b = make_basis("poisson", "log1p")
        rng = np.random.default_rng(5)
        Phi = random_qseq(rng, b)
        out = transport_dist(b, b, Phi)
        for n in range(N + 1):
            assert (out.kernels[n] - Phi.kernels[n]).max_abs() < 1e-10

    def test_pairing_invariance_all_pairs(self):
        rng = np.random.default_rng(6)
        kinds = ["gaussian", "poisson"]
        for alpha_kind in ("id", "log1p"):
            for dim in (1, 2):
                bases = {k: make_basis(k, alpha_kind, dim=dim) for k in kinds}
                bases["delta"] = make_basis("delta", alpha_kind, dim=dim)
                for src in ("gaussian", "poisson", "delta"):
                    for dst in ("gaussian", "poisson"):
                        if src == dst:
                            continue
                        bsrc, bdst = bases[src], bases[dst]
                        Phi = random_qseq(rng, bsrc)
                        phi = random_pseq(rng, bdst)
                        lhs = pair(bdst, transport_dist(bsrc, bdst, Phi), phi)
                        rhs = pair(bsrc, Phi, reorder_test(bdst, bsrc, phi))
                        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_unit_distribution_gives_expectation(self):
        # the constant distribution in the source pairs as the source-measure
        # expectation after transport
        bg = make_basis("gaussian", "id")
        bp = make_basis("poisson", "id")
        rng = np.random.default_rng(7)
        unit = q_seq(bp, {0: scalar_tensor(1, 1.0)})
        moved = transport_dist(bp, bg, unit)
        phi = random_pseq(rng, bg, max_grade=4)
        lhs = pair(bg, moved, phi)
        mono = to_monomial(bg, phi)
        assert lhs == pytest.approx(exact_expectation(bp.model, mono), rel=1e-10)

    def test_double_transport_identity(self):
        rng = np.random.default_rng(8)
        bp = make_basis("poisson", "log1p", dim=2)
        bg = make_basis("gaussian", "log1p", dim=2)
        Phi = random_qseq(rng, bp)
        back = transport_dist(bg, bp, transport_dist(bp, bg, Phi))
        for n in range(N + 1):
            assert (back.kernels[n] - Phi.kernels[n]).max_abs() < 1e-10

    def test_delta_z_still_evaluates_after_transport(self):
        rng = np.random.default_rng(9)
        bp = make_basis("poisson", "id")
        bg = make_basis("gaussian", "id")
        z = np.array([0.6])
        dz = delta_z(bp, z)
        moved = transport_dist(bp, bg, dz)
        phi = random_pseq(rng, bg)
        assert pair(bg, moved, phi) == pytest.approx(
            eval_test(bg, phi, z), rel=1e-9, abs=1e-9
        )


class TestChangeAlpha:
    def test_measure_mismatch_rejected(self):
        bg = make_basis("gaussian", "id")
        bp = make_basis("poisson", "log1p")
        Phi = q_seq(bp, {0: scalar_tensor(1, 1.0)})
        with pytest.raises(BasisMismatchError):
            change_alpha_dist(bp, bg, Phi)

    def test_pairing_preserved_across_alpha(self):
        # distributions converted between reparametrizations pair equally
        # against the matching conversions of test functions
        rng = np.random.default_rng(10)
        for kind in ("gaussian", "poisson"):
            b_alpha = make_basis(kind, "log1p")
            b_id = make_basis(kind, "id")
            Phi = random_qseq(rng, b_alpha)
            phi_alpha = random_pseq(rng, b_alpha)
            phi_id = to_appell(b_id, to_monomial(b_alpha, phi_alpha))
            lhs = pair(b_alpha, Phi, phi_alpha)
            rhs = pair(b_id, change_alpha_dist(b_alpha, b_id, Phi), phi_id)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        b_alpha = make_basis("poisson", "log1p", dim=2)
        b_id = make_basis("poisson", "id", dim=2)
        Phi = random_qseq(rng, b_alpha)
        back = change_alpha_dist(b_id, b_alpha, change_alpha_dist(b_alpha, b_id, Phi))
        for n in range(N + 1):
            assert (back.kernels[n] - Phi.kernels[n]).max_abs() < 1e-9

    def test_delta_z_invariant_under_alpha_change(self):
        rng = np.random.default_rng(12)
        b_alpha = make_basis("gaussian", "log1p")
        b_id = make_basis("gaussian", "id")
        z = np.array([0.4])
        moved = change_alpha_dist(b_alpha, b_id, delta_z(b_alpha, z))
        phi = random_pseq(rng, b_id)
        assert pair(b_id, moved, phi) == pytest.approx(
            eval_test(b_id, phi, z), rel=1e-9, abs=1e-9
        )


class TestPairPlans:
    def test_each_pair_builds_its_ratio_and_plan_once(self, monkeypatch):
        ratios, plans = [], []
        mul, compile_plan = appellsys.remeasure.jet_mul, appellsys.remeasure._contract_plan
        monkeypatch.setattr(appellsys.remeasure, "jet_mul", lambda a, b: ratios.append((a, b)) or mul(a, b))
        monkeypatch.setattr(appellsys.remeasure, "_contract_plan", lambda ws: plans.append(ws) or compile_plan(ws))
        bp, bg = make_basis("poisson", "log1p", dim=2), make_basis("gaussian", "log1p", dim=2)
        rng = np.random.default_rng(21)
        for _ in range(3):
            reorder_test(bp, bg, random_pseq(rng, bp))
            transport_dist(bg, bp, random_qseq(rng, bg))
            p_relation(bp, bg, 3, [rng.standard_normal(2)])
        assert ratios == [(bp.ualpha_jet, bg.malpha_jet)]
        assert len(plans) == 1 and plans[0] is bp.pair_plans[bg].ratio.kernels
        # the reverse pair is a pair of its own
        reorder_test(bg, bp, random_pseq(rng, bg))
        assert len(ratios) == len(plans) == 2 and list(bg.pair_plans) == [bp]

    def test_finite_reorder_builds_only_its_output_tensors(self, monkeypatch):
        bp = make_basis("poisson", "random", dim=2, alpha_seed=3)
        bg = make_basis("gaussian", "random", dim=2, alpha_seed=3)
        phi = random_pseq(np.random.default_rng(22), bp)
        want = reorder_test(bp, bg, phi)  # compiles the plan before counting

        def refuse(*args):
            raise AssertionError("a compiled reorder_test called partial_pairing")

        monkeypatch.setattr(appellsys.appell, "partial_pairing", refuse)
        built, post_init = [], SymTensor.__post_init__

        def counted(self, dim, rank, coeffs):
            built.append(rank)
            post_init(self, dim, rank, coeffs)

        monkeypatch.setattr(SymTensor, "__post_init__", counted)
        assert reorder_test(bp, bg, phi) == want
        assert built == list(range(N + 1))

    def test_an_entry_keeps_neither_basis_alive(self):
        bp, partner = make_basis("poisson", "log1p"), make_basis("gaussian", "log1p")
        rng = np.random.default_rng(23)
        reorder_test(bp, partner, random_pseq(rng, bp))
        transport_dist(partner, bp, random_qseq(rng, partner))
        assert len(bp.pair_plans) == 1
        source, gone = weakref.ref(bp), weakref.ref(partner)
        del partner
        gc.collect()
        assert gone() is None and source() is bp and len(bp.pair_plans) == 0
        # nor the source: its entries die with it
        del bp
        gc.collect()
        assert source() is None


MEASURE_KINDS = ("gaussian", "poisson", "delta")
property_basis = lru_cache(maxsize=None)(make_basis)


class TestTransportProperties:
    @settings(max_examples=40)
    @given(
        dim=st.integers(1, 2),
        degree=st.integers(1, 5),
        alpha_kind=st.sampled_from(("id", "log1p", "random")),
        alpha_seed=st.integers(0, 2),
        pair_index=st.integers(0, 5),
        data_seed=st.integers(0, 2**16),
    )
    def test_pairing_invariance_and_double_transport(
        self, dim, degree, alpha_kind, alpha_seed, pair_index, data_seed
    ):
        src, dst = [(s, t) for s in MEASURE_KINDS for t in MEASURE_KINDS if s != t][pair_index]
        bsrc = property_basis(src, alpha_kind, dim, degree, alpha_seed)
        bdst = property_basis(dst, alpha_kind, dim, degree, alpha_seed)
        rng = np.random.default_rng(data_seed)
        Phi = random_qseq(rng, bsrc)
        phi = random_pseq(rng, bdst)
        lhs = pair(bdst, transport_dist(bsrc, bdst, Phi), phi)
        rhs = pair(bsrc, Phi, reorder_test(bdst, bsrc, phi))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        back = transport_dist(bdst, bsrc, transport_dist(bsrc, bdst, Phi))
        for n in range(degree + 1):
            assert (back.kernels[n] - Phi.kernels[n]).max_abs() < 1e-10
