"""Round trips and error handling for the text fixture formats."""

import numpy as np
import pytest

from appellsys.appell import AppellBasis, monomial_seq, p_seq, q_seq
from appellsys.fixtures import (
    FixtureFormatError,
    format_kernel_seq,
    format_moment_model,
    format_scalar_jet,
    format_tensor,
    format_vector_jet,
    parse_kernel_seq,
    parse_moment_model,
    parse_scalar_jet,
    parse_tensor,
    parse_vector_jet,
)
from appellsys.jets import ScalarJet, log1p_vjet, random_vjet
from appellsys.measures import GaussianModel, MomentFileModel, moment_kernels
from appellsys.oracle import exact_expectation
from appellsys.symtensor import SymTensor, random_tensor, scalar_tensor


class TestTensorFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, 3, 2)
        assert parse_tensor(format_tensor(t)).coeffs == t.coeffs

    def test_rank_zero(self):
        t = scalar_tensor(2, 4.5)
        text = format_tensor(t)
        assert ". 4.5" in text
        assert parse_tensor(text).item() == 4.5

    def test_missing_entries_default_zero(self):
        t = parse_tensor("symtensor\ndim 2\nrank 2\n1,2 3.0\n")
        assert t[(1, 2)] == 3.0
        assert t[(1, 1)] == 0.0

    def test_comments_and_blank_lines(self):
        text = "# header comment\nsymtensor\ndim 1\n\nrank 1\n1 2.0  # entry\n"
        assert parse_tensor(text)[(1,)] == 2.0

    def test_rejects_decreasing_index(self):
        with pytest.raises(FixtureFormatError):
            parse_tensor("symtensor\ndim 2\nrank 2\n2,1 3.0\n")

    def test_rejects_zero_based(self):
        with pytest.raises(FixtureFormatError):
            parse_tensor("symtensor\ndim 2\nrank 1\n0 3.0\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(FixtureFormatError):
            parse_tensor("symtensor\ndim 2\nrank 1\n3 1.0\n")

    def test_rejects_wrong_rank_entry(self):
        with pytest.raises(FixtureFormatError):
            parse_tensor("symtensor\ndim 2\nrank 2\n1 1.0\n")


class TestJetFormats:
    def test_scalar_round_trip(self):
        rng = np.random.default_rng(2)
        ks = [scalar_tensor(2, 1.5)] + [random_tensor(rng, 2, n) for n in range(1, 4)]
        jet = ScalarJet(2, 3, tuple(ks))
        back = parse_scalar_jet(format_scalar_jet(jet))
        for n in range(4):
            assert back.kernels[n].coeffs == jet.kernels[n].coeffs

    def test_vector_round_trip(self):
        rng = np.random.default_rng(3)
        jet = random_vjet(rng, 2, 4)
        back = parse_vector_jet(format_vector_jet(jet))
        for j in range(1, 3):
            for n in range(1, 5):
                assert (back.kernel(n, j) - jet.kernel(n, j)).max_abs() == 0.0

    def test_log1p_fixture_text(self):
        jet = log1p_vjet(1, 3)
        text = format_vector_jet(jet)
        assert "kernel 2 component 1" in text
        back = parse_vector_jet(text)
        assert back.kernel(2, 1)[(1, 1)] == -1.0


class TestKernelSeqFormat:
    def test_monomial_round_trip(self):
        rng = np.random.default_rng(4)
        f = monomial_seq(2, 3, {n: random_tensor(rng, 2, n) for n in range(4)})
        back = parse_kernel_seq(format_kernel_seq(f))
        assert back.tag == "monomial"
        for n in range(4):
            assert back.kernels[n].coeffs == f.kernels[n].coeffs

    def test_tagged_needs_basis(self):
        basis = AppellBasis(GaussianModel.standard(1), degree=3)
        f = q_seq(basis, {1: SymTensor(1, 1, {(1,): 2.0})})
        text = format_kernel_seq(f)
        with pytest.raises(FixtureFormatError):
            parse_kernel_seq(text)
        back = parse_kernel_seq(text, basis)
        assert back.tag == "Q"
        assert back.kernels[1][(1,)] == 2.0

    def test_shape_mismatch_rejected(self):
        basis = AppellBasis(GaussianModel.standard(1), degree=3)
        other = AppellBasis(GaussianModel.standard(1), degree=4)
        f = p_seq(basis, {0: scalar_tensor(1, 1.0)})
        with pytest.raises(FixtureFormatError):
            parse_kernel_seq(format_kernel_seq(f), other)


class TestMomentFormat:
    def test_round_trip_and_use(self):
        src = moment_kernels(GaussianModel.standard(1), 4)
        model = MomentFileModel("gauss-moments", 1, 4, tuple(src.kernels))
        back = parse_moment_model(format_moment_model(model))
        assert back.label == "gauss-moments"
        f = monomial_seq(1, 4, {4: SymTensor(1, 4, {(1, 1, 1, 1): 1.0})})
        assert exact_expectation(back, f) == 3.0

    def test_requires_unit_mass(self):
        with pytest.raises(FixtureFormatError):
            parse_moment_model("moments\nlabel x\ndim 1\ndegree 1\nkernel 0\n. 0.5\n")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_tensor, "symtensor\ndim one\nrank 1\n"),
        (parse_tensor, "symtensor\ndim 0\nrank 1\n"),
        (parse_tensor, "symtensor\ndim 1\nrank 1.5\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree x\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 2\nkernel x\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 2\nkernel -1\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 2\nkernel\n"),
        (parse_vector_jet, "vectorjet\ndim 1\ndegree 2\nkernel 1 component y\n1 1.0\n"),
        (parse_vector_jet, "vectorjet\ndim 1\ndegree 2\nkernel 1 component 2\n1 1.0\n"),
        (parse_kernel_seq, "kernelseq\ntag monomial\ndim 1\ndegree 2\ngrade two\n"),
        (parse_moment_model, "moments\nlabel m\ndim 1\ndegree 2\nkernel 0\n. 1.0\nkernel 2\n1,1 nan\n"),
        (parse_tensor, "symtensor\ndim 1\nrank 1\n1 inf\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 1\nkernel 1\n1 -inf\n"),
    ],
    ids=[
        "dim-word", "dim-zero", "rank-float", "degree-word", "kernel-word", "kernel-negative",
        "kernel-bare", "component-word", "component-beyond-dim", "grade-word", "entry-nan",
        "entry-inf", "entry-minus-inf",
    ],
)
def test_bad_numbers_raise_format_error(parse, text):
    with pytest.raises(FixtureFormatError):
        parse(text)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_vector_jet, "vectorjet\ndim 1\ndegree 2\nkernel 1\n1 1.0\n"),
        (parse_vector_jet, "vectorjet\ndim 1\ndegree 2\nkernel 0 component 1\n. 5.0\n"),
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 2\nkernel 1 component 1\n1 1.0\n"),
        (parse_moment_model, "moments\nlabel m\ndim 1\ndegree 2\nkernel 0\n. 1.0\nkernel 1 component 1\n1 0.5\n"),
        (parse_kernel_seq, "kernelseq\ntag monomial\ndim 1\ndegree 2\ngrade 1 component 1\n1 1.0\n"),
    ],
    ids=[
        "vectorjet-no-component", "vectorjet-kernel-0", "scalarjet-component", "moments-component",
        "kernelseq-component",
    ],
)
def test_section_of_the_wrong_form_raises_format_error(parse, text):
    # each kind's sections either all carry a component or none do, and a
    # vector jet has no kernel 0; such a section must not be dropped as if
    # it were absent
    with pytest.raises(FixtureFormatError):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_scalar_jet, "scalarjet\ndim 1\ndegree 2\nkernel 1\n1 1.0\nkernel 1\n1 3.0\n", 6),
        (
            parse_vector_jet,
            "vectorjet\ndim 1\ndegree 2\nkernel 1 component 1\n1 1.0\nkernel 1 component 1\n1 3.0\n",
            6,
        ),
        (parse_kernel_seq, "kernelseq\ntag monomial\ndim 1\ndegree 2\ngrade 2\n1,1 1.0\ngrade 2\n", 7),
        (parse_tensor, "symtensor\ndim 2\nrank 1\n1 1.0\n2 2.0\n1 3.0\n", 6),
    ],
    ids=["scalarjet-kernel", "vectorjet-kernel-component", "kernelseq-grade", "tensor-entry"],
)
def test_duplicate_section_or_entry_raises_format_error(parse, text, lineno):
    # a repeated section or entry is an error, not a silent overwrite
    with pytest.raises(FixtureFormatError, match=f"^line {lineno}: "):
        parse(text)
