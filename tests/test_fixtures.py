"""Round trips and error handling for the text fixture formats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from appellsys.jets import ScalarJet, VectorJet, log1p_vjet, random_vjet
from appellsys.measures import GaussianModel, MomentFileModel, moment_kernels
from appellsys.oracle import exact_expectation
from appellsys.symtensor import SymTensor, multi_indices, random_tensor, scalar_tensor, zero_tensor


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


TENSOR_22 = "symtensor\ndim 2\nrank 2\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (TENSOR_22 + "2,1 3.0\n", "line 4: multi-index must be weakly increasing, got '2,1'"),
        ("symtensor\ndim 2\nrank 1\n0 3.0\n", "line 4: multi-indices are 1-based, got '0'"),
        (TENSOR_22 + "0,1 3.0\n", "line 4: multi-indices are 1-based, got '0,1'"),
        (TENSOR_22 + "1,x 3.0\n", "line 4: bad multi-index '1,x'"),
        (TENSOR_22 + "1,,2 3.0\n", "line 4: bad multi-index '1,,2'"),
        ("symtensor\ndim 2\nrank 1\n3 1.0\n", "line 4: index out of range for dim 2"),
        (TENSOR_22 + "1,3 1.0\n", "line 4: index out of range for dim 2"),
        (TENSOR_22 + "1 1.0\n", "line 4: index rank 1 does not match section rank 2"),
        (TENSOR_22 + ". 1.0\n", "line 4: index rank 0 does not match section rank 2"),
        ("symtensor\ndim 2\nrank 0\n1 1.0\n", "line 4: index rank 1 does not match section rank 0"),
        (TENSOR_22 + "1,2 1.0 2.0\n", "line 4: expected '<index> <value>'"),
        (TENSOR_22 + "1,2\n", "line 4: expected '<index> <value>'"),
        (TENSOR_22 + "1,2 abc\n", "line 4: bad value 'abc'"),
        (TENSOR_22 + "01,2 abc\n", "line 4: bad value 'abc'"),
        (TENSOR_22 + "1,2 inf\n", "line 4: non-finite value 'inf'"),
        (TENSOR_22 + "1,2 -inf\n", "line 4: non-finite value '-inf'"),
        (TENSOR_22 + "1,2 nan\n", "line 4: non-finite value 'nan'"),
        (TENSOR_22 + "1,2 1e309\n", "line 4: non-finite value '1e309'"),
        (TENSOR_22 + "1,2 1.0\n1,2 2.0\n", "line 5: entry 1,2 given twice"),
        (TENSOR_22 + "1,2 1.0\n01,2 2.0\n", "line 5: entry 01,2 given twice"),
        (TENSOR_22 + "01,2 1.0\n1,2 2.0\n", "line 5: entry 1,2 given twice"),
        (TENSOR_22 + "1,2 1.0\n1,2 nan\n", "line 5: entry 1,2 given twice"),
        ("symtensor\ndim 1\nrank 0\n. 1.0\n. 2.0\n", "line 5: entry . given twice"),
        (
            "# a comment\nscalarjet\ndim 2\n\ndegree 2\nkernel 2\n1,1 1.0  # note\n\n2,2 x\n",
            "line 9: bad value 'x'",
        ),
        ("scalarjet\ndim 2\ndegree 2\nkernel 1\n2 1.0\nkernel 2\n2,2 1.0\n2,2 1.0\n", "line 8: entry 2,2 given twice"),
    ],
    ids=[
        "non-increasing", "zero-based", "zero-based-rank-2", "bad-part", "empty-part", "out-of-range",
        "out-of-range-rank-2", "wrong-rank", "dot-in-rank-2", "index-in-rank-0", "three-fields",
        "one-field", "bad-value", "bad-value-other-spelling", "inf", "minus-inf", "nan", "overflow",
        "duplicate", "duplicate-other-spelling", "duplicate-after-other-spelling",
        "duplicate-before-bad-value", "duplicate-dot", "line-numbers-count-comments", "duplicate-in-section",
    ],
)
def test_bad_entry_line_message(text, message):
    # every entry error names its line
    with pytest.raises(FixtureFormatError) as e:
        (parse_scalar_jet if "scalarjet" in text else parse_tensor)(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "dim, rank, spelled, canonical",
    [(2, 2, "01,2", "1,2"), (2, 2, "1,002", "1,2"), (12, 1, "1_0", "10"), (12, 2, "+3,1_1", "3,11")],
)
def test_other_spellings_of_an_index_read_as_the_canonical_one(dim, rank, spelled, canonical):
    head = f"symtensor\ndim {dim}\nrank {rank}\n"
    other = parse_tensor(f"{head}{spelled} 2.5\n")
    assert other == parse_tensor(f"{head}{canonical} 2.5\n")
    assert other.values.count(2.5) == 1


# -- round trips against a literal reference writer ----------------------------

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308]
entry_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tensors(draw, dim, rank):
    # about half the entries are signed zeros, the holes a writer leaves out
    n = len(multi_indices(dim, rank))
    holes = st.sampled_from([0.0, -0.0])
    return SymTensor(dim, rank, draw(st.lists(st.one_of(holes, entry_values), min_size=n, max_size=n)))


def reference_entries(t, written=True):
    """The entry lines of t, and the values a reader gets back: a zero entry
    of positive rank is not written and reads as +0.0, and so does every
    entry of a section that is not written."""
    keep = [written and (v != 0.0 or t.rank == 0) for v in t.values]
    lines = [
        f"{','.join(map(str, idx)) or '.'} {v!r}"
        for idx, v, k in zip(multi_indices(t.dim, t.rank), t.values, keep) if k
    ]
    return lines, [v if k else 0.0 for v, k in zip(t.values, keep)]


def reference_sections(kernels, header, section, first_always):
    lines, values = list(header), []
    for n, t in enumerate(kernels):
        written = (n == 0 and first_always) or any(v != 0.0 for v in t.values)
        entries, kept = reference_entries(t, written)
        if written:
            lines += [section(n)] + entries
        values.append(kept)
    return "\n".join(lines) + "\n", values


def hexes(rows):
    return [[float.hex(v) for v in row] for row in rows]


dims = st.integers(1, 3)


@settings(max_examples=80)
@given(data=st.data(), dim=dims, rank=st.integers(0, 6))
def test_tensor_round_trip_matches_the_reference_writer(data, dim, rank):
    t = data.draw(tensors(dim, rank))
    entries, kept = reference_entries(t)
    text = format_tensor(t)
    assert text == "\n".join(["symtensor", f"dim {dim}", f"rank {rank}"] + entries) + "\n"
    assert hexes([parse_tensor(text).values]) == hexes([kept])


@settings(max_examples=60)
@given(data=st.data(), dim=dims, degree=st.integers(0, 6))
def test_scalar_jet_round_trip_matches_the_reference_writer(data, dim, degree):
    ks = tuple(data.draw(tensors(dim, n)) for n in range(degree + 1))
    text, kept = reference_sections(
        ks, ["scalarjet", f"dim {dim}", f"degree {degree}"], lambda n: f"kernel {n}", True
    )
    assert format_scalar_jet(ScalarJet(dim, degree, ks)) == text
    assert hexes(k.values for k in parse_scalar_jet(text).kernels) == hexes(kept)


@settings(max_examples=40)
@given(data=st.data(), dim=dims, degree=st.integers(1, 6))
def test_vector_jet_round_trip_matches_the_reference_writer(data, dim, degree):
    comps = [
        (zero_tensor(dim, 0),) + tuple(data.draw(tensors(dim, n)) for n in range(1, degree + 1))
        for _ in range(dim)
    ]
    lines = ["vectorjet", f"dim {dim}", f"degree {degree}"]
    kept = {}
    for n in range(1, degree + 1):
        for j in range(1, dim + 1):
            t = comps[j - 1][n]
            written = any(v != 0.0 for v in t.values)
            entries, kept[n, j] = reference_entries(t, written)
            if written:
                lines += [f"kernel {n} component {j}"] + entries
    text = "\n".join(lines) + "\n"
    jet = VectorJet(dim, degree, tuple(ScalarJet(dim, degree, ks) for ks in comps))
    assert format_vector_jet(jet) == text
    back = parse_vector_jet(text)
    assert hexes(back.kernel(n, j).values for n, j in kept) == hexes(kept.values())


@settings(max_examples=60)
@given(data=st.data(), dim=dims, degree=st.integers(0, 6))
def test_kernel_seq_round_trip_matches_the_reference_writer(data, dim, degree):
    ks = {n: data.draw(tensors(dim, n)) for n in range(degree + 1)}
    text, kept = reference_sections(
        ks.values(), ["kernelseq", "tag monomial", f"dim {dim}", f"degree {degree}"], lambda n: f"grade {n}", False
    )
    assert format_kernel_seq(monomial_seq(dim, degree, ks)) == text
    assert hexes(k.values for k in parse_kernel_seq(text).kernels) == hexes(kept)
