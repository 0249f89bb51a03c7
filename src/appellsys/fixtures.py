"""Plain-text fixture formats for tensors, jets, kernel sequences, moments.

One line-based grammar covers everything: `key value` headers, section
markers (`kernel n`, `kernel n component j`, `grade n`), and entry lines
`i1,i2,... value` with 1-based weakly increasing multi-indices; the empty
index of a rank-0 tensor is written as `.`.  Missing entries are zero.
Writers emit entries in sorted order so files are byte-stable.
"""

from __future__ import annotations

from math import isfinite

from .appell import AppellBasis, KernelSeq, MONOMIAL, P_TAG, Q_TAG, monomial_seq, p_seq, q_seq
from .jets import ScalarJet, VectorJet
from .measures import MomentFileModel
from .symtensor import SymTensor, is_live, multi_indices, zero_tensor

__all__ = [
    "FixtureFormatError",
    "parse_tensor",
    "format_tensor",
    "parse_scalar_jet",
    "format_scalar_jet",
    "parse_vector_jet",
    "format_vector_jet",
    "parse_kernel_seq",
    "format_kernel_seq",
    "parse_moment_model",
    "format_moment_model",
]


class FixtureFormatError(ValueError):
    pass


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_index(token: str) -> tuple[int, ...]:
    if token == ".":
        return ()
    try:
        idx = tuple(int(p) for p in token.split(","))
    except ValueError as e:
        raise FixtureFormatError(f"bad multi-index {token!r}") from e
    if any(i < 1 for i in idx):
        raise FixtureFormatError(f"multi-indices are 1-based, got {token!r}")
    if list(idx) != sorted(idx):
        raise FixtureFormatError(f"multi-index must be weakly increasing, got {token!r}")
    return idx


def _parse_int(token: str, what: str, least: int) -> int:
    if not token.isdecimal() or int(token) < least:
        raise FixtureFormatError(f"{what} must be an integer of at least {least}, got {token!r}")
    return int(token)


def _format_index(idx: tuple[int, ...]) -> str:
    return "." if not idx else ",".join(str(i) for i in idx)


class _Reader:
    """Header/section/entry splitter shared by all fixture kinds."""

    def __init__(self, text: str):
        self.items = list(_lines(text))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise FixtureFormatError("unexpected end of fixture")
        self.pos += 1
        return item

    def expect_header(self, key: str) -> str:
        lineno, line = self.next()
        parts = line.split(None, 1)
        if parts[0] != key or len(parts) != 2:
            raise FixtureFormatError(f"line {lineno}: expected '{key} <value>', got {line!r}")
        return parts[1]

    def expect_shape(self, key: str) -> tuple[int, int]:
        """The integer `dim` header and the `key` (rank or degree) header after it."""
        return _parse_int(self.expect_header("dim"), "dim", 1), _parse_int(self.expect_header(key), key, 0)

    def expect_literal(self, word: str) -> None:
        lineno, line = self.next()
        if line != word:
            raise FixtureFormatError(f"line {lineno}: expected {word!r}, got {line!r}")

    def read_entries(self, dim: int, rank: int) -> SymTensor:
        coeffs = {k: 0.0 for k in multi_indices(dim, rank)}
        seen = set()
        while True:
            item = self.peek()
            if item is None:
                break
            lineno, line = item
            first = line.split(None, 1)[0]
            if first in ("kernel", "grade") or first.isalpha():
                break
            self.pos += 1
            parts = line.split()
            if len(parts) != 2:
                raise FixtureFormatError(f"line {lineno}: expected '<index> <value>'")
            idx = _parse_index(parts[0])
            if len(idx) != rank:
                raise FixtureFormatError(
                    f"line {lineno}: index rank {len(idx)} does not match section rank {rank}"
                )
            if any(i > dim for i in idx):
                raise FixtureFormatError(f"line {lineno}: index out of range for dim {dim}")
            if idx in seen:
                raise FixtureFormatError(f"line {lineno}: entry {parts[0]} given twice")
            seen.add(idx)
            try:
                coeffs[idx] = float(parts[1])
            except ValueError as e:
                raise FixtureFormatError(f"line {lineno}: bad value {parts[1]!r}") from e
            if not isfinite(coeffs[idx]):
                raise FixtureFormatError(f"line {lineno}: non-finite value {parts[1]!r}")
        return SymTensor(dim, rank, coeffs)


def _format_entries(t: SymTensor, out: list[str]) -> None:
    for idx, v in zip(multi_indices(t.dim, t.rank), t.values):
        if v != 0.0 or t.rank == 0:
            out.append(f"{_format_index(idx)} {v!r}")


# -- single tensor ----------------------------------------------------------


def parse_tensor(text: str) -> SymTensor:
    r = _Reader(text)
    r.expect_literal("symtensor")
    dim, rank = r.expect_shape("rank")
    return r.read_entries(dim, rank)


def format_tensor(t: SymTensor) -> str:
    out = ["symtensor", f"dim {t.dim}", f"rank {t.rank}"]
    _format_entries(t, out)
    return "\n".join(out) + "\n"


# -- jets --------------------------------------------------------------------


def _read_graded(r: _Reader, dim: int, degree: int, marker: str, component: bool):
    """The '<marker> n' sections by n, or with component=True the
    '<marker> n component j' sections by (n, j); any other form is an error."""
    form = [marker, "<n>"] + (["component", "<j>"] if component else [])
    kernels = {}
    while r.peek() is not None:
        lineno, line = r.next()
        parts = line.split()
        if len(parts) != len(form) or parts[0] != marker or parts[2:3] != form[2:3]:
            want = " ".join(form)
            raise FixtureFormatError(f"line {lineno}: expected a '{want}' section, got {line!r}")
        # a vector jet vanishes at zero, so its sections start at kernel 1
        n = _parse_int(parts[1], f"line {lineno}: {marker} number", 1 if component else 0)
        if n > degree:
            raise FixtureFormatError(f"line {lineno}: grade {n} beyond degree {degree}")
        key = n
        if component:
            j = _parse_int(parts[3], f"line {lineno}: component number", 1)
            if j > dim:
                raise FixtureFormatError(f"line {lineno}: component {j} beyond dim {dim}")
            key = (n, j)
        if key in kernels:
            raise FixtureFormatError(f"line {lineno}: section {line!r} given twice")
        kernels[key] = r.read_entries(dim, n)
    return kernels


def parse_scalar_jet(text: str) -> ScalarJet:
    r = _Reader(text)
    r.expect_literal("scalarjet")
    dim, degree = r.expect_shape("degree")
    sections = _read_graded(r, dim, degree, "kernel", False)
    return ScalarJet(dim, degree, tuple(sections.get(n, zero_tensor(dim, n)) for n in range(degree + 1)))


def format_scalar_jet(j: ScalarJet) -> str:
    out = ["scalarjet", f"dim {j.dim}", f"degree {j.degree}"]
    for n, k in enumerate(j.kernels):
        if is_live(k) or n == 0:
            out.append(f"kernel {n}")
            _format_entries(k, out)
    return "\n".join(out) + "\n"


def parse_vector_jet(text: str) -> VectorJet:
    r = _Reader(text)
    r.expect_literal("vectorjet")
    dim, degree = r.expect_shape("degree")
    sections = _read_graded(r, dim, degree, "kernel", True)
    comps = []
    for j in range(1, dim + 1):
        ks = [zero_tensor(dim, 0)]
        for n in range(1, degree + 1):
            ks.append(sections.get((n, j), zero_tensor(dim, n)))
        comps.append(ScalarJet(dim, degree, tuple(ks)))
    return VectorJet(dim, degree, tuple(comps))


def format_vector_jet(a: VectorJet) -> str:
    out = ["vectorjet", f"dim {a.dim}", f"degree {a.degree}"]
    for n in range(1, a.degree + 1):
        for j in range(1, a.dim + 1):
            k = a.kernel(n, j)
            if is_live(k):
                out.append(f"kernel {n} component {j}")
                _format_entries(k, out)
    return "\n".join(out) + "\n"


# -- kernel sequences ---------------------------------------------------------


def parse_kernel_seq(text: str, basis: AppellBasis | None = None) -> KernelSeq:
    r = _Reader(text)
    r.expect_literal("kernelseq")
    tag = r.expect_header("tag")
    if tag not in (MONOMIAL, P_TAG, Q_TAG):
        raise FixtureFormatError(f"unknown tag {tag!r}")
    dim, degree = r.expect_shape("degree")
    entries = _read_graded(r, dim, degree, "grade", False)
    if tag == MONOMIAL:
        return monomial_seq(dim, degree, entries)
    if basis is None:
        raise FixtureFormatError(f"{tag}-tagged fixtures need a basis to attach to")
    if basis.dim != dim or basis.degree != degree:
        raise FixtureFormatError("fixture shape does not match the basis")
    return p_seq(basis, entries) if tag == P_TAG else q_seq(basis, entries)


def format_kernel_seq(f: KernelSeq) -> str:
    out = ["kernelseq", f"tag {f.tag}", f"dim {f.dim}", f"degree {f.degree}"]
    for n, k in enumerate(f.kernels):
        if is_live(k):
            out.append(f"grade {n}")
            _format_entries(k, out)
    return "\n".join(out) + "\n"


# -- moment files -------------------------------------------------------------


def parse_moment_model(text: str) -> MomentFileModel:
    r = _Reader(text)
    r.expect_literal("moments")
    label = r.expect_header("label")
    dim, degree = r.expect_shape("degree")
    sections = _read_graded(r, dim, degree, "kernel", False)
    ks = [sections.get(n, zero_tensor(dim, n)) for n in range(degree + 1)]
    if ks[0].item() != 1.0:
        raise FixtureFormatError("moment fixtures must have unit mass (kernel 0 = 1)")
    return MomentFileModel(label, dim, degree, tuple(ks))


def format_moment_model(m: MomentFileModel) -> str:
    out = ["moments", f"label {m.label}", f"dim {m.d}", f"degree {m.max_degree}"]
    for n, k in enumerate(m.moments):
        if is_live(k) or n == 0:
            out.append(f"kernel {n}")
            _format_entries(k, out)
    return "\n".join(out) + "\n"
