"""Static checks of the package: every imported name is used, every
private function is referenced, every private constant is read, and the
public surface is the one listed here."""

import ast
import importlib
import re
from collections import Counter
from itertools import chain
from pathlib import Path
from types import ModuleType

import appellsys

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "appellsys"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(imported_names(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def private_definitions(tree):
    """The private top-level functions of a module and the private methods
    of its classes, dunders aside."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, ast.FunctionDef) and d.name.startswith("_") and not d.name.endswith("__"):
                yield d


def test_every_private_function_is_referenced():
    # a private helper that nothing else in src/ calls is a dead twin of a route
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = Counter(chain.from_iterable(referenced_names(t) for t in trees.values()))
    unreferenced = [
        f"{module}:{d.name}"
        for module, tree in trees.items()
        for d in private_definitions(tree)
        if refs[d.name] == Counter(referenced_names(d))[d.name]
    ]
    assert unreferenced == []


def private_constants(tree):
    """The names of a module's private module-level constants, _UPPER_CASE."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", t.id):
                yield t.id


def test_every_private_constant_is_read():
    # a tuning constant that outlives its reader is a dead knob
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_constants(tree)
        if name not in read
    ]
    assert unread == []


# The functions of src/ that may read a SymTensor's coeffs mapping; every
# other reader takes .values, so no hot path builds the lazy view.
COEFFS_READERS = {
    "symtensor.py:SymTensor.__repr__",
    # the --coeffs flag of `appellsys wick fn`, not a tensor
    "cli.py:cmd_wick",
}


def coeffs_reads(tree, scope=""):
    """The qualified names of the functions that read an attribute named
    coeffs, once per read."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from coeffs_reads(node, f"{scope}{node.name}.")
        else:
            if isinstance(node, ast.Attribute) and node.attr == "coeffs" and isinstance(node.ctx, ast.Load):
                yield scope.rstrip(".")
            yield from coeffs_reads(node, scope)


def test_only_the_allowed_functions_read_coeffs():
    found = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in coeffs_reads(ast.parse(path.read_text()))
    }
    assert found == COEFFS_READERS


# The public surface: each module's __all__ and the names the package itself
# exports.  A change to an export is made on purpose by editing this table.
SURFACE = {
    "symtensor": [
        "DimensionMismatchError", "HilbertScale", "RankMismatchError", "SymTensor",
        "basis_vector", "eval_power_batch", "is_live", "multi_indices", "multiplicity",
        "pairing", "partial_pairing", "power_tensor", "random_tensor", "scalar_tensor",
        "sym_product", "tensor_norm", "vector_tensor", "zero_tensor",
    ],
    "jets": [
        "CompKernels", "ScalarJet", "SingularJetError", "VectorJet", "comp_kernels",
        "constant_jet", "expm1_vjet", "identity_vjet", "jet_compose_scalar",
        "jet_compose_vector", "jet_exp", "jet_invert", "jet_log", "jet_mul", "jet_recip",
        "linear_jet", "log1p_vjet", "random_vjet", "unit_jet",
    ],
    "measures": [
        "DegreeOverflowError", "DeltaModel", "GaussianModel", "MeasureModel", "MomentFileModel",
        "PoissonModel", "UnsupportedModelError", "moment_kernels", "nondegeneracy_check",
        "sample_batch",
    ],
    "appell": [
        "AppellBasis", "BasisMismatchError", "KernelSeq", "MONOMIAL", "P_TAG", "Q_TAG",
        "appell_constants", "appell_eval", "convolution", "delta_appell_eval",
        "delta_z", "diff_op", "dist_norm", "estimate_sigma_eps", "eval_monomial_seq",
        "eval_test", "g_nabla_apply", "gen_appell_all", "gen_appell_batch", "generating_jet",
        "growth_bound_check",
        "monomial_seq", "p_seq", "pair", "q_kernel_make", "q_seq", "radon_nikodym", "s_inverse",
        "s_transform", "test_norm", "to_appell", "to_monomial",
    ],
    "wick": [
        "wick_fn", "wick_inv", "wick_mul", "wick_norm_check", "wick_pow", "wick_solve",
        "wick_unit",
    ],
    "remeasure": [
        "change_alpha_dist", "p_relation", "reorder_test", "transport_dist",
    ],
    "oracle": [
        "charlier", "exact_expectation", "exact_product_expectation", "hermite_h", "hermite_he",
        "hermite_he_coeffs", "mc_expectation", "pmf_sum", "poly_product", "quad_1d",
        "s_transform_of_polynomial",
    ],
    "fixtures": [
        "FixtureFormatError", "format_kernel_seq", "format_moment_model", "format_scalar_jet",
        "format_tensor", "format_vector_jet", "parse_kernel_seq", "parse_moment_model",
        "parse_scalar_jet", "parse_tensor", "parse_vector_jet",
    ],
    "suites": [
        "SuiteResult", "UnknownSuiteError", "list_suites", "run_suite",
    ],
    "cli": [
        "main",
    ],
    "appellsys": [
        "AppellBasis", "CompKernels", "DeltaModel", "GaussianModel", "HilbertScale",
        "KernelSeq", "MeasureModel", "MomentFileModel", "PoissonModel", "ScalarJet",
        "SymTensor", "VectorJet", "appell_constants", "appell_eval", "change_alpha_dist",
        "comp_kernels", "convolution", "delta_appell_eval", "delta_z", "diff_op", "dist_norm",
        "eval_power_batch", "eval_test", "exact_expectation", "exact_product_expectation",
        "g_nabla_apply", "gen_appell_all", "gen_appell_batch", "growth_bound_check", "identity_vjet",
        "jet_compose_scalar", "jet_compose_vector", "jet_exp", "jet_invert", "jet_log",
        "jet_mul", "jet_recip", "list_suites", "log1p_vjet", "mc_expectation", "moment_kernels",
        "monomial_seq", "nondegeneracy_check", "p_relation", "p_seq", "pair", "pairing",
        "partial_pairing", "q_kernel_make", "q_seq", "quad_1d", "radon_nikodym", "reorder_test",
        "run_suite", "s_transform", "sample_batch", "sym_product", "tensor_norm", "test_norm",
        "to_appell", "to_monomial", "transport_dist", "wick_fn", "wick_inv", "wick_mul",
        "wick_norm_check", "wick_pow", "wick_solve",
    ],
}


# The public methods of CompKernels, pinned for the same reason: a removal
# or a rename of one is a change of the public surface.
COMP_KERNELS_METHODS = ["compose_stack", "contract_in", "contract_out"]


def test_comp_kernels_methods_are_pinned():
    methods = [n for n, v in vars(appellsys.CompKernels).items() if callable(v) and not n.startswith("_")]
    assert sorted(methods) == COMP_KERNELS_METHODS


def test_public_surface_is_pinned():
    surface = {}
    for name in SURFACE:
        if name == "appellsys":
            module = appellsys
            exported = [
                n for n, v in vars(module).items()
                if not n.startswith("_") and not isinstance(v, ModuleType)
            ]
        else:
            module = importlib.import_module(f"appellsys.{name}")
            exported = module.__all__
        assert all(hasattr(module, n) for n in exported), name
        surface[name] = sorted(exported)
    assert surface == SURFACE
