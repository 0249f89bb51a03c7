"""Biorthogonal polynomial/distribution systems at finite dimension.

The package realizes, at dimension d and truncation degree N, the pair of
graded systems attached to a measure with analytic moment transform and an
invertible reparametrization jet: moment tensors, the polynomial side and
its value tensors, the distribution side with its scalar transform, Wick
calculus, shift and evaluation kernels, graded norms, and explicit
transport between measures, together with exact and statistical
verification suites for every identity.
"""

from .symtensor import (
    HilbertScale,
    SymTensor,
    eval_power_batch,
    pairing,
    partial_pairing,
    sym_product,
    tensor_norm,
)
from .jets import (
    CompKernels,
    ScalarJet,
    VectorJet,
    comp_kernels,
    identity_vjet,
    jet_compose_scalar,
    jet_compose_vector,
    jet_exp,
    jet_invert,
    jet_log,
    jet_mul,
    jet_recip,
    log1p_vjet,
)
from .measures import (
    DeltaModel,
    GaussianModel,
    MeasureModel,
    MomentFileModel,
    PoissonModel,
    moment_kernels,
    nondegeneracy_check,
    sample_batch,
)
from .appell import (
    AppellBasis,
    KernelSeq,
    appell_constants,
    appell_eval,
    convolution,
    delta_appell_eval,
    delta_z,
    diff_op,
    dist_norm,
    eval_test,
    gen_appell_all,
    gen_appell_batch,
    g_nabla_apply,
    growth_bound_check,
    monomial_seq,
    p_seq,
    pair,
    q_kernel_make,
    q_seq,
    radon_nikodym,
    s_transform,
    test_norm,
    to_appell,
    to_monomial,
)
from .wick import wick_fn, wick_inv, wick_mul, wick_norm_check, wick_pow, wick_solve
from .remeasure import change_alpha_dist, p_relation, reorder_test, transport_dist
from .oracle import (
    exact_expectation,
    exact_product_expectation,
    mc_expectation,
    quad_1d,
)
from .suites import list_suites, run_suite

__version__ = "0.1.0"
