"""Outside-in tracer for the appellsys layers.

The tracer wraps named functions and methods of the imported package from
the benchmark's side; the package itself is not edited.  A function is
replaced in every ``appellsys`` module that binds it (``sym_product`` is
bound in eight), and a method is replaced on its class.  Each wrapped call
records a span (name, start, end, parent) in flat arrays; the spans of one
op are reduced at the end of that op into per-layer calls, inclusive time
and self time (inclusive time minus the time covered by wrapped children),
so memory stays bounded while every span is kept until its op ends.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import comb
from time import perf_counter

import numpy as np

# (layer, module, attribute); several attributes may feed one layer.
TARGETS = [
    ("symtensor.SymTensor", "symtensor", "SymTensor.__post_init__"),
    ("symtensor.arith", "symtensor", "SymTensor.scale"),
    ("symtensor.arith", "symtensor", "SymTensor.__add__"),
    ("symtensor.arith", "symtensor", "SymTensor.__sub__"),
    ("symtensor.arith", "symtensor", "SymTensor.__neg__"),
    ("symtensor.sym_product", "symtensor", "sym_product"),
    ("symtensor.partial_pairing", "symtensor", "partial_pairing"),
    ("symtensor.pairing", "symtensor", "pairing"),
    ("symtensor.tensor_norm", "symtensor", "tensor_norm"),
    ("symtensor.eval_power_batch", "symtensor", "eval_power_batch"),
    ("jets.jet_invert", "jets", "jet_invert"),
    ("jets.comp_kernels", "jets", "comp_kernels"),
    ("jets.jet_compose_scalar", "jets", "jet_compose_scalar"),
    ("jets.jet_mul", "jets", "jet_mul"),
    ("jets.series", "jets", "jet_exp"),
    ("jets.series", "jets", "jet_log"),
    ("jets.series", "jets", "jet_recip"),
    ("jets.contract_out", "jets", "CompKernels.contract_out"),
    ("jets.contract_in", "jets", "CompKernels.contract_in"),
    ("appell.AppellBasis", "appell", "AppellBasis.__init__"),
    ("appell.gen_appell_all", "appell", "gen_appell_all"),
    ("appell.delta_z", "appell", "delta_z"),
    ("appell.eval_test", "appell", "eval_test"),
    ("appell.to_monomial", "appell", "to_monomial"),
    ("appell.to_appell", "appell", "to_appell"),
    ("appell.s_transform", "appell", "s_transform"),
    ("appell.s_inverse", "appell", "s_inverse"),
    ("appell.g_nabla_apply", "appell", "g_nabla_apply"),
    ("wick.wick_mul", "wick", "wick_mul"),
    ("wick.wick_inv", "wick", "wick_inv"),
    ("remeasure.transport_dist", "remeasure", "transport_dist"),
    ("remeasure.reorder_test", "remeasure", "reorder_test"),
    ("oracle.quad_1d", "oracle", "quad_1d"),
    ("oracle.pmf_sum", "oracle", "pmf_sum"),
    ("oracle.mc_expectation", "oracle", "mc_expectation"),
    ("oracle.exact_expectation", "oracle", "exact_expectation"),
    ("measures.sample_batch", "measures", "sample_batch"),
    ("measures.moment_kernels", "measures", "moment_kernels"),
    ("fixtures.parse_kernel_seq", "fixtures", "parse_kernel_seq"),
    ("fixtures.format_kernel_seq", "fixtures", "format_kernel_seq"),
    ("cli.main", "cli", "main"),
    # not reported; it separates the suites from report writing in cli.main
    ("suites.run_suite", "suites", "run_suite"),
]

LAYERS = list(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Modules whose escaping exceptions are counted as <module>.errors.
ERROR_MODULES = ["symtensor", "jets", "measures", "appell", "wick", "remeasure", "oracle", "fixtures"]


@lru_cache(maxsize=None)
def sym_product_madds(dim: int, m: int, n: int) -> int:
    """Sum over output multisets t of the distinct (u, v) splits of t.

    Every split pairs one rank-m multiset u with one rank-n multiset v, and
    each such pair merges into exactly one t, so the sum is the product of
    the two multiset counts.  Computed from argument shapes, not measured.
    """
    return comb(dim + m - 1, m) * comb(dim + n - 1, n)


class LayerRenamedError(RuntimeError):
    pass


class Tracer:
    def __init__(self) -> None:
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.calls = np.zeros(len(LAYERS))
        self.total_s = np.zeros(len(LAYERS))
        self.self_s = np.zeros(len(LAYERS))
        self.madds = 0
        self.errors = dict.fromkeys(ERROR_MODULES, 0)
        self._restore: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def _wrap(self, layer: str, module: str, fn):
        i = self.index[layer]
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack,
        )
        on_args = self._count_madds if layer == "symtensor.sym_product" else None

        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(*args)
            k = len(names)
            names.append(i)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(k)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(module, exc)
                raise
            finally:
                ends[k] = perf_counter()
                stack.pop()

        return traced

    def _count_madds(self, a, b) -> None:
        self.madds += sym_product_madds(a.dim, a.rank, b.rank)

    def _count_error(self, module: str, exc: Exception) -> None:
        # an exception escaping nested wrapped calls counts once per module
        seen = exc.__dict__.setdefault("_perfbench_modules", set())
        if module in self.errors and module not in seen:
            seen.add(module)
            self.errors[module] += 1

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is an error."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "appellsys" or name.startswith("appellsys.")
        }
        for layer, module, attr in TARGETS:
            mod = mods.get(f"appellsys.{module}")
            owner_name, _, member = attr.rpartition(".")
            try:
                if owner_name:
                    owner = getattr(mod, owner_name)
                    orig = owner.__dict__[member]
                    self._replace(owner, member, self._wrap(layer, module, orig))
                    self.bindings[attr] = 1
                    continue
                orig = getattr(mod, member)
            except (AttributeError, KeyError) as e:
                raise LayerRenamedError(f"cannot trace appellsys.{module}.{attr}: {e}") from e
            wrapped = self._wrap(layer, module, orig)
            bound = 0
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapped)
                        bound += 1
            self.bindings[attr] = bound

    def _replace(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def end_op(self) -> None:
        """Reduce the spans of the op that just ended, then drop them."""
        if not self._name:
            return
        names = np.array(self._name, dtype=np.int32)
        parents = np.array(self._parent, dtype=np.int32)
        dur = np.array(self._end) - np.array(self._start)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        K = len(LAYERS)
        self.calls += np.bincount(names, minlength=K)
        self.total_s += np.bincount(names, weights=dur, minlength=K)
        self.self_s += np.bincount(names, weights=dur - covered, minlength=K)
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]

    def stat(self, layer: str, kind: str) -> float:
        return float(getattr(self, kind)[self.index[layer]])
