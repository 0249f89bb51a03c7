"""appellsys benchmark: build, query and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload of ``BENCHMARK.json`` in turn, each
in its own process.

One single-threaded client runs the workload's ops in a closed loop, in
whole passes over the op list, until the ops have taken ``--seconds`` and
at least two passes have run.  Every timing is scaled to a reference
machine speed by a fixed probe loop timed between ops (see ``PROBE_REF_S``).
The program is imported from ``src/`` of the checkout.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` the same untraced phase is followed
by one traced pass and the JSON holds the per-layer metrics instead.  The
human-readable lines before it also give fail_rate, sample counts, the op
mix, the output fingerprint and, when tracing, the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import types
from math import isfinite
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
# every op is timed at least this often, so each has a median
MIN_PASSES = 2
# A fixed loop of tuple-keyed dict and float work, the package's staple, is
# timed between ops, at least every PROBE_EVERY_S of op time.  Each timing is
# scaled by PROBE_REF_S over the mean of the probes just before and just
# after it: a shared host slows by up to 1.7x for seconds to minutes at a
# time, and the probe slows with the package.  PROBE_REF_S is about the
# probe's time on a quiet 2-core x86 host, so scaled times read as there.
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.05

# Layers each workload must reach when traced.  Their union is every traced
# layer, so a renamed function cannot zero a layer on every workload.
REACHES = {
    "build": [
        "symtensor.SymTensor", "symtensor.arith", "symtensor.sym_product",
        "jets.jet_invert", "jets.comp_kernels", "jets.jet_compose_scalar", "jets.jet_mul",
        "jets.series", "jets.contract_out", "appell.AppellBasis", "measures.moment_kernels",
    ],
    "query": [
        "symtensor.partial_pairing", "symtensor.pairing", "symtensor.tensor_norm",
        "jets.contract_in", "appell.gen_appell_all", "appell.delta_z", "appell.eval_test",
        "appell.to_monomial", "appell.to_appell", "appell.s_transform", "appell.s_inverse",
        "appell.g_nabla_apply", "wick.wick_mul", "wick.wick_inv", "remeasure.transport_dist",
        "remeasure.reorder_test", "fixtures.parse_kernel_seq", "fixtures.format_kernel_seq",
    ],
    "verify": [
        "symtensor.eval_power_batch", "oracle.quad_1d", "oracle.pmf_sum", "oracle.mc_expectation",
        "oracle.exact_expectation", "measures.sample_batch", "cli.main", "suites.run_suite",
    ],
}


def import_package(src: Path):
    """Import appellsys afresh from src, so that each set-up pays for it."""
    for name in [n for n in sys.modules if n == "appellsys" or n.startswith("appellsys.")]:
        del sys.modules[name]
    names = ["symtensor", "jets", "measures", "appell", "wick", "remeasure", "oracle", "suites", "fixtures", "cli"]
    pkg = types.SimpleNamespace(**{n: importlib.import_module(f"appellsys.{n}") for n in names})
    origin = Path(pkg.appell.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: appellsys was imported from {origin}, not from {src}")
    return pkg


def digest(obj, h, finite: list) -> None:
    """Feed the exact bits of a result into h; flag non-finite floats."""
    if isinstance(obj, int):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, float):
        finite[0] &= isfinite(obj)
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(b"s%d;" % len(data) + data)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d;" % len(obj))
        for x in obj:
            digest(x, h, finite)
    elif hasattr(obj, "coeffs"):  # SymTensor
        values = [float(v) for v in obj.coeffs.values()]
        finite[0] &= all(isfinite(v) for v in values)
        h.update(b"t%d,%d;" % (obj.dim, obj.rank) + struct.pack(f"<{len(values)}d", *values))
    elif hasattr(obj, "kernels"):  # ScalarJet or KernelSeq
        digest((getattr(obj, "tag", "jet"), list(obj.kernels)), h, finite)
    elif hasattr(obj, "components"):  # VectorJet
        digest(list(obj.components), h, finite)
    elif hasattr(obj, "g_alpha"):  # AppellBasis
        digest([obj.m_jet, obj.g_alpha, obj.malpha_jet, obj.ualpha_jet], h, finite)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


class Ledger:
    """Per-op outcomes: fingerprints, hard failures and exact checks."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first = [None] * len(ops)
        self.check_ok = [True] * len(ops)
        self.digits: list[float] = []
        self.attempted = 0
        self.failed = 0  # raised or returned a non-finite value
        self.check_failed = 0  # instances of ops whose check failed
        self.mismatches = 0  # results that differ from the op's first result
        self.problems: list[str] = []

    @property
    def fail_rate(self) -> float:
        return (self.failed + self.check_failed) / self.attempted

    def record(self, i: int, result, error: Exception | None, run_check: bool) -> None:
        op = self.ops[i]
        self.attempted += 1
        if error is None:
            h = hashlib.sha256()
            finite = [True]
            try:
                digest(result, h, finite)
            except TypeError as e:
                error = e
            if error is None and not finite[0]:
                error = ValueError("non-finite value in result")
        if error is not None:
            self.failed += 1
            self.problems.append(f"op {i} ({op.kind}) failed: {type(error).__name__}: {error}")
            return
        fp = h.hexdigest()
        if self.first[i] is None:
            self.first[i] = fp
            if run_check and op.check is not None:
                try:
                    ok, digits = op.check(result)
                except Exception as e:  # a malformed result fails its check
                    ok, digits = False, []
                    self.problems.append(f"op {i} ({op.kind}) check raised {type(e).__name__}: {e}")
                self.check_ok[i] = ok
                self.digits += digits
                if not ok and not op.beyond_ceiling:
                    self.problems.append(f"op {i} ({op.kind}) failed its check: digits {digits}")
        elif fp != self.first[i]:
            self.mismatches += 1
            self.problems.append(f"op {i} ({op.kind}) result differs from its first run")
        if not self.check_ok[i]:
            self.check_failed += 1

    def fingerprint(self) -> str:
        return hashlib.sha256("".join(fp or "-" for fp in self.first).encode()).hexdigest()[:16]


def probe(repeats: int = 3) -> float:
    """Mean time of the reference loop over `repeats` runs, in seconds.

    The garbage collector is off meanwhile, so that the probe does not pay
    for the garbage of the op before it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    for _ in range(repeats):
        d = {}
        for i in range(4000):
            k = (i % 7, i % 11, i % 13)
            d[k] = d.get(k, 0.0) + i * 0.5
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt / repeats


def run_passes(ops, ledger: Ledger, seconds: float | None, passes: int | None = None, tracer=None, run_check=True):
    """Whole passes until the ops have taken `seconds` over at least
    MIN_PASSES passes, or exactly `passes` passes.

    Returns per-op latencies, the same scaled to the reference probe time,
    and the number of passes.  Checks, digests and probes run between ops
    and are not charged, as a client's think time.
    """
    lat = [[] for _ in ops]
    scaled = [[] for _ in ops]
    block: list[tuple[int, float]] = []  # ops timed since the last probe
    before = probe()

    def flush() -> None:
        nonlocal before
        after = probe()
        scale = PROBE_REF_S / ((before + after) / 2)
        for j, t in block:
            scaled[j].append(t * scale)
        block.clear()
        before = after

    busy = 0.0
    done = 0
    while True:
        for i, op in enumerate(ops):
            error = result = None
            if op.prepare is not None:
                op.prepare()
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as e:
                error = e
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            lat[i].append(dt)
            block.append((i, dt))
            busy += dt
            ledger.record(i, result, error, run_check)
            if sum(t for _, t in block) >= PROBE_EVERY_S:
                flush()
        if block:
            flush()
        done += 1
        if done == passes or passes is None and done >= MIN_PASSES and busy >= seconds:
            return lat, scaled, done


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ledger: Ledger, lat, scaled, setups: list[float], raw_setups: list[float]) -> tuple[dict, list[str]]:
    # Each op at the median of its scaled timings.  Unscaled, the best pass
    # of each op is printed for reference.
    typical = [statistics.median(per_op) for per_op in scaled]
    p50, p90 = quantile(typical, 0.5), quantile(typical, 0.9)
    beyond = sum(t > p90 for t in typical)
    best = [min(per_op) for per_op in lat]
    if not ledger.digits:
        ledger.problems.append("no exact-reference check ran")
    digits = ledger.digits or [0.0]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) / sum(typical),
        "op_ms.p50": p50 * 1e3,
        "op_ms.p90": p90 * 1e3,
        "accuracy_digits.min": min(digits),
        "accuracy_digits.p50": statistics.median(digits),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"setup_s: median of {len(setups)} scaled set-ups {['%.3f' % s for s in setups]}; "
        f"unscaled {['%.3f' % s for s in raw_setups]}",
        f"op_ms: median of {len(lat[0])} scaled timings for each of {len(typical)} ops, {beyond} ops beyond p90",
        f"unscaled: ops_per_s {len(best) / sum(best):.6g} 1/s, op_ms.p50 {quantile(best, 0.5) * 1e3:.6g} ms "
        f"at each op's best pass",
        f"fail_rate: {ledger.fail_rate:.4f} fraction ({ledger.failed} raised or non-finite, "
        f"{ledger.check_failed} failed their check, of {ledger.attempted} attempted)",
        f"accuracy_digits: {len(digits)} exact-reference checks",
    ]
    return values, notes


def op_mix(ops, lat) -> list[str]:
    kinds: dict[str, list[float]] = {}
    for op, per_op in zip(ops, lat):
        kinds.setdefault(op.kind, []).extend(per_op)
    total_n = sum(len(v) for v in kinds.values())
    total_t = sum(sum(v) for v in kinds.values())
    return [
        f"  {kind:<22} count {len(v) / total_n:6.1%}  time {sum(v) / total_t:6.1%}  "
        f"median {statistics.median(v) * 1e3:9.3f} ms"
        for kind, v in kinds.items()
    ]


def per_layer(spec: list[dict], tracer, suite_wall: dict) -> dict:
    out = {}
    for m in spec:
        name = m["name"]
        head, stat = name.rsplit(".", 1)
        if head.startswith("suites."):
            value = suite_wall.get(head[len("suites."):], 0.0)
        elif stat == "errors":
            value = tracer.errors[head]
        elif stat == "madds":
            value = tracer.madds
        elif stat == "per_build":
            builds = tracer.stat("appell.AppellBasis", "calls")
            value = tracer.stat(head, "calls") / builds if builds else 0.0
        else:
            value = tracer.stat(head, "calls" if stat == "constructed" else stat)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "appellsys" / "__init__.py").is_file():
        print(f"perfbench: no appellsys sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        for name in names:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *argv]).returncode
            if code:
                return code
        return 0
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(src))
    import numpy
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    if sorted({layer for names in REACHES.values() for layer in names}) != sorted(LAYERS):
        raise SystemExit("perfbench: REACHES does not cover every traced layer")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {numpy.__version__}")
    print(f"workload {args.workload}: seed {args.seed}, closed loop, 1 client, {args.seconds:g} s of ops")

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = probe(10)
        t0 = perf_counter()
        pkg = import_package(src)
        workload = WORKLOADS[args.workload](pkg, args.seed, ROOT)
        raw_setups.append(perf_counter() - t0)
        setups.append(raw_setups[-1] * PROBE_REF_S / ((before + probe(10)) / 2))
        if len(setups) < SETUP_REPEATS:
            workload.close()
    try:
        ops = workload.ops
        ledger = Ledger(ops)
        lat, scaled, passes = run_passes(ops, ledger, args.seconds)
        values, notes = end_to_end(ledger, lat, scaled, setups, raw_setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in values.items():
            print(f"  {name:<22} {value:14.6g} {units[name]}")
        print(f"  {'fail_rate':<22} {ledger.fail_rate:14.6g} fraction")
        for note in notes:
            print(f"  {note}")
        print(f"op mix over {passes} pass(es) of {len(ops)} ops:")
        print("\n".join(op_mix(ops, lat)))
        print(f"fingerprint {ledger.fingerprint()}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

        if args.trace:
            untraced_pass = statistics.median(sum(per_op[k] for per_op in lat) for k in range(passes))
            mismatches = ledger.mismatches
            tracer = Tracer()
            tracer.install()
            shared = {attr: n for attr, n in tracer.bindings.items() if n > 1}
            print(f"tracer: {len(tracer.bindings)} targets; functions bound in several modules: {shared}")
            try:
                traced_lat, _, _ = run_passes(ops, ledger, None, passes=1, tracer=tracer, run_check=False)
                traced = sum(per_op[0] for per_op in traced_lat)
            finally:
                tracer.uninstall()
            print(f"tracing overhead: traced pass {traced:.3f} s vs untraced {untraced_pass:.3f} s "
                  f"({traced / untraced_pass - 1.0:+.1%})")
            same = ledger.mismatches == mismatches
            print(f"traced pass results {'match' if same else 'DIFFER FROM'} the untraced results")
            idle = [layer for layer in REACHES[args.workload] if tracer.stat(layer, "calls") == 0]
            if idle:
                raise SystemExit(f"perfbench: traced layers with zero calls on {args.workload}: {idle}")
            suite_wall = {}
            if args.workload == "verify":
                suite_wall = {op.kind: statistics.median(t) for op, t in zip(ops, lat)}
            metrics = per_layer(spec["per_layer"], tracer, suite_wall)
            for name, m in metrics.items():
                print(f"  {name:<44} {m['value']:14.6g} {m['unit']}")
    finally:
        workload.close()

    for problem in ledger.problems[:20]:
        print(f"problem: {problem}")
    correct = not ledger.problems
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
