"""The benchmark's tracer binds package functions by name; every name it
traces must still exist and be bound, so a rename fails here first.  A traced
run must also reach every layer the benchmark lists for its workload."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import appellsys

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a fresh module, read without writing bytecode."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_is_bound():
    for info in pkgutil.iter_modules(appellsys.__path__):
        importlib.import_module(f"appellsys.{info.name}")
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unbound = [attr for _, _, attr in tracer_module.TARGETS if tracer.bindings.get(attr, 0) < 1]
    finally:
        tracer.uninstall()
    assert unbound == []


# The seed-5 output fingerprints.  The build digest covers g_alpha of every
# ladder basis and the verify digest the suites' results, so a change of any
# output bit fails here; a change that moves these bits on purpose updates
# them and says so.
FINGERPRINTS = {"build": "c1d97c6f404c3c51", "query": "190aa540c25e76f6", "verify": "a4400d961da0f608"}


@pytest.mark.parametrize("workload", ["build", "query", "verify"])
def test_traced_run_reaches_every_layer(workload):
    # run.py exits nonzero when a traced layer of the workload has no call;
    # one pass of each op, with no bytecode written into the checkout
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert f"fingerprint {FINGERPRINTS[workload]}" in run.stdout.splitlines()
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    if workload == "verify":
        # one evaluation per polynomial, not one per grade
        assert metrics["symtensor.eval_power_batch.calls"] == 864
    if workload == "build":
        # the products that REACHES needs, and the tensors a build may make:
        # product jets and power-kernel tables stay stacked arrays; B, the
        # power kernels of the inverse, is built only when read, and the
        # build workload never reads it.  comp_kernels forms products only
        # in layers 2..N-1 of a nonlinear alpha; the values-tuple storage
        # adds no construction
        assert metrics["jets.comp_kernels.per_build"] == 1
        assert metrics["jets.jet_mul.calls"] == 238
        assert metrics["symtensor.sym_product.calls"] == 1389
        assert metrics["symtensor.SymTensor.constructed"] == 2316
