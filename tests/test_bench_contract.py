"""The library names the benchmark in `bench/` calls.

The benchmark's kernel scaling block skips a block whose function a later
commit removed, but only on an `AttributeError`; an `ImportError` or a
`TypeError` from a changed signature would stop a traced run
(`bench/run.py --trace 1`). Its tracer patches functions by module and name.
A short untraced run of every workload must pass the benchmark's correctness
gate: replay, the welfare identity, IR and OMD marginal membership.
"""
import json
import subprocess
import sys
import types
from pathlib import Path

import pabid._kernels
import pabid.mirror_descent

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import scaling  # noqa: E402  (bench-local modules)
import tracing  # noqa: E402

# Single-table wrappers the scaling block still times; the library dropped them.
RETIRED = ("compute_partial_sums", "sample_bid", "slot_marginals", "full_info_update",
           "project_to_Q", "recover_policy")
# Spans whose functions the library no longer has.
ABSENT_SPANS = {"simulator.RunLog.competing_history", "mirror_descent.recover_policy",
                "kernels.transport_plan", "kernels.sample_chain", "auction.settle",
                "adversaries.StochasticAdversary.draw"}


def test_scaling_block_runs_and_names_only_retired_functions():
    block = scaling.scaling_block(0)
    for entry in block["absent"]:
        module, _, error = entry.partition(": ")
        assert module in ("exp_weights", "mirror_descent"), entry
        assert error.startswith(f"module 'pabid.{module}' has no attribute "), entry
        assert error.split()[-1].strip("'") in RETIRED, entry


def test_the_package_binds_only_its_version_and_submodules():
    """Every name is imported from its module; `pabid` re-exports none."""
    public = {name: value for name, value in vars(pabid).items() if not name.startswith("_")}
    assert all(isinstance(value, types.ModuleType) and value.__name__ == f"pabid.{name}"
               for name, value in public.items()), sorted(public)
    assert isinstance(pabid.__version__, str)


def test_tracer_patches_every_present_span_and_restores_it():
    originals = (pabid._kernels.ew_tail_sums, pabid.mirror_descent.project_dual_ascent)
    tracer = tracing.Tracer()
    with tracer.patched():
        assert pabid._kernels.ew_tail_sums is not originals[0]
        assert pabid.mirror_descent.project_dual_ascent is not originals[1]
    assert tracer.absent == ABSENT_SPANS
    assert (pabid._kernels.ew_tail_sums, pabid.mirror_descent.project_dual_ascent) == originals


def test_every_workload_passes_the_correctness_gate():
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seconds", "0.5",
                          "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
    assert result["attempted"] > 0
