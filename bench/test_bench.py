"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import sgrpsim.hazards  # noqa: E402
import sgrpsim.rng  # noqa: E402


def _bindings():
    """Every function-valued attribute of the package's modules and classes."""
    out = {}
    for module in tracing.package_modules():
        for attr, val in vars(module).items():
            if inspect.isfunction(val):
                out[(module.__name__, attr)] = val
            elif inspect.isclass(val) and val.__module__.startswith("sgrpsim"):
                for name, fn in vars(val).items():
                    if inspect.isfunction(fn):
                        out[(val.__module__, val.__qualname__, name)] = fn
    return out


def test_tracing_wrappers_restore_the_originals():
    before = _bindings()
    superpose = sys.modules["sgrpsim.superpose"]
    original = superpose.next_failure_time
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            # imported by name: patched where it is looked up
            assert superpose.next_failure_time is not original
            assert superpose.next_failure_time.__wrapped__ is original
            assert sgrpsim.hazards.PowerLawHazard.rate.__wrapped__ is not None
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()
    hazard = sgrpsim.hazards.PowerLawHazard(1.3, 40.0)
    with tracing.traced(tracer):
        sgrpsim.hazards.hazard_from_config(hazard.to_config()).rate(np.arange(5.0))
    spans = tracer.summary()
    assert spans["hazards.hazard_from_config"]["calls"] == 1
    assert spans["hazards.rate"]["calls"] == 1
    assert tracer.counts["hazards.rate"] == 5
    for value in spans.values():
        assert 0.0 <= value["self_s"] <= value["s"]


def test_counting_rng_draws_the_same_variates():
    plain = sgrpsim.rng.stream_rng(3)
    proxy = tracing.CountingRNG(sgrpsim.rng.stream_rng(3))
    assert proxy.exponential() == plain.exponential()
    assert np.array_equal(proxy.random(4), plain.random(4))
    assert proxy.calls == {"exponential": 1, "random": 1}
    assert proxy.draws == 5


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_on_one_seed_give_identical_counts(workload, tmp_path):
    wl = WORKLOADS[workload]
    wl.prepare(tmp_path, 5)
    _, plain = run.run_rep(wl, tmp_path, 5)
    plain_digest = wl.digest(tmp_path, plain)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        _, result = run.run_rep(wl, tmp_path, 5, tracer)
        assert all(ok for _, ok in wl.verify(tmp_path, result))
        assert wl.digest(tmp_path, result) == plain_digest
        metrics = run.layer_metrics(tracer, wl, tmp_path, result)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
