"""The benchmark harness in perfbench/ at its toy sizes.

A traced run must produce every timed per-layer metric that
BENCHMARK.json declares: the tracer only wraps plain public functions,
so a metric goes missing when such a function becomes a cached or
otherwise wrapped object.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMED = [m["name"] for m in DECLARED["per_layer"] if m["unit"] != "count"]


@pytest.fixture
def bench(monkeypatch):
    # run.py imports tracer and workloads as top-level modules from its own directory
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from workloads import TOY

    return run, TOY


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_yields_every_timed_layer_metric(bench, name):
    run, toy = bench
    traced, rows = run.traced(toy[name], seed=1, ops=1)
    assert traced.setup_ok and traced.attempted == 2 and traced.failed == 0
    assert [m for m in TIMED if m not in rows] == []
