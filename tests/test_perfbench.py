"""The benchmark harness in perfbench/ at its toy sizes.

A traced run must produce every timed per-layer metric that
BENCHMARK.json declares: the tracer only wraps plain public functions,
so a metric goes missing when such a function becomes a cached or
otherwise wrapped object.  An untraced run must count the wire bytes
and rounds of every ceremony: the harness sees them only while the
program calls `netsim.run_ceremony` through that module's global.
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


def keygen_messages(parties: int, degrees: int) -> int:
    """One ring broadcast a party, then n(n-1) addressed shares a degree."""
    return parties + degrees * parties * (parties - 1)


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
def test_traced_setup_counts_every_bus_message(bench, name):
    # bus.messages is the count of Bus.post calls, so it is only right while
    # each message is posted on its own
    run, toy = bench
    spec = toy[name].spec
    if name == "arith_poly_n32":  # the authority's virtual user n+1 takes part
        parties, degrees = spec.n + 1, spec.n + 2 - spec.n_min
    else:  # degrees 2..n-1
        parties, degrees = spec.n, spec.n - 2
    _, rows = run.traced(toy[name], seed=1, ops=1)
    assert rows["setup.bus.messages"] == keygen_messages(parties, degrees)


# three rounds an aggregation; arith runs one polynomial in each of its
# two deployment models; the toy regression has 3 features, so D = 4 and
# D(D+1)/2 + D - 1 = 13 of its steps run a ceremony (A_0_0 is local)
ROUNDS_PER_OP = {"pda_agg_k512": 3, "arith_poly_n32": 5, "regress_n64": 39}


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
def test_untraced_run_counts_wire_traffic(bench, name):
    run, toy = bench
    untraced, metrics = run.end_to_end(toy[name], seed=1, ops=1)
    assert untraced.setup_ok and untraced.attempted == 1 and untraced.failed == 0
    assert metrics["wire_bytes_per_op"] > 0
    assert metrics["rounds_per_op"] == ROUNDS_PER_OP[name]
