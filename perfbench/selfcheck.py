"""Harness self-check at toy sizes (kappa 16-32, n <= 8).

    python3 perfbench/selfcheck.py

Runs every workload's path end to end, untraced and traced, and shows
that no check is vacuous: each operation oracle rejects a result that is
off by one, and each set-up check rejects a key set that lacks one
degree or group size.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import sys
import time

import run as bench


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")


def check_workload(w) -> None:
    t0 = time.perf_counter()
    run, metrics = bench.end_to_end(w, seed=1, ops=2)
    expect(run.setup_ok, f"{w.name}: set-up check")
    expect(run.attempted == 2 and run.failed == 0, f"{w.name}: untraced operations")
    expect(all(v > 0 for v in metrics.values()), f"{w.name}: an end-to-end metric is 0")

    again, repeat = bench.end_to_end(w, seed=1, ops=2)
    for name in ("wire_bytes_per_op", "rounds_per_op", "key_bytes_per_user"):
        expect(repeat[name] == metrics[name], f"{w.name}: {name} differs on the same seed")

    traced, rows = bench.traced(w, seed=2, ops=1)
    expect(traced.failed == 0, f"{w.name}: traced operations")
    self_s = sum(v for k, v in rows.items() if k.startswith("op.") and k.endswith(".self_s"))
    spent = self_s + rows["op.unattributed_s"]
    expect(math.isclose(spent, rows["trace.op_p50_s"], rel_tol=1e-9), f"{w.name}: self times")
    expect(rows["op.unattributed_s"] >= 0, f"{w.name}: negative bookkeeping")
    expect(rows["op.bus.messages"] > 0, f"{w.name}: no bus messages traced")

    system = traced.system
    inputs = w.inputs(system, 3, 100)
    result, _ = w.run(system, inputs)
    expect(w.check(system, inputs, result), f"{w.name}: oracle rejects a correct result")
    expect(
        not w.check(system, inputs, w.off_by_one(system, result)),
        f"{w.name}: oracle accepts a result off by one",
    )

    key = system.enc_keys[1]
    table = getattr(key, "evaluations", None) or key.shares
    dropped = max(table)
    value = table.pop(dropped)
    expect(not w.setup_ok(system), f"{w.name}: set-up check accepts a missing entry")
    table[dropped] = value
    expect(w.setup_ok(system), f"{w.name}: set-up check after restore")
    print(f"selfcheck {w.name}: ok in {time.perf_counter() - t0:.1f} s")


def main() -> int:
    bench._import_program()
    from workloads import TOY

    for w in TOY.values():
        check_workload(w)
    return 0


if __name__ == "__main__":
    sys.exit(main())
