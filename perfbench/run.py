"""Benchmark command for pda-kit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `pda_kit` from its
`src/`.  One process, one thread, one client: it builds the workload's
system, then runs a closed loop of operations and checks each against
the workload's oracle.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  A traced run also prints its whole per-layer
table, one metric a line, before that object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Put the checkout's `src/` first on the path; refuse any other pda_kit."""
    package = os.path.join(SRC, "pda_kit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no pda_kit sources under {SRC}")
    sys.path.insert(0, SRC)
    import pda_kit

    if os.path.dirname(os.path.abspath(pda_kit.__file__)) != package:
        sys.exit(f"perfbench: imported pda_kit from {pda_kit.__file__}, not {package}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Set-up and operation samples of one invocation."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.system = None
        self.setup_ok = True
        self.attempted = 0
        self.failed = 0
        self.wire: list[int] = []
        self.rounds: list[int] = []

    def setup(self) -> float:
        self.system = None  # the previous system is not kept alive across set-ups
        gc.collect()
        t0 = time.perf_counter()
        self.system = self.workload.setup()
        elapsed = time.perf_counter() - t0
        self.setup_ok &= self.workload.setup_ok(self.system)
        return elapsed

    def op(self, index: int) -> float:
        from pda_kit.errors import ProtocolError

        w = self.workload
        inputs = w.inputs(self.system, self.seed, index)
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, buses = w.run(self.system, inputs)
        except ProtocolError as exc:
            elapsed = time.perf_counter() - t0
            print(f"perfbench: operation {index} failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return elapsed
        elapsed = time.perf_counter() - t0
        self.wire.append(sum(sum(b.sent.values()) for b in buses))
        self.rounds.append(sum(len(b.rounds) for b in buses))
        if not w.check(self.system, inputs, result):
            print(f"perfbench: operation {index} disagrees with the oracle", file=sys.stderr)
            self.failed += 1
        return elapsed


def end_to_end(workload, seed: int, ops: int) -> tuple[Run, dict]:
    run = Run(workload, seed)
    setups = [run.setup() for _ in range(workload.setups)]
    times = [run.op(index) for index in range(ops)]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "wire_bytes_per_op": statistics.fmean(run.wire) if run.wire else 0.0,
        "rounds_per_op": statistics.fmean(run.rounds) if run.rounds else 0.0,
        "key_bytes_per_user": workload.key_bytes_per_user(run.system),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return run, metrics


def _layer_rows(tracer, phase: str, per: int, moduli: dict[int, str]) -> dict[str, float]:
    rows: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        rows[name] = rows.get(name, 0.0) + value / per

    for key, n in tracer.calls.items():
        add(f"{phase}.{key}.calls", n)
    for key, s in tracer.self_s.items():
        add(f"{phase}.{key}.self_s", s)
    for kind, counter in (("modexp", tracer.modexp), ("modinv", tracer.modinv)):
        for modulus, n in counter.items():
            add(f"{phase}.{kind}.{moduli.get(modulus, 'other')}.calls", n)
    add(f"{phase}.bus.messages", tracer.calls["bus.Bus.post"])
    return rows


def traced(workload, seed: int, ops: int) -> tuple[Run, dict]:
    """One untraced and one traced set-up, then untraced and traced
    operations in turn, so the overhead is measured in the same run."""
    from tracer import Tracer

    tracer = Tracer()
    run = Run(workload, seed)
    plain_setup = run.setup()
    tracer.install()
    try:
        traced_setup = run.setup()
        moduli = workload.moduli(run.system)
        rows = _layer_rows(tracer, "setup", 1, moduli)
        rows["setup.unattributed_s"] = traced_setup - tracer.attributed_s
        tracer.reset()
        plain, traced_ops = [], []
        for j in range(ops):
            tracer.uninstall()
            plain.append(run.op(2 * j))
            tracer.install()
            traced_ops.append(run.op(2 * j + 1))
    finally:
        tracer.uninstall()
    rows.update(_layer_rows(tracer, "op", ops, moduli))
    rows["op.unattributed_s"] = (sum(traced_ops) - tracer.attributed_s) / ops
    rows["trace.setup_overhead"] = traced_setup / plain_setup
    rows["trace.op_overhead"] = statistics.median(traced_ops) / statistics.median(plain)
    rows["trace.setup_s"] = traced_setup
    rows["trace.op_p50_s"] = statistics.median(traced_ops)
    rows["untraced.setup_s"] = plain_setup
    rows["untraced.op_p50_s"] = statistics.median(plain)
    return run, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="draws the values (default 1)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = max(1, math.ceil(args.seconds / workload.op_s))

    if args.trace:
        run, values = traced(workload, args.seed, ops)
        for name in sorted(values):
            print(f"{args.workload} {name} {values[name]!r}")
        wanted = declared["per_layer"]
    else:
        run, values = end_to_end(workload, args.seed, ops)
        wanted = declared["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values and m["unit"] != "count":
            raise KeyError(f"run produced no {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": run.setup_ok and run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
