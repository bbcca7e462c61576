"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/sweep.py --workload NAME --seeds 1-10 [--seconds 10] [--trace 0]

Runs `run.py` once per seed, one run at a time, and before each run
times a fixed loop of 400 `pow` calls at 1040 bits, so machine drift can
be told apart from program changes.  Prints, per metric, the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median.  Writes every
run's JSON to perfbench/results/<workload>-trace<T>-<first>-<last>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pow_loop_s() -> float:
    rnd = random.Random("perfbench/pow-loop")
    modulus = rnd.getrandbits(1040) | (1 << 1039) | 1
    pairs = [(rnd.getrandbits(1040) % modulus, rnd.getrandbits(1040)) for _ in range(400)]
    t0 = time.perf_counter()
    for base, exp in pairs:
        pow(base, exp, modulus)
    return time.perf_counter() - t0


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values),
            "max": max(values),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds(args.seeds):
        loop = pow_loop_s()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=wall, pow_loop_s=loop)
        runs.append(result)
        shown = " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if not args.trace or not k.endswith(".calls")
        )
        print(f"seed {seed} wall {wall:.1f}s pow-loop {loop:.3f}s "
              f"ok={result['correct']} {result['failed']}/{result['attempted']} {shown}",
              flush=True)

    table = summary(runs)
    for name, s in table.items():
        print(f"{name:40s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.4f}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    first, last = runs[0]["seed"], runs[-1]["seed"]
    path = os.path.join(HERE, "results", f"{args.workload}-trace{args.trace}-{first}-{last}.json")
    with open(path, "w") as fh:
        json.dump({"runs": runs, "summary": table}, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
