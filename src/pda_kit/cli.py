"""Operator entry point: parameter generation, ceremonies, demos, attacks, benchmarks.

Every simulation subcommand requires a seed (flag or PDA_KIT_SEED) so
runs are replayable bit-exactly.  Reports are JSON on stdout; failures
exit non-zero with {"error": code, "detail": ...} on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
import time
from pathlib import Path

from . import analytics, arith, netsim, paillier, pda
from .bus import hex_len
from .errors import ProtocolError
from .rng import Rng

SEED_ENV = "PDA_KIT_SEED"

# Published C/GMP baseline timings at kappa=512, reported side by side for
# context only; wall-clock comparisons never gate anything.
BASELINE_MS_KAPPA512 = {
    "pda_aggregate": 0.28,
    "pda_encode_user1": 9.846,
    "pda_encode_user2": 9.458,
    "pda_encode_ordinary": 0.129,
}


class CliError(ProtocolError):
    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    raise CliError("seed-required", f"pass --seed or set {SEED_ENV}")


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise CliError("missing-file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError("bad-json", f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_params(args) -> None:
    seed = _seed(args)
    rng = Rng(seed)
    if args.scheme == "arith":
        params = arith.setup(args.kappa, args.n, args.min_group or 3, rng.fork("setup"))
        doc = params.to_json()
    else:
        params = pda.setup(
            args.kappa,
            args.n,
            args.min_group or 3,
            rng.fork("setup"),
            strict_safe=args.strict_safe_primes,
        )
        doc = params.to_json()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")


def cmd_keygen(args) -> None:
    seed = _seed(args)
    doc = _load_json(args.params)
    keys_dir = Path(args.keys)
    keys_dir.mkdir(parents=True, exist_ok=True)

    if "n_min" in doc:
        params = arith.ArithParams.from_json(doc)
        ids = tuple(range(1, params.n + (2 if args.authority else 1)))
        result = netsim.run_ceremony(
            netsim.run_arith_keygen, ids, seed, params=params, ids=ids
        )
        _, keys = result.outputs
        report = {"scheme": "arith"}
    else:
        params = pda.PdaParams.from_json(doc)
        rng = Rng(seed)
        agg_keys = paillier.keygen(
            paillier.required_bits(params.N, args.m_max), rng.fork("aggregator")
        )
        ids = tuple(range(1, params.n + 1))
        result = netsim.run_ceremony(
            netsim.run_pda_keygen,
            ids,
            seed,
            params=params,
            hardened_k=args.hardened_k,
        )
        keys = result.outputs
        (keys_dir / "aggregator.json").write_text(
            json.dumps(paillier.to_json(agg_keys), sort_keys=True) + "\n"
        )
        (keys_dir / "registry.jsonl").write_text("")
        report = {"scheme": "pda", "hardened_k": args.hardened_k}
    for key in keys.values():
        (keys_dir / f"user_{key.id}.json").write_text(
            json.dumps(key.to_json(), sort_keys=True) + "\n"
        )
    report.update(users=len(ids), rounds=result.round_count, traffic=result.traffic_report())
    if args.transcript:
        Path(args.transcript).write_text(result.transcript_jsonl())
    _emit(report, args.out)


def _load_pda_system(args) -> netsim.PdaSystem:
    params = pda.PdaParams.from_json(_load_json(args.params))
    keys_dir = Path(args.keys)
    enc_keys = {}
    for path in sorted(keys_dir.glob("user_*.json")):
        key = pda.PdaEncKey.from_json(json.loads(path.read_text()))
        enc_keys[key.id] = key
    if not enc_keys:
        raise CliError("missing-keys", f"no user key files under {keys_dir}")
    agg = paillier.from_json(_load_json(keys_dir / "aggregator.json"))
    registry = pda.SlotRegistry.load(keys_dir / "registry.jsonl")
    return netsim.PdaSystem(
        params=params,
        agg_keys=agg,
        enc_keys=enc_keys,
        hardened_k=max(k.hardened_k for k in enc_keys.values()),
        registry=registry,
    )


def _query_data(query: pda.PdaQuery, path: str, modulus: int) -> dict[int, list[int]]:
    def integer(cell: str | None, what: str) -> int:
        try:
            return int(cell)
        except (TypeError, ValueError):
            raise CliError("bad-data", f"{path}: {what} is not an integer: {cell!r}") from None

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CliError("bad-data", "empty CSV")
        columns = [f"x{k}" if f"x{k}" in reader.fieldnames else "x" for k in range(query.m)]
        if "x" in columns and "x" not in reader.fieldnames:
            raise CliError("bad-data", f"{path}: need columns x0..x{query.m - 1} or x")
        rows = {}
        for idx, record in enumerate(reader, start=1):
            user = integer(record["user"], f"user of row {idx}") if "user" in record else idx
            rows[user] = record
    data = {}
    for i in query.participants:
        record = rows.get(i)
        if record is None:
            raise CliError("bad-data", f"no data row for user {i}")
        data[i] = [integer(record[col], f"{col} of user {i}") % modulus for col in columns]
    return data


def cmd_aggregate(args) -> None:
    seed = _seed(args)
    system = _load_pda_system(args)
    query = pda.PdaQuery.from_json(_load_json(args.query))
    data = _query_data(query, args.data, system.params.N)
    value, result = netsim.run_pda_aggregation(system, query, data, seed)
    if args.transcript:
        Path(args.transcript).write_text(result.transcript_jsonl())
    _emit(
        {
            "value": format(value, "x"),
            "value_int": str(value),
            "terms": query.m,
            "rounds_after_declaration": result.round_count - 1,
            "traffic": result.traffic_report(),
        },
        args.out,
    )


def cmd_demo(args) -> None:
    seed = _seed(args)
    try:
        features, rows = analytics.read_rows(args.data)
    except ValueError as exc:
        raise CliError("bad-data", f"{args.data}: {exc}") from None
    n = len(rows)
    system, _ = netsim.build_pda_system(
        args.kappa, n, 3, seed, m_max=max(8, n)
    )
    if args.analysis == "stats":
        column = "x" if "x" in features else features[0]
        plan = analytics.plan_mean_variance(sorted(rows), args.frac_bits, column=column)
    else:
        plan = analytics.plan_linear_regression(sorted(rows), features, args.frac_bits)
    out = analytics.run_plan(system, plan, rows, seed=f"{seed}:run")
    out["description"] = plan.description
    _emit(out, args.out)


def cmd_attack(args) -> None:
    seed = _seed(args)
    if args.attack == "collusion":
        n = max(args.n, args.degree + 2, args.coalition + 2)
        system, _ = netsim.build_pda_system(
            args.kappa, n, 3, seed, degrees=[args.degree], m_max=4
        )
        rng = Rng(f"{seed}:pick")
        ids = sorted(system.enc_keys)
        victim = ids[rng.randbelow(len(ids))]
        pool = [i for i in ids if i != victim]
        members: list[int] = []
        while len(members) < args.coalition:
            cand = pool[rng.randbelow(len(pool))]
            if cand not in members:
                members.append(cand)
        coalition = {
            i: system.enc_keys[i].evaluations[args.degree] for i in members
        }
        outcome = netsim.collusion_attack(
            system.params.N_tilde, coalition, args.degree, victim
        )
        doc = {"attack": "collusion", "degree": args.degree, "coalition": sorted(members),
               "victim": victim, "status": outcome.status}
        if outcome.status == "recovered":
            true_key = system.enc_keys[victim].evaluations[args.degree]
            doc["matches_victim"] = outcome.recovered == true_key
        else:
            doc["witnesses"] = [
                [format(c, "x") for c in w] for w in outcome.witnesses
            ]
        _emit(doc, args.out)
    else:
        params = pda.setup(args.kappa, args.n, 3, Rng(seed).fork("setup"))
        victim = 1 + args.n // 2
        base = netsim.rushing_attack_demo(params, victim, seed, hardened_k=0)
        hardened = netsim.rushing_attack_demo(params, victim, seed, hardened_k=args.hardened_k or 1)
        _emit(
            {
                "attack": "rushing",
                "victim": victim,
                "base_matched": base.matched,
                "hardened_k": args.hardened_k or 1,
                "hardened_matched": hardened.matched,
            },
            args.out,
        )


def _time_op(fn, iterations: int) -> dict:
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return {
        "iterations": iterations,
        "min_ms": min(samples),
        "max_ms": max(samples),
        "mean_ms": statistics.fmean(samples),
        "median_ms": statistics.median(samples),
        "std_ms": statistics.pstdev(samples),
    }


def cmd_bench(args) -> None:
    seed = _seed(args)
    iterations = args.iterations
    system, _ = netsim.build_pda_system(args.kappa, args.n, 3, seed, m_max=8)
    params = system.params
    ids = sorted(system.enc_keys)
    group = tuple(ids)
    m = 4
    query = pda.PdaQuery(
        coeffs=(1,) * m,
        exponents={i: {k: 1 for k in range(m)} for i in group},
        participants=group,
        window=pda.Window(0, m),
    )
    rng = Rng(f"{seed}:bench")
    xs = [rng.randbelow(params.N) for _ in range(m)]
    u1, u2 = query.special_users()
    ordinary_id = next(i for i in group if i not in (u1, u2))

    rows: dict[str, dict] = {}
    rows["pda_encode_ordinary"] = _time_op(
        lambda: pda.encode_ordinary(params, system.enc_keys[ordinary_id], query, xs),
        iterations,
    )

    others = {
        i: pda.encode_ordinary(params, system.enc_keys[i], query, xs)
        for i in group
        if i not in (u1, u2)
    }
    own = pda.encode_ordinary(params, system.enc_keys[u1], query, xs)
    rows["pda_encode_user2"] = _time_op(
        lambda: pda.encode_user2(
            params, system.agg_pk, system.enc_keys[u2], query, xs, rng.fork("u2")
        ),
        iterations,
    )
    user2_cts = pda.encode_user2(
        params, system.agg_pk, system.enc_keys[u2], query, xs, rng.fork("u2-final")
    )
    rows["pda_encode_user1"] = _time_op(
        lambda: pda.encode_user1(
            params, system.agg_pk, query, own, others, user2_cts, rng.fork("u1")
        ),
        iterations,
    )
    blinded = pda.encode_user1(
        params, system.agg_pk, query, own, others, user2_cts, rng.fork("u1-final")
    )
    rows["pda_aggregate"] = _time_op(
        lambda: pda.aggregate(params, system.agg_keys, blinded), iterations
    )

    arith_sys, _ = netsim.build_arith_system(args.kappa, args.n, 3, f"{seed}:arith")
    akey = arith_sys.enc_keys[1]
    agroup = arith_sys.ids
    x = rng.randbelow(arith_sys.params.p)
    rows["arith_encrypt_add"] = _time_op(
        lambda: arith.encrypt_add(arith_sys.params, akey, agroup, x), iterations
    )
    rows["arith_encrypt_mul"] = _time_op(
        lambda: arith.encrypt_mul(arith_sys.params, akey, agroup, x), iterations
    )
    adds = [
        arith.encrypt_add(arith_sys.params, arith_sys.enc_keys[i], agroup, x)
        for i in agroup
    ]
    muls = [
        arith.encrypt_mul(arith_sys.params, arith_sys.enc_keys[i], agroup, x)
        for i in agroup
    ]
    rows["arith_decrypt_add"] = _time_op(
        lambda: arith.decrypt(arith_sys.params, adds), iterations
    )
    rows["arith_decrypt_mul"] = _time_op(
        lambda: arith.decrypt(arith_sys.params, muls), iterations
    )

    report_rows = []
    for name, stats in rows.items():
        row = {"algorithm": name, **stats}
        if args.kappa == 512 and name in BASELINE_MS_KAPPA512:
            row["baseline_ms"] = BASELINE_MS_KAPPA512[name]
        report_rows.append(row)

    sample_c = next(iter(others.values()))[0]
    byte_counts = {
        "encoded_value_bytes": hex_len(sample_c),
        "paillier_ct_bytes": hex_len(user2_cts[0]),
        "blinded_term_bytes": hex_len(blinded[0]),
        "pda_key_bytes": len(
            json.dumps(system.enc_keys[ordinary_id].to_json(), sort_keys=True)
        ),
        "arith_key_bytes": len(json.dumps(akey.to_json(), sort_keys=True)),
    }
    _emit(
        {
            "kappa": args.kappa,
            "n": args.n,
            "rows": report_rows,
            "bytes": byte_counts,
        },
        args.out,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pda-kit",
        description="privacy-preserving polynomial aggregation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="also write the JSON report here")

    p = sub.add_parser("gen-params", help="generate and write public parameters")
    p.add_argument("--scheme", choices=["pda", "arith"], default="pda")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-min", "--theta-min", dest="min_group", type=int, default=None)
    p.add_argument("--strict-safe-primes", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_params)

    p = sub.add_parser("keygen", help="run the key-generation ceremony")
    p.add_argument("--params", required=True)
    p.add_argument("--keys", required=True, help="output directory for key files")
    p.add_argument("--hardened-k", type=int, default=0)
    p.add_argument("--authority", action="store_true",
                   help="arith only: add the virtual participant n+1")
    p.add_argument("--m-max", type=int, default=64,
                   help="pda only: sizes the aggregator keypair")
    p.add_argument("--transcript", default=None)
    common(p)
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("aggregate", help="run one aggregation end to end")
    p.add_argument("--params", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--transcript", default=None)
    common(p)
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("demo", help="analytics demos over a CSV")
    p.add_argument("analysis", choices=["stats", "regress"])
    p.add_argument("--data", required=True)
    p.add_argument("--kappa", type=int, default=32)
    p.add_argument("--frac-bits", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("attack", help="collusion / rushing demonstrations")
    p.add_argument("attack", choices=["collusion", "rushing"])
    p.add_argument("--kappa", type=int, default=16)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--degree", "--d", type=int, default=3)
    p.add_argument("--coalition", "--s", type=int, default=3)
    p.add_argument("--hardened-k", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("bench", help="microbenchmarks with byte counts")
    p.add_argument("--kappa", type=int, default=512)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--iterations", type=int, default=100)
    common(p)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": exc.code, "detail": exc.detail}), file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
