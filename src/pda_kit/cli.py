"""Operator entry point: parameter generation, ceremonies, aggregation, demos, attacks.

Every simulation subcommand requires a seed (flag or PDA_KIT_SEED) so
runs are replayable bit-exactly.  Reports are JSON on stdout; failures
exit non-zero with {"error": code, "detail": ...} on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import analytics, arith, attacks, netsim, paillier, pda
from .errors import BadField, DuplicateId, InvalidKey, ProtocolError
from .rng import Rng

SEED_ENV = "PDA_KIT_SEED"


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


def _load_json(path: str | Path, parse: Callable[[dict], Any] = lambda doc: doc) -> Any:
    """parse(the JSON object in the file); a file that is not one, or whose
    fields are missing or do not parse, is bad-json."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CliError("bad-json", f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("bad-json", f"{path}: not a JSON object")
    try:
        return parse(doc)
    except BadField as exc:
        raise CliError("bad-json", f"{path}: {exc}") from None


def _scheme_params(doc: dict) -> arith.ArithParams | pda.PdaParams:
    """Arithmetic-scheme parameters carry n_min; the framework's do not."""
    return (arith.ArithParams if "n_min" in doc else pda.PdaParams).from_json(doc)


def _read_rows(path: str, kind: type) -> tuple[list[str], dict[int, dict]]:
    try:
        return analytics.read_rows(path, kind)
    except ValueError as exc:
        raise CliError("bad-data", f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_params(args) -> None:
    rng = Rng(_seed(args)).fork("setup")
    if args.scheme == "arith":
        params = arith.setup(args.kappa, args.n, args.min_group, rng)
    else:
        params = pda.setup(args.kappa, args.n, args.min_group, rng)
    _emit(params.to_json(), args.out)


def cmd_keygen(args) -> None:
    seed = _seed(args)
    params = _load_json(args.params, _scheme_params)
    files: dict[str, str] = {}  # key-directory file name -> content

    if isinstance(params, arith.ArithParams):
        if args.hardened_k is not None or args.m_max is not None:
            raise CliError("bad-args", "--hardened-k and --m-max take framework params only")
        system, result = netsim.keygen_arith(params, seed, with_authority=args.authority)
        report = {"scheme": "arith"}
    else:
        if args.authority:
            raise CliError("bad-args", "--authority takes arith params only")
        hardened_k = args.hardened_k or 0
        m_max = 64 if args.m_max is None else args.m_max
        system, result = netsim.keygen_pda(params, seed, hardened_k=hardened_k, m_max=m_max)
        agg_doc = paillier.to_json(system.agg_keys)
        files["aggregator.json"] = json.dumps(agg_doc, sort_keys=True) + "\n"
        files["registry.jsonl"] = ""
        report = {"scheme": "pda", "hardened_k": hardened_k}
    for key in system.enc_keys.values():
        files[f"user_{key.id}.json"] = json.dumps(key.to_json(), sort_keys=True) + "\n"
    report.update(
        users=len(system.enc_keys), rounds=result.round_count, traffic=result.traffic_report()
    )
    # directory, transcript, key files: a --keys path that cannot be a
    # directory leaves no transcript, and an unwritable transcript no keys
    keys_dir = Path(args.keys)
    keys_dir.mkdir(parents=True, exist_ok=True)
    if args.transcript:
        Path(args.transcript).write_text(result.transcript_jsonl())
    for name, text in files.items():
        (keys_dir / name).write_text(text)
    _emit(report, args.out)


def _load_user_key(path: Path, params: pda.PdaParams) -> pda.PdaEncKey:
    """A user key file, checked against the parameters it was made for."""
    key = _load_json(path, pda.PdaEncKey.from_json)
    if not 1 <= key.id <= params.n:
        raise InvalidKey(f"{path}: user ID {key.id} outside 1..{params.n}")
    if sorted(key.evaluations) != list(range(2, params.n)):
        raise InvalidKey(
            f"{path}: degrees {sorted(key.evaluations)}, expected 2..{params.n - 1}"
        )
    if not all(0 <= v < params.N_tilde for v in key.evaluations.values()):
        raise InvalidKey(f"{path}: an evaluation lies outside [0, N~)")
    return key


def _load_pda_system(args) -> netsim.PdaSystem:
    params = _load_json(args.params, pda.PdaParams.from_json)
    keys_dir = Path(args.keys)
    enc_keys = {}
    for path in sorted(keys_dir.glob("user_*.json")):
        key = _load_user_key(path, params)
        if key.id in enc_keys:
            raise DuplicateId(f"{path}: user ID {key.id} is in another key file too")
        enc_keys[key.id] = key
    if not enc_keys:
        raise CliError("missing-keys", f"no user key files under {keys_dir}")
    agg = _load_json(keys_dir / "aggregator.json", paillier.from_json)
    registry = pda.SlotRegistry.load(keys_dir / "registry.jsonl")
    return netsim.PdaSystem(
        params=params,
        agg_keys=agg,
        enc_keys=enc_keys,
        registry=registry,
    )


def _query_data(query: pda.PdaQuery, path: str, modulus: int) -> dict[int, list[int]]:
    features, rows = _read_rows(path, int)
    columns = [f"x{k}" for k in range(query.m)]
    if not any(col in features for col in columns):
        columns = ["x"] * query.m
    if not all(col in features for col in columns):
        raise CliError("bad-data", f"{path}: need columns x0..x{query.m - 1} or x")
    missing = [i for i in query.participants if i not in rows]
    if missing:
        raise CliError("bad-data", f"{path}: no data row for users {missing}")
    return {i: [rows[i][col] % modulus for col in columns] for i in query.participants}


def cmd_aggregate(args) -> None:
    seed = _seed(args)
    system = _load_pda_system(args)
    query = _load_json(args.query, pda.PdaQuery.from_json)
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
    features, rows = _read_rows(args.data, float)
    n, theta_min = len(rows), 3
    if n < theta_min:
        raise CliError("bad-data", f"{args.data}: need {theta_min} rows or more, got {n}")
    if not features:
        raise CliError("bad-data", f"{args.data}: no feature column besides 'y'")
    if args.analysis == "regress" and "y" not in next(iter(rows.values())):
        raise CliError("bad-data", f"{args.data}: regress needs a 'y' column")
    outside = sorted(i for i in rows if not 1 <= i <= n)
    if outside:  # n distinct IDs, none outside 1..n: exactly 1..n
        raise CliError("bad-data", f"{args.data}: user IDs {outside} outside 1..{n}")
    # every plan spans all n rows, so degree n-1 is the only key it uses
    system, _ = netsim.build_pda_system(
        args.kappa, n, theta_min, seed, m_max=max(8, n), degrees=[n - 1]
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
        outcome = attacks.collusion_attack(
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
        hardened_k = 1 if args.hardened_k is None else args.hardened_k
        base = attacks.rushing_attack_demo(params, victim, seed, hardened_k=0)
        hardened = attacks.rushing_attack_demo(params, victim, seed, hardened_k=hardened_k)
        _emit(
            {
                "attack": "rushing",
                "victim": victim,
                "base_matched": base.matched,
                "hardened_k": hardened_k,
                "hardened_matched": hardened.matched,
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

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="also write the JSON report here")

    p = sub.add_parser("gen-params", help="generate and write public parameters")
    p.add_argument("--scheme", choices=["pda", "arith"], default="pda")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-min", "--theta-min", dest="min_group", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_params)

    p = sub.add_parser("keygen", help="run the key-generation ceremony")
    p.add_argument("--params", required=True)
    p.add_argument("--keys", required=True, help="output directory for key files")
    p.add_argument("--hardened-k", type=int, default=None,
                   help="pda only: collusion-hardened ring exchange (default 0)")
    p.add_argument("--authority", action="store_true",
                   help="arith only: add the virtual participant n+1")
    p.add_argument("--m-max", type=int, default=None,
                   help="pda only: sizes the aggregator keypair (default 64)")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
        return 0
    except CliError as exc:
        error, detail, status = exc.code, exc.detail, 2
    except FileNotFoundError as exc:
        error, detail, status = "missing-file", str(exc), 2
    except OSError as exc:
        error, detail, status = "bad-path", str(exc), 2
    except ProtocolError as exc:
        error, detail, status = type(exc).__name__, str(exc), 1
    except ValueError as exc:
        error, detail, status = "bad-args", str(exc), 2
    print(json.dumps({"error": error, "detail": detail}), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
