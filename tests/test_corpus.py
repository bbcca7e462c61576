"""Seeded random cases of every entry point, pinned by SHA-256 on every route.

Each case draws its inputs from its own `Rng("corpus:<entry>:<k>")` on
toy systems built once per route, and ends in one short digest: of its
transcripts followed by the JSON of its outputs, or of its error class
and text when it is refused, so that a moved `[round N]` prefix shows.
A case that runs is run once more with one fault on one of its
messages, picked by the same stream, and that refusal is a case too.

`fixtures/corpus.json` holds every case's digest, so a failure names the
first case that moved, and `PINNED` one digest per entry point over its
cases'.  They change only under the rule of `test_golden.py`'s digests;
a change agreed to move them re-pins both, and says which cases moved:

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import json
import math
import pathlib

import pytest

from conftest import drop_posts, fault_rounds
from pda_kit import analytics, arith, models, netsim, paillier, pda
from pda_kit.bus import Bus
from pda_kit.errors import ProtocolError
from pda_kit.rng import Rng
from test_analytics import _recorded_buses
from test_golden import digest, keys_json

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus.json"

PINNED = {
    "keygen": (  # 17 cases
        "091c79fd930af59dab33f20cca147eb9"
        "47aaf7f91eaa2a2dfa16a4c543f413d7"
    ),
    "pda_aggregation": (  # 14 cases
        "8330afcb4d317034d00190c3cfaeb89f"
        "53de2e9f1a17940ceb74949a09cb6c42"
    ),
    "authority_aggregate": (  # 18 cases
        "551d97aae7137bbd156d72e5f13a6df2"
        "681ab335d77b3adc64f70fdc9b33518e"
    ),
    "all_participants_aggregate": (  # 17 cases
        "3447228e0f1e0329748faa06bd78563f"
        "2d039f03faf040a3680ee70a3317a3e1"
    ),
    "group_aggregation": (  # 19 cases
        "deb25b79f84833ab1cdeca0062524ff4"
        "9d219018bf44fe005120dc628dac98a6"
    ),
    "run_plan": (  # 11 cases
        "c11335d350007384826373f729bc1b63"
        "7f81cc62cb4abf6d44ff9fe515ba44b7"
    ),
}

# the faults a case's second run puts on one of its messages
FAULTS = ("drop", "duplicate", "stray", "empty", "longer")


def _pick(rng: Rng, pool, count: int) -> tuple[int, ...]:
    """`count` members of `pool`, drawn without repeats, in order."""
    pool, picked = list(pool), []
    for _ in range(count):
        picked.append(pool.pop(rng.randbelow(len(pool))))
    return tuple(sorted(picked))


def _outcome(run) -> tuple[str, list[Bus]]:
    """The short digest of `run()`, which returns its buses and outputs,
    and those buses (none if it was refused)."""
    try:
        buses, outputs = run()
    except ProtocolError as exc:
        return digest("", f"{type(exc).__name__}: {exc}")[:16], []
    return digest("".join(bus.transcript_jsonl() for bus in buses), outputs)[:16], buses


def _digests(cases) -> dict[str, str]:
    """{case: short digest} of each (name, rng, run) of `cases`, and of
    each run that was not refused once more with one fault on one of its
    messages, the fault and message drawn from `rng`."""
    digests = {}
    for name, rng, run in cases:
        digests[name], buses = _outcome(run)
        messages = [msg for bus in buses for msg in bus.messages()]
        if not messages:
            continue
        msg, fault = messages[rng.randbelow(len(messages))], FAULTS[rng.randbelow(len(FAULTS))]
        with pytest.MonkeyPatch.context() as patch:
            if fault == "drop":
                drop_posts(patch, msg.kind, msg.sender)
            else:
                fault_rounds(patch, msg.kind, msg.sender, fault)
            faulted = f"{name} {fault} {msg.kind} from {msg.sender}"
            digests[faulted], _ = _outcome(run)
    return digests


# ---------------------------------------------------------------------------
# the entry points, each yielding its cases as (name, rng, run)
# ---------------------------------------------------------------------------

def keygen_cases(systems):
    """Framework keygen at hardened_k 0, 1 and 2, some with a `degrees=`
    subset, and arith keygen with and without an authority."""
    for k in range(9):
        rng = Rng(f"corpus:keygen:{k}")
        if k < 6:
            n = 4 + rng.randbelow(4)
            params, hardened = systems["pda_params"][n], k % 3
            degrees = None
            if k >= 3:
                degrees = _pick(rng, range(2, n), 1 + rng.randbelow(n - 2))
            m_max = 2 + rng.randbelow(n - 1)

            def run(params=params, hardened=hardened, degrees=degrees, m_max=m_max, seed=k):
                system, result = netsim.keygen_pda(
                    params, f"corpus:keygen:{seed}", hardened, m_max, degrees
                )
                agg = paillier.to_json(system.agg_keys)
                return [result.bus], {"keys": keys_json(system.enc_keys), "agg": agg}

            name = f"framework n={n} k={hardened} degrees={degrees} m_max={m_max}"
        else:
            n, authority = 4 + rng.randbelow(3), k % 2 == 0
            params = systems["arith_params"][n]

            def run(params=params, authority=authority, seed=k):
                system, result = netsim.keygen_arith(params, f"corpus:keygen:{seed}", authority)
                masters = {str(i): format(v, "x") for i, v in system.master_keys.items()}
                return [result.bus], {"masters": masters, "keys": keys_json(system.enc_keys)}

            name = f"arith n={n} authority={authority}"
        yield f"{k} {name}", rng, run


def pda_aggregation_cases(systems):
    """Random groups, terms, exponents, windows and values; refused below
    the threshold and on a consumed window."""
    system = systems["pda"]
    n = system.params.n
    for k in range(8):
        rng = Rng(f"corpus:pda_aggregation:{k}")
        size = 3 + rng.randbelow(n - 2) if k != 6 else 2
        ids, m = _pick(rng, range(1, n + 1), size), 1 + rng.randbelow(4)
        query = pda.PdaQuery(
            coeffs=tuple(rng.randbelow(9) for _ in range(m)),
            exponents={i: {t: rng.randbelow(4) for t in range(m)} for i in ids},
            participants=ids,
            window=pda.Window(rng.randbelow(40), m),
        )
        data = {i: [rng.randbelow(50) for _ in range(m)] for i in ids}
        consumed = [query.window] if k == 7 else []

        def run(query=query, data=data, consumed=consumed, seed=k):
            registry = pda.SlotRegistry(consumed)
            value, result = netsim.run_pda_aggregation(
                system, query, data, f"corpus:pda_aggregation:{seed}", registry=registry
            )
            assert value == pda.evaluate_query(query, data, system.params.N)
            return [result.bus], format(value, "x")

        yield f"{k} group={list(ids)} m={m}", rng, run


def _polynomial(rng: Rng, kind: str, ids: tuple[int, ...]) -> models.AggPolynomial:
    """A random polynomial over `ids` of one of four classes: no
    single-owner term, only single-owner terms, a constant term among
    multi-owner ones, and mixed."""

    def term(owners):
        coeff = 1 + rng.randbelow(9)
        return models.PolyTerm(coeff, tuple((i, 1 + rng.randbelow(3)) for i in owners))

    def owners(least):
        return _pick(rng, ids, least + rng.randbelow(len(ids) - least + 1))

    multi = [term(owners(2)) for _ in range(1 + rng.randbelow(3))]
    single = [term((i,)) for i in owners(min(3, len(ids)))]  # enough for the additive round
    terms = {"multi": multi, "single": single, "constant": [term(()), *multi]}
    return models.AggPolynomial(terms=tuple(terms.get(kind, single + multi)), participants=ids)


POLYNOMIALS = ("multi", "single", "constant", "mixed")


def _flow_cases(systems, entry: str):
    """The arith flow `entry` over the four polynomial classes, twice each,
    then over two participants: a group below n_min without the authority."""
    system = systems["arith"]
    params, real = system.params, tuple(i for i in system.ids if i != system.virtual_id)
    for k in range(9):
        rng = Rng(f"corpus:{entry}:{k}")
        kind = POLYNOMIALS[k % 4]
        size = params.n_min + rng.randbelow(len(real) - params.n_min + 1) if k < 8 else 2
        poly = _polynomial(rng, kind, _pick(rng, real, size))
        data = {i: rng.randbelow(params.p) for i in real}

        def run(poly=poly, data=data):
            if entry == "authority_aggregate":
                bus = Bus(system.ids)
                args = (bus, params, system.enc_keys, system.virtual_id, poly, data)
                out = models.authority_aggregate(*args)
            else:
                bus = Bus(real)
                keys = {i: system.enc_keys[i] for i in real}
                outs = models.all_participants_aggregate(bus, params, keys, poly, data)
                assert len(set(outs.values())) == 1
                out = outs[poly.participants[0]]
            assert out == models.evaluate_plaintext(poly, data, params.p)
            return [bus], format(out, "x")

        yield f"{k} {kind} group={list(poly.participants)}", rng, run


def authority_aggregate_cases(systems):
    return _flow_cases(systems, "authority_aggregate")


def all_participants_aggregate_cases(systems):
    return _flow_cases(systems, "all_participants_aggregate")


def group_aggregation_cases(systems):
    """Sums and products over random groups; refused below n_min."""
    system = systems["arith"]
    params = system.params
    for k in range(10):
        rng = Rng(f"corpus:group_aggregation:{k}")
        op = ("add", "mul")[k % 2]
        size = params.n_min + rng.randbelow(len(system.ids) - params.n_min + 1) if k < 9 else 2
        group = _pick(rng, system.ids, size)
        values = {i: rng.randbelow(params.p) for i in group}

        def run(group=group, values=values, op=op):
            value, result = netsim.run_arith_group_aggregation(system, group, values, op)
            combine = sum if op == "add" else math.prod
            assert value == combine(values.values()) % params.p
            return [result.bus], format(value, "x")

        yield f"{k} {op} group={list(group)}", rng, run


def run_plan_cases(systems):
    """Mean and variance, and regression, over random groups with
    negative values and frac_bits from 0 to 20; refused when a sum does
    not fit."""
    system = systems["pda"]
    n = system.params.n
    for k in range(6):
        rng = Rng(f"corpus:run_plan:{k}")
        ids = _pick(rng, range(1, n + 1), 3 + rng.randbelow(n - 2))
        frac_bits = rng.randbelow(21) if k < 5 else 60
        start = rng.randbelow(30)

        def value():
            return (rng.randbelow(2001) - 1000) / 8

        if k % 2 == 0:
            plan = analytics.plan_mean_variance(ids, frac_bits, window_start=start, column="v")
            rows = {i: {"v": value()} for i in ids}
        else:
            plan = analytics.plan_linear_regression(ids, ["a"], frac_bits, window_start=start)
            rows = {i: {"a": value(), "y": value()} for i in ids}

        def run(plan=plan, rows=rows, seed=k, fitted=k % 2 == 1):
            with pytest.MonkeyPatch.context() as patch:
                buses = _recorded_buses(patch)
                out = analytics.run_plan(
                    system, plan, rows, f"corpus:run_plan:{seed}", registry=pda.SlotRegistry()
                )
            if fitted:  # np.linalg.solve's last bits may differ between LAPACK builds
                out["intercept"] = format(out["intercept"], ".12g")
                out["coefficients"] = [format(v, ".12g") for v in out["coefficients"]]
            return buses, out

        kind = "regression" if k % 2 else "mean_variance"
        yield f"{k} {kind} group={list(ids)} frac_bits={frac_bits}", rng, run


ENTRIES = {
    "keygen": keygen_cases,
    "pda_aggregation": pda_aggregation_cases,
    "authority_aggregate": authority_aggregate_cases,
    "all_participants_aggregate": all_participants_aggregate_cases,
    "group_aggregation": group_aggregation_cases,
    "run_plan": run_plan_cases,
}


def run_corpus() -> dict[str, dict[str, str]]:
    """{entry: {case: short digest}} of every case, on toy systems built here."""
    systems = {
        "pda": netsim.build_pda_system(24, 7, 3, "corpus:pda", m_max=7)[0],
        "arith": netsim.build_arith_system(16, 6, 3, "corpus:arith", with_authority=True)[0],
        "pda_params": {n: pda.setup(16, n, 3, Rng(f"corpus:setup:{n}")) for n in range(4, 8)},
        "arith_params": {n: arith.setup(16, n, 3, Rng(f"corpus:setup:{n}")) for n in range(4, 7)},
    }
    return {entry: _digests(cases(systems)) for entry, cases in ENTRIES.items()}


def pinned(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus(route):
    return run_corpus()


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_corpus(corpus, entry):
    want, got = json.loads(FIXTURE.read_text())[entry], corpus[entry]
    moved = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    assert not moved, f"{len(moved)} of {len(want)} {entry} cases moved, first {moved[0]!r}"
    assert pinned(got) == PINNED[entry]


def test_the_route_was_taken(route, corpus):
    route.taken()


if __name__ == "__main__":
    corpus = run_corpus()
    FIXTURE.write_text(json.dumps(corpus, indent=1) + "\n")
    for entry, digests in corpus.items():
        whole = pinned(digests)
        print(f'    "{entry}": (  # {len(digests)} cases')
        print(f'        "{whole[:32]}"\n        "{whole[32:]}"\n    ),')
