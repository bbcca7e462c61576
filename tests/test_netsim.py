import dataclasses
import math

import numpy as np
import pytest

from pda_kit import arith, models, netsim, numtheory, pda
from pda_kit.bus import Bus, _hex_len as hex_len
from pda_kit.errors import GroupTooSmall, KeyMissing, RingTooSmall
from pda_kit.rng import Rng


# ---------------------------------------------------------------------------
# bus mechanics
# ---------------------------------------------------------------------------

def test_payload_byte_accounting():
    assert hex_len(0) == 1
    assert hex_len(0xF) == 1
    assert hex_len(0x10) == 2
    assert hex_len(1 << 255) == 64
    bus = Bus([1, 2, 3])
    bus.post(1, "x", (0x10, 0xF))
    bus.post(2, "y", (0xABC,), to=3)
    bus.end_round()
    assert bus.sent[(1, 1)] == 3
    assert bus.sent[(2, 1)] == 3
    # party 3 gets the broadcast and the addressed message, party 2 the broadcast
    # only, and party 1 not its own broadcast
    assert {r["party"]: r["received"] for r in bus.traffic_report()} == {1: 0, 2: 3, 3: 6}


def test_messages_are_immutable_and_delivered_in_order():
    bus = Bus([1, 2, 3])
    posted = [(3, "b", 1), (1, "b", 3), (2, "a", None), (1, "a", 3), (1, "c", None), (1, "a", 2)]
    for sender, kind, to in posted:
        bus.post(sender, kind, [True, 0x1F], to=to)
    delivered = bus.end_round()
    order = [(1, None, "c"), (1, 2, "a"), (1, 3, "a"), (1, 3, "b"), (2, None, "a"), (3, 1, "b")]
    assert [(m.sender, m.to, m.kind) for m in bus.rounds[0]] == order
    assert delivered == bus.rounds[0] == list(bus.messages())
    msg = delivered[0]
    assert msg.round_no == 1 and msg.body == (1, 0x1F) and type(msg.body[0]) is int
    assert bus.sent[1, 1] == 4 * 3  # four messages from 1, each body 3 hex digits
    for name, value in (("sender", 9), ("body", (0,)), ("to", 2), ("kind", "x")):
        with pytest.raises(AttributeError):
            setattr(msg, name, value)
    assert (msg.sender, msg.body, msg.to, msg.kind) == (1, (1, 0x1F), None, "c")


def test_transcript_is_deterministic_in_seed():
    a = netsim.build_pda_system(kappa=16, n=4, theta_min=3, seed=31337, m_max=4)[1]
    b = netsim.build_pda_system(kappa=16, n=4, theta_min=3, seed=31337, m_max=4)[1]
    c = netsim.build_pda_system(kappa=16, n=4, theta_min=3, seed=31338, m_max=4)[1]
    assert a.transcript_jsonl() == b.transcript_jsonl()
    assert a.transcript_jsonl() != c.transcript_jsonl()


def test_aggregation_transcript_deterministic(pda_system):
    system, _ = pda_system
    ids = tuple(sorted(system.enc_keys))
    query = pda.PdaQuery(
        coeffs=(1, 1),
        exponents={ids[2]: {0: 1}},
        participants=ids,
        window=pda.Window(20_000, 2),
    )
    data = {i: [3, 4] for i in ids}
    r1 = netsim.run_pda_aggregation(
        system, query, data, seed=9, registry=pda.SlotRegistry()
    )[1]
    r2 = netsim.run_pda_aggregation(
        system, query, data, seed=9, registry=pda.SlotRegistry()
    )[1]
    assert r1.transcript_jsonl() == r2.transcript_jsonl()


def test_ceremony_error_carries_round_context():
    def driver(bus, rng):
        bus.end_round()
        raise RingTooSmall("two parties make no ring")

    with pytest.raises(RingTooSmall, match=r"\[round 1\]"):
        netsim.run_ceremony(driver, (1, 2), seed=0)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_refused_arith_group_aggregation_opens_no_round(plain_arith_system, op, monkeypatch):
    # every mask is computed before the round opens, so an empty group, a
    # group below n_min or a key without the group's size is refused at
    # round 0, on a bus that never opened a round
    system, _ = plain_arith_system
    values = {i: i + 1 for i in system.ids}
    buses = []
    monkeypatch.setattr(netsim, "Bus", lambda parties: buses.append(Bus(parties)) or buses[-1])
    for group in ((), (1, 2)):
        with pytest.raises(GroupTooSmall, match=r"^\[round 0\]"):
            netsim.run_arith_group_aggregation(system, group, values, op)
    keys = {**system.enc_keys, 3: arith.ArithEncKey(id=3, shares={})}
    lacking = dataclasses.replace(system, enc_keys=keys)
    with pytest.raises(KeyMissing, match=r"^\[round 0\]"):
        netsim.run_arith_group_aggregation(lacking, (1, 2, 3), values, op)
    assert [bus.round_no for bus in buses] == [0, 0, 0]


@pytest.mark.parametrize("op", ["add", "mul"])
def test_arith_group_aggregation_walks_its_masks_in_one_batch(plain_arith_system, op_counts, op):
    # a product's masks are one fixed-base batch for the whole group, not
    # one a member; a sum's additive masks need no walk
    system, _ = plain_arith_system
    params = system.params
    p = params.p
    values = {i: 7 * i + 2 for i in system.ids}
    with op_counts:
        value, _ = netsim.run_arith_group_aggregation(system, system.ids, values, op)
    combine = sum if op == "add" else math.prod
    assert value == combine(values.values()) % p
    assert op_counts.walk_calls == ({(params.g, p, p - 1): 1} if op == "mul" else {})


def test_traffic_report_schema(pda_system):
    _, result = pda_system
    rows = result.traffic_report()
    assert rows
    for row in rows:
        assert set(row) == {"party", "round", "sent", "received"}


def _recount(bus):
    """Bytes per (party, round), message by message from the transcript: a
    broadcast reaches every party but its sender, an addressed message its `to`."""
    sent, received = {}, {}
    for msg in bus.messages():
        size = sum(len(format(v, "x")) for v in msg.body)
        key = (msg.sender, msg.round_no)
        sent[key] = sent.get(key, 0) + size
        reached = [p for p in bus.parties if p != msg.sender] if msg.to is None else [msg.to]
        for party in reached:
            key = (party, msg.round_no)
            received[key] = received.get(key, 0) + size
    return sent, received


def _assert_accounting_matches_recount(bus):
    sent, received = _recount(bus)
    rounds = range(1, len(bus.rounds) + 1)
    assert bus.sent == sent
    assert bus.traffic_report() == [
        {"party": p, "round": r, "sent": sent.get((p, r), 0), "received": received.get((p, r), 0)}
        for r in rounds
        for p in bus.parties
        if sent.get((p, r)) or received.get((p, r))
    ]


def test_hardened_keygen_accounting_matches_a_recount():
    _, result = netsim.build_pda_system(
        kappa=16, n=5, theta_min=3, seed=71, hardened_k=1, m_max=4
    )
    kinds = {(m.kind, m.to is None) for m in result.bus.messages()}
    assert {("ring-share", True), ("ring-relay", False), ("key-query:2", False)} <= kinds
    _assert_accounting_matches_recount(result.bus)


def test_aggregation_accounting_matches_a_recount(pda_system):
    system, _ = pda_system
    ids = tuple(sorted(system.enc_keys))
    query = pda.PdaQuery(
        coeffs=(1, 3),
        exponents={ids[0]: {0: 1}, ids[3]: {1: 2}},
        participants=ids,
        window=pda.Window(70_000, 2),
    )
    data = {i: [i, i + 1] for i in ids}
    _, result = netsim.run_pda_aggregation(
        system, query, data, seed=72, registry=pda.SlotRegistry()
    )
    assert len(result.bus.rounds) == 3
    _assert_accounting_matches_recount(result.bus)


def test_aggregation_derives_each_slot_exponent_once(monkeypatch, pda_system):
    # every member masks the same window, so an aggregation over n members
    # and m terms derives m slot exponents, not m * n
    system, _ = pda_system
    ids = tuple(sorted(system.enc_keys))
    m, start = 3, 90_000
    query = pda.PdaQuery(
        coeffs=(1,) * m,
        exponents={ids[0]: {0: 1}},
        participants=ids,
        window=pda.Window(start, m),
    )
    derived = []

    def counted(t, *args):
        derived.append(t)
        return numtheory.slot_exponent(t, *args)

    monkeypatch.setattr(pda, "slot_exponent", counted)
    netsim.run_pda_aggregation(
        system, query, {i: [i] * m for i in ids}, seed=3, registry=pda.SlotRegistry()
    )
    assert sorted(derived) == list(range(start, start + m))


def test_authority_aggregation_accounting_matches_a_recount(arith_system):
    system, _ = arith_system
    members = (1, 2, 3, 4)
    poly = models.AggPolynomial(
        terms=(
            models.PolyTerm(coeff=2, powers=((1, 1), (2, 1))),
            # single-owner terms go through the extra additive round
            models.PolyTerm(coeff=5, powers=((3, 2),)),
            models.PolyTerm(coeff=7, powers=((4, 1),)),
        ),
        participants=members,
    )
    bus = Bus(system.ids)
    models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, {i: i + 2 for i in members}
    )
    assert len(bus.rounds) == 2
    _assert_accounting_matches_recount(bus)


def test_keygen_traffic_grows_quadratically():
    # tail-side growth of per-party send volume matches the O(n^2 kappa) claim
    sizes = [16, 32]
    volumes = []
    for n in sizes:
        _, result = netsim.build_pda_system(
            kappa=16, n=n, theta_min=3, seed=500 + n, m_max=4
        )
        volumes.append(sum(v for (p, _), v in result.bus.sent.items() if p == 1))
    exponent = np.polyfit(np.log(sizes), np.log(volumes), 1)[0]
    assert 1.9 <= exponent <= 2.4


# ---------------------------------------------------------------------------
# late broadcasts on the ring
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ring_params():
    return pda.setup(16, 5, 3, Rng("rush"))


def test_late_party_with_its_own_broadcast_leaves_masks_unchanged(ring_params):
    # a late party that broadcasts its own g~^r is an ordinary party one round later
    nt, g = ring_params.N_tilde, ring_params.g_tilde
    rng = Rng("late")
    exponents = {i: rng.fork(f"party:{i}").unit(nt) for i in range(1, 6)}
    seen = {}

    def own_share(y):
        seen.update(y)
        return pow(g, exponents[3], nt)

    for hops in (0, 1):
        seen.clear()
        on_time = numtheory.ring_exchange(Bus(exponents), nt, g, exponents, hops=hops)
        masks = numtheory.ring_exchange(
            Bus(exponents), nt, g, exponents, hops=hops, late={3: own_share}
        )
        assert sorted(seen) == [1, 2, 4, 5]
        assert masks == on_time
        assert math.prod(masks.values()) % nt == 1


# ---------------------------------------------------------------------------
# hardened system end to end
# ---------------------------------------------------------------------------

def test_hardened_system_round_shape_and_policy():
    system, result = netsim.build_pda_system(
        kappa=16, n=6, theta_min=3, seed=717, hardened_k=2, m_max=4
    )
    # ring round + 2 relay rounds + one round per generated degree
    degrees = len(next(iter(system.enc_keys.values())).evaluations)
    assert result.round_count == 3 + degrees
    assert all(k.hardened_k == 2 for k in system.enc_keys.values())

    ids = tuple(sorted(system.enc_keys))
    small = pda.PdaQuery(
        coeffs=(1,),
        exponents={ids[0]: {0: 1}},
        participants=ids[:3],  # degree 2 <= k: refused
        window=pda.Window(0, 1),
    )
    from pda_kit.errors import GroupBelowThreshold

    with pytest.raises(GroupBelowThreshold):
        netsim.run_pda_aggregation(system, small, {i: [1] for i in ids[:3]}, seed=1)

    wide = pda.PdaQuery(
        coeffs=(1,),
        exponents={ids[0]: {0: 1}},
        participants=ids[:5],
        window=pda.Window(10, 1),
    )
    data = {i: [3] for i in ids[:5]}
    value, _ = netsim.run_pda_aggregation(system, wide, data, seed=2)
    assert value == 3


# ---------------------------------------------------------------------------
# the vector walk inside an aggregation
# ---------------------------------------------------------------------------

def _limb_lookups() -> int:
    info = numtheory._limb_comb.cache_info()
    return info.hits + info.misses


def _whole_group_query(system, m: int, start: int) -> tuple[pda.PdaQuery, dict]:
    ids = tuple(sorted(system.enc_keys))
    query = pda.PdaQuery(
        coeffs=tuple(range(1, m + 1)),
        exponents={i: {k: (i + k) % 3 for k in range(m)} for i in ids},
        participants=ids,
        window=pda.Window(start, m),
    )
    data = {i: [(7919 * i + 104_729 * k) % system.params.N for k in range(m)] for i in ids}
    return query, data


def test_vector_walk_leaves_the_aggregation_unchanged(pda_system, monkeypatch):
    # round 1 walks the n * m = 96 masks of every user in one vector walk;
    # with the ceiling patched to 0 the same call goes to `pows`, and
    # value, transcript and traffic agree
    system, _ = pda_system
    query, data = _whole_group_query(system, m=16, start=0)

    def run():
        before = _limb_lookups()
        value, result = netsim.run_pda_aggregation(
            system, query, data, seed=5, registry=pda.SlotRegistry()
        )
        return _limb_lookups() - before, value, result.transcript_jsonl(), result.traffic_report()

    vector = run()
    monkeypatch.setattr(numtheory, "_VECTOR_CEILING", 0)
    scalar = run()
    assert (vector[0], scalar[0]) == (1, 0)
    assert vector[1:] == scalar[1:]
    assert vector[1] == pda.evaluate_query(query, data, system.params.N)


def test_aggregation_walks_its_masks_in_one_batch(pda_system, op_counts):
    # the masks of every user, user 2's included, are one fixed-base
    # batch: one call, not one a user, for the n * m masks
    system, _ = pda_system
    params = system.params
    query, data = _whole_group_query(system, m=16, start=100)
    with op_counts:
        value, _ = netsim.run_pda_aggregation(
            system, query, data, seed=6, registry=pda.SlotRegistry()
        )
    assert value == pda.evaluate_query(query, data, params.N)
    shape = (params.h, params.N, params.N_tilde)
    assert op_counts.walk_calls == {shape: 1}
    assert op_counts.walks == {shape: len(query.participants) * query.m}
