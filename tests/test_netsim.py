import math
import random

import numpy as np
import pytest

from pda_kit import models, netsim, numtheory, pda
from pda_kit.bus import Bus, _hex_len as hex_len
from pda_kit.errors import PartyMissing, SingularSystem
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
    bus.begin_round()
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
    bus.begin_round()
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
        bus.begin_round()
        bus.end_round()
        raise PartyMissing("nobody spoke")

    with pytest.raises(PartyMissing, match=r"\[round 1\]"):
        netsim.run_ceremony(driver, (1, 2), seed=0)


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
# collusion attack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def attack_system():
    return netsim.build_pda_system(kappa=16, n=7, theta_min=3, seed=606, m_max=4)[0]


def test_collusion_exact_recovery(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    for d, coalition_ids in [(2, [1, 3]), (3, [2, 4, 6]), (2, [5, 6, 7])]:
        victim = next(i for i in sorted(keys) if i not in coalition_ids)
        coalition = {i: keys[i].evaluations[d] for i in coalition_ids}
        out = netsim.collusion_attack(nt, coalition, d, victim)
        assert out.status == "recovered"
        assert out.recovered == keys[victim].evaluations[d]


def test_collusion_undetermined_with_witnesses(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    d, coalition_ids, victim = 3, [2, 5], 4
    coalition = {i: keys[i].evaluations[d] for i in coalition_ids}
    out = netsim.collusion_attack(nt, coalition, d, victim)
    assert out.status == "undetermined"
    w1, w2 = out.witnesses
    assert len(w1) == len(w2) == d
    assert w1 != w2

    def ev(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc + c) * x % nt
        return acc

    for i in coalition_ids:
        assert ev(w1, i) == coalition[i] % nt
        assert ev(w2, i) == coalition[i] % nt
    # the two witnesses disagree at the victim: the key is genuinely ambiguous
    assert ev(w1, victim) != ev(w2, victim)


def test_collusion_threshold_boundary(attack_system):
    # success iff coalition size >= degree
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    rnd = random.Random(42)
    ids = sorted(keys)
    for d in (2, 3, 4):
        for s in (1, 2, 3, 4, 5):
            victim = ids[-1]
            members = rnd.sample(ids[:-1], s)
            coalition = {i: keys[i].evaluations[d] for i in members}
            out = netsim.collusion_attack(nt, coalition, d, victim)
            if s >= d:
                assert out.status == "recovered"
                assert out.recovered == keys[victim].evaluations[d]
            else:
                assert out.status == "undetermined"


def test_collusion_rejects_victim_in_coalition(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    with pytest.raises(SingularSystem):
        netsim.collusion_attack(nt, {1: keys[1].evaluations[2], 2: keys[2].evaluations[2]}, 2, 1)


# ---------------------------------------------------------------------------
# rushing attack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rushing_params():
    return pda.setup(16, 5, 3, Rng("rush"))


def test_rushing_succeeds_on_base_ring(rushing_params):
    for seed in range(10):
        out = netsim.rushing_attack_demo(rushing_params, victim=3, seed=seed)
        assert out.matched


def test_rushing_fails_on_hardened_ring(rushing_params):
    for seed in range(10):
        out = netsim.rushing_attack_demo(
            rushing_params, victim=3, seed=seed, hardened_k=1
        )
        assert not out.matched


def test_late_party_with_its_own_broadcast_leaves_masks_unchanged(rushing_params):
    # a late party that broadcasts its own g~^r is an ordinary party one round later
    nt, g = rushing_params.N_tilde, rushing_params.g_tilde
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
