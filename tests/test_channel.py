"""The bus is the one channel of every aggregation and key ceremony.

Each role computes from its own secrets and the messages that
`Bus.end_round` delivers to it, so a body changed on delivery changes
the output of every flow, and a message lost on the wire is refused with
an error naming its kind and its sender, prefixed with its round.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child
from pda_kit import models, netsim, pda
from pda_kit.bus import Bus
from pda_kit.errors import IncompleteGroup, MissingEncoding, ProtocolError, UnexpectedMessage


def term(coeff, powers):
    return models.PolyTerm(coeff=coeff, powers=tuple(powers.items()))


# two multi-owner terms (kinds enc-mul:0 and enc-mul:1) and three
# single-owner terms, owned by 3, 5 and 6, for the extra additive round
POLY = models.AggPolynomial(
    terms=(
        term(5, {1: 1, 2: 2}),
        term(3, {2: 1, 4: 1, 6: 3}),
        term(2, {3: 2}),
        term(9, {5: 1}),
        term(4, {6: 2}),
    ),
    participants=(1, 2, 3, 4, 5, 6),
)
VALUES = {i: 10 + 3 * i for i in range(1, 7)}


def framework(systems):
    system = systems["framework"]
    ids = (1, 2, 3, 4)
    query = pda.PdaQuery(
        coeffs=(3, 5),
        exponents={i: {0: 1, 1: i % 3} for i in ids},
        participants=ids,
        window=pda.Window(0, 2),
    )
    data = {i: [7 * i + 1, 2 * i + 5] for i in ids}
    # a fresh registry each run, so that a second run may reuse the window
    value, _ = netsim.run_pda_aggregation(
        system, query, data, seed="channel", registry=pda.SlotRegistry()
    )
    return value


def authority(systems):
    system = systems["authority"]

    def driver(bus, rng):
        return models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, POLY, VALUES
        )

    return netsim.run_ceremony(driver, system.ids, seed="channel").outputs


def all_participants(systems):
    system = systems["plain"]

    def driver(bus, rng):
        return models.all_participants_aggregate(
            bus, system.params, system.enc_keys, POLY, VALUES
        )

    return netsim.run_ceremony(driver, system.ids, seed="channel").outputs


def group_op(op):
    def flow(systems):
        system = systems["plain"]
        value, _ = netsim.run_arith_group_aggregation(system, (1, 2, 3, 5), VALUES, op)
        return value

    return flow


FLOWS = {
    "run_pda_aggregation": framework,
    "authority_aggregate": authority,
    "all_participants_aggregate": all_participants,
    "group_add": group_op("add"),
    "group_mul": group_op("mul"),
}


@pytest.fixture
def systems(pda_system, arith_system, plain_arith_system):
    return {
        "framework": pda_system[0],
        "authority": arith_system[0],
        "plain": plain_arith_system[0],
    }


@pytest.mark.parametrize("flow", FLOWS)
def test_every_output_is_computed_from_the_delivered_bodies(systems, flow, monkeypatch):
    clean = FLOWS[flow](systems)
    end_round = Bus.end_round

    def plus_one(bus):
        return [m._replace(body=tuple(v + 1 for v in m.body)) for m in end_round(bus)]

    monkeypatch.setattr(Bus, "end_round", plus_one)
    assert FLOWS[flow](systems) != clean


# (flow, kind, sender, error, round): in the framework query user 1 and
# user 2 are the special users and 3 and 4 ordinary; in both arith
# models participant 4 owns a factor of each multi-owner term, and 5
# and 6 send to the extra additive round, which participant 3 completes
# without an authority
DROPS = [
    ("run_pda_aggregation", "encode", 3, MissingEncoding, 2),
    ("run_pda_aggregation", "encode-enc", 2, MissingEncoding, 2),
    ("run_pda_aggregation", "blinded-term", 1, MissingEncoding, 3),
    ("authority_aggregate", "enc-mul:1", 4, IncompleteGroup, 1),
    ("authority_aggregate", "enc-add-sigma", 5, IncompleteGroup, 2),
    ("all_participants_aggregate", "enc-mul:0", 4, IncompleteGroup, 1),
    ("all_participants_aggregate", "enc-add-sigma", 6, IncompleteGroup, 2),
    ("all_participants_aggregate", "sigma-sum", 3, IncompleteGroup, 3),
    ("group_add", "enc-add", 2, IncompleteGroup, 1),
    ("group_mul", "enc-mul", 5, IncompleteGroup, 1),
]


@pytest.mark.parametrize("flow, kind, sender, error, rnd", DROPS)
def test_a_lost_message_is_refused_naming_its_sender_and_kind(
    systems, dropping, flow, kind, sender, error, rnd
):
    FLOWS[flow](systems)  # the clean run returns its value
    dropping(kind, sender)
    with pytest.raises(error) as info:
        FLOWS[flow](systems)
    text = str(info.value)
    assert text.startswith(f"[round {rnd}] ")
    assert kind in text
    assert f"user {sender}:" in text or f"[{sender}]" in text


def keygen(systems, ceremony):
    """The named key ceremony run again over its fixture's parameters and
    seed: (enc keys, ceremony result)."""
    if ceremony == "keygen_arith":
        system, result = netsim.keygen_arith(systems["plain"].params, seed=20_240_502)
    else:
        hardened_k = int(ceremony == "keygen_pda_hardened")
        system, result = netsim.keygen_pda(
            systems["framework"].params, seed=20_240_503, hardened_k=hardened_k, m_max=16
        )
    return system.enc_keys, result


# (ceremony, kind, sender, round): both ceremonies open with the ring
# share, which hardened_k=1 follows with one relay round; the framework's
# then runs one round per key degree 2 .. 5, and the arith one one round
# per group size 3 .. 6
CEREMONY_DROPS = [
    ("keygen_pda", "ring-share", 3, 1),
    ("keygen_pda_hardened", "ring-relay", 5, 2),
    ("keygen_pda", "key-query:3", 2, 3),
    ("keygen_arith", "keyshare:4", 2, 3),
]


@pytest.mark.parametrize("ceremony, kind, sender, rnd", CEREMONY_DROPS)
def test_a_lost_key_ceremony_message_is_refused(
    systems, pda_system, plain_arith_system, dropping, ceremony, kind, sender, rnd
):
    keys, result = keygen(systems, ceremony)
    fixture = {"keygen_pda": pda_system, "keygen_arith": plain_arith_system}.get(ceremony)
    if fixture is not None:  # the clean run is the fixture's ceremony
        assert keys == fixture[0].enc_keys
        assert result.transcript_jsonl() == fixture[1].transcript_jsonl()
    dropping(kind, sender)
    with pytest.raises(IncompleteGroup) as info:
        keygen(systems, ceremony)
    text = str(info.value)
    assert text.startswith(f"[round {rnd}] ")
    assert kind in text
    assert f"user {sender}:" in text or f"[{sender}]" in text


@pytest.mark.parametrize("ceremony, kind, sender, fault", [
    ("keygen_pda", "key-query:3", 2, "duplicate"),
    ("keygen_arith", "keyshare:4", 2, "lost"),
])
def test_a_forked_key_ceremony_refuses_a_fault_as_the_inline_one(
    systems, faulty, dropping, request, ceremony, kind, sender, fault
):
    # the bus side stays in this process, so a fault in a round whose
    # shares the workers computed is refused with the inline text, and no
    # worker outlives the refusal
    if fault == "lost":
        dropping(kind, sender)
    else:
        faulty(kind, sender, fault)
    with pytest.raises(ProtocolError) as inline:
        keygen(systems, ceremony)
    here = request.getfixturevalue("forked")
    with pytest.raises(ProtocolError) as forked:
        keygen(systems, ceremony)
    assert here == []  # every degree up to the refused one came from a worker
    assert type(forked.value) is type(inline.value)
    assert str(forked.value) == str(inline.value)
    assert str(forked.value).startswith(f"[round {ROUNDS[ceremony, kind]}] user {sender}: ")
    assert_no_child()


# the faults of the `faulty` fixture; a round of one message has no other
# message to duplicate in place of a lost one
FAULTS = ("duplicate", "lost+duplicate", "stray", "empty", "longer")
SOLE = {"blinded-term", "sigma-sum"}
FAULT_CASES = [
    (*drop[:3], fault)
    for drop in [*DROPS, *CEREMONY_DROPS]
    for fault in FAULTS
    if fault != "lost+duplicate" or drop[1] not in SOLE
]
MISSING = {flow: error for flow, _, _, error, _ in DROPS}
ROUNDS = {(flow, kind): rnd for flow, kind, *_, rnd in [*DROPS, *CEREMONY_DROPS]}
# the recipient of the first message of each addressed kind from its sender
ADDRESSED = {"ring-relay": 4, "key-query:3": 1, "keyshare:4": 1}


def expected_refusal(flow, kind, sender, fault):
    """(error class, text after the round prefix) that `fault` on the
    message must raise: a loss is named before any other fault."""
    to = f" to user {ADDRESSED[kind]}" if kind in ADDRESSED else ""
    if fault == "lost+duplicate":
        return MISSING.get(flow, IncompleteGroup), f"user {sender}: no '{kind}' message{to}"
    if fault == "duplicate":
        return UnexpectedMessage, f"user {sender}: repeated '{kind}' message{to}"
    if fault == "stray":
        return UnexpectedMessage, f"user {sender}: unexpected 'noise' message{to}"
    length = "0)" if fault == "empty" else ""  # one value more than the kind's
    text = f"user {sender}: unexpected '{kind}' message{to} (body length {length}"
    return UnexpectedMessage, text


@pytest.mark.parametrize("flow, kind, sender, fault", FAULT_CASES)
def test_a_repeated_stray_or_reshaped_message_is_refused(
    systems, pda_system, plain_arith_system, faulty, flow, kind, sender, fault
):
    if flow in FLOWS:
        run = functools.partial(FLOWS[flow], systems)
        run()  # the clean run returns its value
    else:
        run = functools.partial(keygen, systems, flow)
        keys, result = run()
        fixture = {"keygen_pda": pda_system, "keygen_arith": plain_arith_system}.get(flow)
        if fixture is not None:  # the clean run is the fixture's ceremony
            assert keys == fixture[0].enc_keys
            assert result.transcript_jsonl() == fixture[1].transcript_jsonl()
    faulty(kind, sender, fault)
    error, text = expected_refusal(flow, kind, sender, fault)
    with pytest.raises(error) as info:
        run()
    assert type(info.value) is error
    assert str(info.value).startswith(f"[round {ROUNDS[flow, kind]}] {text}")


# the property test's toy run: a six-user framework key generation at
# kappa=16 (ring share, then key degrees 2 .. 5), then one aggregation
TOY_QUERY = pda.PdaQuery(
    coeffs=(3, 5),
    exponents={i: {0: 1, 1: i % 3} for i in (1, 2, 4, 6)},
    participants=(1, 2, 4, 6),
    window=pda.Window(0, 2),
)
TOY_DATA = {i: [7 * i + 1, 2 * i + 5] for i in (1, 2, 4, 6)}
POSTS = {
    "drop": lambda post, msg: None,
    "duplicate": lambda post, msg: [post(*msg), post(*msg)],
    "empty": lambda post, msg: post(*msg[:2], (), msg[3]),
    "longer": lambda post, msg: post(*msg[:2], (*msg[2], 1), msg[3]),
    "stray": lambda post, msg: [post(*msg), post(msg[0], "noise", *msg[2:])],
}


def toy_run(params):
    system, _ = netsim.keygen_pda(params, seed="faults", m_max=4)
    value, _ = netsim.run_pda_aggregation(
        system, TOY_QUERY, TOY_DATA, seed="faults", registry=pda.SlotRegistry()
    )
    return value


@pytest.fixture(scope="module")
def toy_posts(pda_system):
    """The toy run's parameters and the number of messages its clean run posts."""
    params = pda_system[0].params
    posted = itertools.count()
    post = Bus.post

    def counted_post(bus, *msg, **to):
        next(posted)
        post(bus, *msg, **to)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Bus, "post", counted_post)
        assert toy_run(params) == pda.evaluate_query(TOY_QUERY, TOY_DATA, params.N)
    return params, next(posted)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_one_faulty_message_ends_the_run_in_a_protocol_error(toy_posts, data):
    # whichever message is faulty, and however, the run neither returns a
    # value nor lets a built-in exception escape: it names its round
    params, total = toy_posts
    target = data.draw(st.integers(0, total - 1), label="message")
    fault = data.draw(st.sampled_from(sorted(POSTS)), label="fault")
    posted = itertools.count()
    post = Bus.post

    def faulty_post(bus, sender, kind, body, to=None):
        msg = (sender, kind, tuple(body), to)
        if next(posted) == target:
            POSTS[fault](lambda *m: post(bus, *m), msg)
        else:
            post(bus, *msg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Bus, "post", faulty_post)
        with pytest.raises(ProtocolError, match=r"^\[round \d+\] "):
            toy_run(params)
