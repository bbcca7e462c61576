"""The bus against a plain list of `Message`s, and the layout of a closed bus."""

import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pda_kit import netsim
from pda_kit.bus import Bus, Message


# ---------------------------------------------------------------------------
# reference model: every round a list of Messages, sorted at close
# ---------------------------------------------------------------------------

def _model_round(rnd: int, posts) -> list[Message]:
    msgs = [Message(rnd, s, k, tuple(map(int, body)), to) for s, k, body, to in posts]
    return sorted(msgs, key=lambda m: (m.sender, -1 if m.to is None else m.to, m.kind))


def _model_accounting(parties, rounds):
    sent, received = {}, {}
    for rnd, msgs in enumerate(rounds, 1):
        for m in msgs:
            size = sum(len(format(v, "x")) for v in m.body)
            sent[m.sender, rnd] = sent.get((m.sender, rnd), 0) + size
            reached = [m.to] if m.to is not None else [p for p in parties if p != m.sender]
            for party in reached:
                received[party, rnd] = received.get((party, rnd), 0) + size
    return sent, received


def _model_transcript(rounds) -> str:
    return "".join(
        json.dumps(
            {"round": m.round_no, "from": m.sender, "to": m.to, "kind": m.kind,
             "body": [format(v, "x") for v in m.body]},
            sort_keys=True,
        ) + "\n"
        for msgs in rounds
        for m in msgs
    )


# hex and byte widths change at nibble and byte edges; 0 still has one hex digit
_EDGES = sorted(
    {0, 15, 16, 255, 256, (1 << 4096) + 1}
    | {v for k in range(4, 132, 4) for v in ((1 << k) - 1, 1 << k)}
)


@st.composite
def _ceremonies(draw):
    parties = list(range(draw(st.integers(1, 5))))  # party 0 is the aggregator's id
    post = st.tuples(
        st.sampled_from(parties),
        st.sampled_from(["share", "share:1", "relay"]),
        st.lists(
            st.one_of(st.booleans(), st.integers(0, 2**80), st.sampled_from(_EDGES)), max_size=3
        ),
        st.one_of(st.none(), st.just(0), st.sampled_from(parties)),
    )
    return parties, draw(st.lists(st.lists(post, max_size=6), max_size=4))


@settings(max_examples=200, deadline=None)
@given(_ceremonies())
def test_bus_matches_a_list_of_messages(ceremony):
    parties, posted = ceremony
    bus = Bus(parties)
    model = []
    for rnd, posts in enumerate(posted, 1):
        for sender, kind, body, to in posts:
            bus.post(sender, kind, body, to=to)
            assert bus.round_no == rnd  # the round opened with its first post
        assert bus.round_no == (rnd if posts else rnd - 1)
        model.append(_model_round(rnd, posts))
        assert bus.end_round() == model[-1]
        assert bus.round_no == rnd
    assert bus.rounds == model
    assert list(bus.messages()) == [m for msgs in model for m in msgs]

    sent, received = _model_accounting(parties, model)
    assert bus.sent == sent
    assert bus.traffic_report() == [
        {"party": p, "round": r, "sent": sent.get((p, r), 0), "received": received.get((p, r), 0)}
        for r in range(1, len(model) + 1)
        for p in parties
        if sent.get((p, r)) or received.get((p, r))
    ]
    assert bus.transcript_jsonl() == _model_transcript(model)


@settings(max_examples=100, deadline=None)
@given(_ceremonies(), st.data())
def test_bus_gives_back_party_ids_of_any_order_and_width(ceremony, data):
    # a closed round holds positions in Bus.parties, not IDs: IDs in no
    # particular order, and wider than any column, come back as posted
    parties, posted = ceremony
    ids = data.draw(
        st.lists(st.integers(0, 2**70), min_size=len(parties), max_size=len(parties), unique=True)
    )
    relabel = dict(zip(parties, ids))
    bus = Bus(ids)
    model = []
    for rnd, posts in enumerate(posted, 1):
        posts = [(relabel[s], k, body, relabel.get(to)) for s, k, body, to in posts]
        for sender, kind, body, to in posts:
            bus.post(sender, kind, body, to=to)
        bus.end_round()
        model.append(_model_round(rnd, posts))
    assert bus.rounds == model

    sent, received = _model_accounting(ids, model)
    assert bus.sent == sent
    assert bus.traffic_report() == [
        {"party": p, "round": r, "sent": sent.get((p, r), 0), "received": received.get((p, r), 0)}
        for r in range(1, len(model) + 1)
        for p in ids
        if sent.get((p, r)) or received.get((p, r))
    ]
    assert bus.transcript_jsonl() == _model_transcript(model)


# ---------------------------------------------------------------------------
# layout: a closed round is columns, not one container per message
# ---------------------------------------------------------------------------

def _tracked_containers(bus: Bus) -> int:
    """gc-tracked objects reachable from the bus's own attributes."""
    seen, stack, count = set(), list(vars(bus).values()), 1  # 1: the attribute dict
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
            stack.extend(gc.get_referents(obj))
    return count


def _held_bytes(bus: Bus) -> int:
    """sys.getsizeof of every distinct object the closed rounds hold:
    each round's fields, and the elements of those that are tuples."""
    seen, total = set(), 0
    for closed in bus._closed:
        for field in closed:
            for obj in (field, *(field if isinstance(field, tuple) else ())):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    total += sys.getsizeof(obj)
    return total


def test_closed_bus_holds_containers_per_round_not_per_message(monkeypatch):
    _, result = netsim.build_pda_system(kappa=16, n=12, theta_min=3, seed=15)
    bus = result.bus
    rounds = result.round_count
    messages = sum(len(msgs) for msgs in bus.rounds)
    assert messages == 12 * 11 * 10 + 12  # shares of degrees 3..12, and the ring round
    # a round is one record of seven columns: five arrays, which the gc
    # tracks, a tuple of the round's kinds, which it stops tracking once
    # it has seen that the tuple holds only strings, and the packed values;
    # the bus adds its dict, round list and parties
    assert _tracked_containers(bus) <= 6 * rounds + 3 < messages // 10
    # no int object per body value and a byte a header: 17.4 B a message
    assert _held_bytes(bus) <= 20 * messages

    expected = (bus.sent, bus.traffic_report(), list(bus.messages()), bus.transcript_jsonl())

    def rebuilt(self):
        raise AssertionError("Bus.rounds rebuilt the transcript")

    monkeypatch.setattr(Bus, "rounds", property(rebuilt))
    with pytest.raises(AssertionError):
        bus.rounds
    assert result.round_count == rounds
    assert (bus.sent, bus.traffic_report(), list(bus.messages()), bus.transcript_jsonl()) == expected


def test_bus_refuses_a_negative_body_value():
    bus = Bus([0, 1, 2])
    bus.post(1, "share", (0, 7), to=2)
    bus.end_round()
    bus.post(1, "share", (5,), to=0)
    bus.post(2, "share", (0, -1))
    with pytest.raises(ValueError, match="round 2: party 2 posted a negative value"):
        bus.end_round()
    assert bus.rounds == [[Message(1, 1, "share", (0, 7), 2)]]
    assert bus.sent == {(1, 1): 2}


def test_bus_refuses_a_party_it_does_not_have():
    bus = Bus([0, 1, 2])
    bus.post(1, "share", (7,), to=2)
    bus.end_round()
    with pytest.raises(ValueError, match="round 2: sender 3 is not a party of the bus"):
        bus.post(3, "share", (5,))
    with pytest.raises(ValueError, match="round 2: recipient 4 is not a party of the bus"):
        bus.post(1, "share", (5,), to=4)
    assert bus.round_no == 1  # a refused post opens no round
    bus.post(2, "share", (5,), to=0)
    bus.end_round()
    assert bus.rounds == [
        [Message(1, 1, "share", (7,), 2)],
        [Message(2, 2, "share", (5,), 0)],
    ]
