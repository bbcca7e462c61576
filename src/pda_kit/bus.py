"""Deterministic in-memory Dolev-Yao broadcast network.

Every message posted in a round is delivered to every party; the `to`
field is routing metadata for byte accounting, not confidentiality.
Rounds are synchronous barriers and messages are ordered by (sender,
recipient, kind) inside a round, so a transcript is a pure function of
the ceremony inputs.  The stored rounds are the one record of the wire:
they are what any eavesdropper sees, and byte accounting is derived
from them when it is asked for.

A closed round is kept as flat columns, not as one `Message` per message
or one int per value: at n=64 the full-degree keygen closes 250,048
messages, and per-message containers and int objects cost more than the
bytes they hold.  The headers are narrow arrays: the sender as its
position in `Bus.parties`, the recipient as its position + 1 (0 for a
broadcast), the kind as an index into the round's tuple of distinct
kinds, the body length and the hex length of every body value, each
column in the narrowest unsigned array typecode that holds its largest
entry.  The values are packed into one little-endian byte run, a value
of hex length h taking (h + 1) // 2 bytes, and byte accounting sums the
hex lengths.  `Message`s are rebuilt when a reader asks for them.  A
sender or an addressed recipient must be a party of the bus, and body
values are non-negative; a round holding a negative one is refused when
it closes.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import IncompleteGroup, UnexpectedMessage


def _hex_len(value: int) -> int:
    """Length of the lowercase big-endian hex serialization, in bytes."""
    return max(1, (value.bit_length() + 3) // 4)


class Message(NamedTuple):
    """One message on the wire; an immutable record."""

    round_no: int
    sender: int
    kind: str
    body: tuple[int, ...]
    to: int | None = None  # None = broadcast


def _delivery_order(msg: Message) -> tuple:
    return (msg.sender, -1 if msg.to is None else msg.to, msg.kind)


_SENDER, _KIND, _BODY, _TO = map(itemgetter, range(1, 5))  # of a Message, or a tuple in its order

# (bound, typecode) of the unsigned array typecodes, narrowest first
_WIDTHS = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")


def _narrow(column: list[int]) -> array:
    """`column` in the narrowest unsigned array typecode that holds its largest entry."""
    top = max(column, default=0)
    return array(next(code for bound, code in _WIDTHS if top < bound), column)


class _Round(NamedTuple):
    """One closed round as columns, in delivery order.

    With `parties` the bus's, message i is from parties[senders[i]], to
    parties[recipients[i] - 1] or, when recipients[i] is 0, a broadcast,
    of kind kinds[kind_ids[i]], with the next lengths[i] values as its
    body.  Value k has hex length hexlens[k] and takes the next
    (hexlens[k] + 1) >> 1 bytes of `packed`, little-endian.  `kinds`
    holds the round's distinct kinds in order of first appearance; the
    other columns but `packed` are arrays of the narrowest unsigned
    typecode that holds their largest entry.
    """

    senders: array
    recipients: array
    kind_ids: array
    kinds: tuple[str, ...]
    lengths: array
    hexlens: array
    packed: bytes

    @classmethod
    def of(
        cls, ordered: list[Message], senders: dict[int, int], recipients: dict[int | None, int]
    ) -> "_Round":
        """The round's columns, `senders` and `recipients` giving each party's
        entry in its column; OverflowError if a body value is negative."""
        bodies = tuple(map(_BODY, ordered))
        values = list(chain.from_iterable(bodies))
        hexlens = [(b + 3) >> 2 or 1 for b in map(int.bit_length, values)]  # _hex_len, inlined
        kinds = tuple(dict.fromkeys(map(_KIND, ordered)))
        kind_ids = {kind: i for i, kind in enumerate(kinds)}
        return cls(
            _narrow(list(map(senders.__getitem__, map(_SENDER, ordered)))),
            _narrow(list(map(recipients.__getitem__, map(_TO, ordered)))),
            _narrow(list(map(kind_ids.__getitem__, map(_KIND, ordered)))),
            kinds,
            _narrow(list(map(len, bodies))),
            _narrow(hexlens),
            b"".join([v.to_bytes((h + 1) >> 1, "little") for v, h in zip(values, hexlens)]),
        )

    def messages(self, rnd: int, parties: tuple[int, ...]) -> Iterator[Message]:
        """The round's messages rebuilt, in delivery order; `rnd` is its
        number and `parties` the bus's."""
        packed, values, start = self.packed, [], 0
        for h in self.hexlens:
            end = start + ((h + 1) >> 1)
            values.append(int.from_bytes(packed[start:end], "little"))
            start = end
        unread = iter(values)
        for sender, to, kind, length in self.headers(parties):
            yield Message(rnd, sender, kind, tuple(islice(unread, length)), to)

    def headers(self, parties: tuple[int, ...]) -> Iterator[tuple[int, int | None, str, int]]:
        """(sender, recipient or None, kind, body length) of each message, in delivery order."""
        recipients, kinds = (None, *parties), self.kinds
        for s, r, k, length in zip(self.senders, self.recipients, self.kind_ids, self.lengths):
            yield parties[s], recipients[r], kinds[k], length


class Bus:
    def __init__(self, parties: Sequence[int]):
        self.parties = tuple(parties)
        # each party's entry in a closed round's sender and recipient columns
        self._senders = {party: i for i, party in enumerate(self.parties)}
        self._recipients = {party: i for i, party in enumerate((None, *self.parties))}
        self._closed: list[_Round] = []
        self._pending: list[Message] = []  # the open round's posts

    # --- round lifecycle ---------------------------------------------------
    # A round opens with its first post and closes with `deliver`.

    @property
    def round_no(self) -> int:
        return len(self._closed) + (1 if self._pending else 0)

    def post(self, sender: int, kind: str, body: Sequence[int], to: int | None = None) -> None:
        rnd = len(self._closed) + 1
        if sender not in self._senders:
            raise ValueError(f"round {rnd}: sender {sender} is not a party of the bus")
        if to not in self._recipients:
            raise ValueError(f"round {rnd}: recipient {to} is not a party of the bus")
        self._pending.append(Message(rnd, sender, kind, tuple(map(int, body)), to))

    def end_round(self) -> list[Message]:
        """Closes the open round, or an empty one if nothing was posted."""
        ordered = sorted(self._pending, key=_delivery_order)
        try:
            closed = _Round.of(ordered, self._senders, self._recipients)
        except OverflowError:
            for msg in ordered:
                if any(v < 0 for v in msg.body):
                    raise ValueError(
                        f"round {msg.round_no}: party {msg.sender} posted a negative value"
                    ) from None
            raise
        self._pending = []
        self._closed.append(closed)
        return ordered

    def shape(self, entries: Iterable[tuple[int, int | None, str, int]]) -> _Round:
        """Headers of the round `deliver` expects: one per (sender, to, kind, body length)."""
        heads = sorted([(s, -1 if to is None else to, kind, n) for s, to, kind, n in entries])
        rows = [(0, s, kind, (), None if to < 0 else to) for s, to, kind, _ in heads]  # no bodies
        shape = _Round.of(rows, self._senders, self._recipients)  # in `_delivery_order`
        return shape._replace(lengths=_narrow([head[3] for head in heads]))

    def deliver(self, shape: _Round, missing: type = IncompleteGroup) -> list[Message]:
        """`end_round`, once its headers are `shape`'s: `missing` names a message
        the round lacks, UnexpectedMessage one it repeats or `shape` does not hold."""
        delivered = self.end_round()
        if self._closed[-1][:5] != shape[:5]:  # column by column, with no pass over the messages
            want, got = (Counter(r.headers(self.parties)) for r in (shape, self._closed[-1]))
            arrived = {head[:3] for head in got}
            lost = [head for head in want if head[:3] not in arrived]
            for sender, to, kind, length in lost or got - want:  # the first fault, a loss first
                message = f"'{kind}' message" + ("" if to is None else f" to user {to}")
                if lost:
                    raise missing(f"user {sender}: no {message}")
                fault = "repeated" if want[sender, to, kind, length] else "unexpected"
                raise UnexpectedMessage(f"user {sender}: {fault} {message} (body length {length})")
        return delivered

    # --- queries -------------------------------------------------------------

    @property
    def rounds(self) -> list[list[Message]]:
        """Every closed round's messages in delivery order, rebuilt on each read."""
        return [
            list(closed.messages(rnd, self.parties)) for rnd, closed in enumerate(self._closed, 1)
        ]

    def messages(self) -> Iterator[Message]:
        for rnd, closed in enumerate(self._closed, 1):
            yield from closed.messages(rnd, self.parties)

    # --- accounting / export --------------------------------------------------

    def _tally(self) -> tuple[Counter, Counter]:
        """Bytes sent and received per (party, round), in one pass over the rounds.

        A broadcast reaches every party of the bus but its sender; an
        addressed message reaches its `to`.
        """
        sent: Counter = Counter()
        received: Counter = Counter()
        parties = self.parties
        for rnd, closed in enumerate(self._closed, 1):
            bcast, own = 0, Counter()
            sizes = iter(closed.hexlens)
            for s, r, length in zip(closed.senders, closed.recipients, closed.lengths):
                size = sum(islice(sizes, length))
                sender = parties[s]
                sent[sender, rnd] += size
                if r:
                    received[parties[r - 1], rnd] += size
                else:
                    bcast += size
                    own[sender] += size
            if bcast:
                for party in parties:
                    received[party, rnd] += bcast - own[party]
        return sent, received

    @property
    def sent(self) -> dict[tuple[int, int], int]:
        """Bytes each sender put on the wire: {(party, round): bytes}."""
        return dict(self._tally()[0])

    def traffic_report(self) -> list[dict]:
        sent, received = self._tally()
        rows = []
        for rnd in range(1, len(self._closed) + 1):
            for party in self.parties:
                out, inc = sent[party, rnd], received[party, rnd]
                if out or inc:
                    rows.append({"party": party, "round": rnd, "sent": out, "received": inc})
        return rows

    def transcript_jsonl(self) -> str:
        lines = []
        for msg in self.messages():
            lines.append(
                json.dumps(
                    {
                        "round": msg.round_no,
                        "from": msg.sender,
                        "to": msg.to,
                        "kind": msg.kind,
                        "body": [format(v, "x") for v in msg.body],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class CeremonyResult:
    """Transcript plus per-party outputs of one simulated ceremony."""

    outputs: object
    bus: Bus

    @property
    def round_count(self) -> int:
        return len(self.bus._closed)

    def transcript_jsonl(self) -> str:
        return self.bus.transcript_jsonl()

    def traffic_report(self) -> list[dict]:
        return self.bus.traffic_report()
