"""Deterministic in-memory Dolev-Yao broadcast network.

Every message posted in a round is delivered to every party; the `to`
field is routing metadata for byte accounting, not confidentiality.
Rounds are synchronous barriers and messages are ordered by (sender,
recipient, kind) inside a round, so a transcript is a pure function of
the ceremony inputs.  The stored rounds are the one record of the wire:
they are what any eavesdropper sees, and byte accounting is derived
from them when it is asked for.

A closed round is kept as columns (senders, recipients, kinds, body
lengths, the hex length of every body value, and the values packed into
one little-endian byte run), not as one `Message` per message or one int
per value: at n=64 the full-degree keygen closes 250,048 messages, and
per-message containers and int objects cost more than the bytes they
hold.  A value of hex length h takes (h + 1) // 2 bytes of the run, and
byte accounting sums the hex lengths.  `Message`s are rebuilt when a
reader asks for them.  Body values are non-negative; a round holding a
negative one is refused when it closes.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence


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


_SENDER, _TO, _KIND, _BODY = map(attrgetter, ("sender", "to", "kind", "body"))


class _Round(NamedTuple):
    """One closed round as columns, in delivery order.

    Message i is (senders[i], recipients[i], kinds[i]) with the next
    lengths[i] values as its body; a recipient of None is a broadcast,
    distinct from party 0.  Value k has hex length hexlens[k] and takes
    the next (hexlens[k] + 1) >> 1 bytes of `packed`, little-endian.
    """

    senders: tuple[int, ...]
    recipients: tuple[int | None, ...]
    kinds: tuple[str, ...]
    lengths: array
    hexlens: array
    packed: bytes

    @classmethod
    def of(cls, ordered: list[Message]) -> "_Round":
        """The round's columns; OverflowError if a body value is negative."""
        bodies = tuple(map(_BODY, ordered))
        values = list(chain.from_iterable(bodies))
        hexlens = [(b + 3) >> 2 or 1 for b in map(int.bit_length, values)]  # _hex_len, inlined
        return cls(
            tuple(map(_SENDER, ordered)),
            tuple(map(_TO, ordered)),
            tuple(map(_KIND, ordered)),
            array("I", map(len, bodies)),
            array("I", hexlens),
            b"".join([v.to_bytes((h + 1) >> 1, "little") for v, h in zip(values, hexlens)]),
        )

    def messages(self, rnd: int) -> Iterator[Message]:
        """The round's messages rebuilt, in delivery order; `rnd` is its number."""
        packed, values, start = self.packed, [], 0
        for h in self.hexlens:
            end = start + ((h + 1) >> 1)
            values.append(int.from_bytes(packed[start:end], "little"))
            start = end
        unread = iter(values)
        columns = zip(self.senders, self.recipients, self.kinds, self.lengths)
        for sender, to, kind, length in columns:
            yield Message(rnd, sender, kind, tuple(islice(unread, length)), to)


class Bus:
    def __init__(self, parties: Sequence[int]):
        self.parties = tuple(parties)
        self._closed: list[_Round] = []
        self._pending: list[Message] | None = None

    # --- round lifecycle ---------------------------------------------------

    @property
    def round_no(self) -> int:
        return len(self._closed) + (1 if self._pending is not None else 0)

    def begin_round(self) -> int:
        if self._pending is not None:
            raise RuntimeError("previous round still open")
        self._pending = []
        return self.round_no

    def post(self, sender: int, kind: str, body: Sequence[int], to: int | None = None) -> None:
        if self._pending is None:
            raise RuntimeError("no open round")
        rnd = len(self._closed) + 1
        self._pending.append(Message(rnd, sender, kind, tuple(map(int, body)), to))

    def end_round(self) -> list[Message]:
        if self._pending is None:
            raise RuntimeError("no open round")
        ordered = sorted(self._pending, key=_delivery_order)
        try:
            closed = _Round.of(ordered)
        except OverflowError:
            for msg in ordered:
                if any(v < 0 for v in msg.body):
                    raise ValueError(
                        f"round {msg.round_no}: party {msg.sender} posted a negative value"
                    ) from None
            raise
        self._pending = None
        self._closed.append(closed)
        return ordered

    # --- queries -------------------------------------------------------------

    @property
    def rounds(self) -> list[list[Message]]:
        """Every closed round's messages in delivery order, rebuilt on each read."""
        return [list(closed.messages(rnd)) for rnd, closed in enumerate(self._closed, 1)]

    def messages(self) -> Iterator[Message]:
        for rnd, closed in enumerate(self._closed, 1):
            yield from closed.messages(rnd)

    # --- accounting / export --------------------------------------------------

    def _tally(self) -> tuple[Counter, Counter]:
        """Bytes sent and received per (party, round), in one pass over the rounds.

        A broadcast reaches every party of the bus but its sender; an
        addressed message reaches its `to`.
        """
        sent: Counter = Counter()
        received: Counter = Counter()
        for rnd, closed in enumerate(self._closed, 1):
            bcast, own = 0, Counter()
            sizes = iter(closed.hexlens)
            for sender, to, length in zip(closed.senders, closed.recipients, closed.lengths):
                size = sum(islice(sizes, length))
                sent[sender, rnd] += size
                if to is None:
                    bcast += size
                    own[sender] += size
                else:
                    received[to, rnd] += size
            if bcast:
                for party in self.parties:
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
