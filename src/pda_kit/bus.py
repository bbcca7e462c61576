"""Deterministic in-memory Dolev-Yao broadcast network.

Every message posted in a round is delivered to every party and every
observer tap; the `to` field is routing metadata for byte accounting,
not confidentiality.  Rounds are synchronous barriers and messages are
ordered by (sender, recipient, kind) inside a round, so a transcript is
a pure function of the ceremony inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence


def hex_len(value: int) -> int:
    """Length of the lowercase big-endian hex serialization, in bytes."""
    return max(1, (value.bit_length() + 3) // 4)


@dataclass(frozen=True)
class Message:
    round_no: int
    sender: int
    kind: str
    body: tuple[int, ...]
    to: int | None = None  # None = broadcast

    @property
    def payload_bytes(self) -> int:
        return sum(hex_len(v) for v in self.body)


class Observer:
    """Adversary tap: records everything that crosses the wire."""

    def __init__(self, name: str = "observer"):
        self.name = name
        self.messages: list[Message] = []

    def deliver(self, msg: Message) -> None:
        self.messages.append(msg)

    def of_kind(self, kind: str) -> list[Message]:
        return [m for m in self.messages if m.kind == kind]


class Bus:
    def __init__(self, parties: Sequence[int], observers: Sequence[Observer] = ()):
        self.parties = tuple(parties)
        self.observers = list(observers)
        self.rounds: list[list[Message]] = []
        self._pending: list[Message] | None = None
        self.sent: dict[tuple[int, int], int] = {}
        # broadcast bytes are delivered to everyone else; accounting keeps
        # per-round totals so delivery never loops over the whole roster
        self._bcast_total: dict[int, int] = {}
        self._bcast_by_sender: dict[tuple[int, int], int] = {}
        self._addressed: dict[tuple[int, int], int] = {}

    # --- round lifecycle ---------------------------------------------------

    @property
    def round_no(self) -> int:
        return len(self.rounds) + (1 if self._pending is not None else 0)

    def begin_round(self) -> int:
        if self._pending is not None:
            raise RuntimeError("previous round still open")
        self._pending = []
        return self.round_no

    def post(self, sender: int, kind: str, body: Sequence[int], to: int | None = None) -> None:
        if self._pending is None:
            raise RuntimeError("no open round")
        msg = Message(
            round_no=self.round_no,
            sender=sender,
            kind=kind,
            body=tuple(int(v) for v in body),
            to=to,
        )
        self._pending.append(msg)

    def end_round(self) -> list[Message]:
        if self._pending is None:
            raise RuntimeError("no open round")
        ordered = sorted(
            self._pending,
            key=lambda m: (m.sender, -1 if m.to is None else m.to, m.kind),
        )
        self._pending = None
        self.rounds.append(ordered)
        rnd = len(self.rounds)
        for msg in ordered:
            size = msg.payload_bytes
            key = (msg.sender, rnd)
            self.sent[key] = self.sent.get(key, 0) + size
            if msg.to is None:
                self._bcast_total[rnd] = self._bcast_total.get(rnd, 0) + size
                self._bcast_by_sender[key] = self._bcast_by_sender.get(key, 0) + size
            else:
                rkey = (msg.to, rnd)
                self._addressed[rkey] = self._addressed.get(rkey, 0) + size
            for obs in self.observers:
                obs.deliver(msg)
        return ordered

    # --- queries -------------------------------------------------------------

    def messages(self) -> Iterator[Message]:
        for rnd in self.rounds:
            yield from rnd

    # --- accounting / export --------------------------------------------------

    def received_bytes(self, party: int, rnd: int) -> int:
        bcast = self._bcast_total.get(rnd, 0) - self._bcast_by_sender.get((party, rnd), 0)
        return bcast + self._addressed.get((party, rnd), 0)

    def sent_total(self, party: int) -> int:
        return sum(v for (p, _), v in self.sent.items() if p == party)

    def traffic_report(self) -> list[dict]:
        rows = []
        for rnd in range(1, len(self.rounds) + 1):
            for party in self.parties:
                sent = self.sent.get((party, rnd), 0)
                recv = self.received_bytes(party, rnd)
                if sent or recv:
                    rows.append(
                        {"party": party, "round": rnd, "sent": sent, "received": recv}
                    )
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
    seed: int | str | bytes | None = None

    @property
    def round_count(self) -> int:
        return len(self.bus.rounds)

    def transcript_jsonl(self) -> str:
        return self.bus.transcript_jsonl()

    def traffic_report(self) -> list[dict]:
        return self.bus.traffic_report()
