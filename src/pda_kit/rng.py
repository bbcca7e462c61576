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
    """SHA-256 counter-mode byte stream."""

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
        buffer = self._buffer
        while len(buffer) < n:
            buffer += hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        self._buffer = buffer[n:]
        return buffer[:n]

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
        if bits < 2:
            raise ValueError("need at least 2 bits")
        return (1 << (bits - 1)) | self.getrandbits(bits - 1) | 1

    def unit(self, modulus: int) -> int:
        """Random element of [1, modulus) coprime to the modulus."""
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        while True:
            v = self.randrange(1, modulus)
            if math.gcd(v, modulus) == 1:
                return v
