"""Additively homomorphic cryptosystem used by the aggregator.

Ciphertexts are plain ints in Z_{n^2}* with the usual identities
E(m1)*E(m2) = E(m1+m2) and E(m)^a = E(m*a).  The generator is fixed to
n+1, so encryption uses (1+n)^m = 1 + m*n (mod n^2) without a modexp.

The aggregator's modulus must be wide enough that the integer sum of all
blinded term plaintexts never wraps.  User 1 scales each user-2 encoding
C < N once, by a scalar e < N that already holds the coefficient, so a
term plaintext is C*e < N^2 and m_max terms sum below m_max*N^2 <
2^(2*|N| + ceil(log2 m_max)).  A modulus of 2*|N| + ceil(log2 m_max) + 1
bits is at least that large (see `required_bits`), and the final
reduction mod N then recovers the exact polynomial value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidCiphertext, InvalidKey, MessageTooLarge, hex_field
from .numtheory import is_probable_prime, mod_inv
from .rng import Rng


@dataclass(frozen=True)
class AggPublicKey:
    n: int

    @property
    def nsq(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class AggKeyPair:
    """Keypair with g = n+1; lam = lcm(p-1, q-1), mu = lam^-1 mod n."""

    n: int
    lam: int
    mu: int

    def public(self) -> AggPublicKey:
        return AggPublicKey(n=self.n)

    @property
    def nsq(self) -> int:
        return self.n * self.n


def from_primes(p: int, q: int) -> AggKeyPair:
    if p == q:
        raise ValueError("factors must be distinct")
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    if math.gcd(lam, n) != 1:
        raise ValueError("lcm(p-1, q-1) shares a factor with n")
    return AggKeyPair(n=n, lam=lam, mu=mod_inv(lam, n))


def _random_prime(bits: int, rng: Rng) -> int:
    while True:
        cand = rng.odd_with_top_bit(bits)
        if is_probable_prime(cand):
            return cand


def keygen(bits: int, rng: Rng) -> AggKeyPair:
    """Standard keypair with an exactly `bits`-bit modulus."""
    if bits < 6:
        raise ValueError("modulus below 6 bits is meaningless")
    half = (bits + 1) // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half + 1, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = math.lcm(p - 1, q - 1)
        if math.gcd(lam, n) != 1:
            continue
        return AggKeyPair(n=n, lam=lam, mu=mod_inv(lam, n))


def required_bits(outer_modulus: int, m_max: int) -> int:
    """Minimum |n| so that m_max blinded terms, each below N^2, never wrap."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return 2 * outer_modulus.bit_length() + (m_max - 1).bit_length() + 1


def encrypt(pk: AggPublicKey, m: int, rng: Rng | None = None, r: int | None = None) -> int:
    if not 0 <= m < pk.n:
        raise MessageTooLarge(f"plaintext needs 0 <= m < {pk.n}")
    if r is None:
        if rng is None:
            raise ValueError("provide rng or an explicit randomizer")
        r = rng.unit(pk.n)
    if math.gcd(r, pk.n) != 1:
        raise ValueError("randomizer must be a unit")
    nsq = pk.nsq
    return (1 + m * pk.n) % nsq * pow(r, pk.n, nsq) % nsq


def decrypt(keys: AggKeyPair, ct: int) -> int:
    nsq = keys.nsq
    if not 0 < ct < nsq or math.gcd(ct, keys.n) != 1:
        raise InvalidCiphertext("ciphertext is not a unit of Z_{n^2}")
    u = pow(ct, keys.lam, nsq)
    return (u - 1) // keys.n * keys.mu % keys.n


def scale(pk: AggPublicKey, ct: int, k: int) -> int:
    if k < 0:
        raise ValueError("negative scalars must be sign-normalized first")
    return pow(ct, k, pk.nsq)


def to_json(keys: AggKeyPair, private: bool = True) -> dict:
    doc = {"n_a": format(keys.n, "x")}
    if private:
        doc["lambda"] = format(keys.lam, "x")
        doc["mu"] = format(keys.mu, "x")
    return doc


def from_json(doc: dict) -> AggKeyPair | AggPublicKey:
    """A public key, or a private one whose mu inverts lambda mod n (InvalidKey if not)."""
    n = hex_field(doc, "n_a")
    if "lambda" not in doc:
        return AggPublicKey(n=n)
    keys = AggKeyPair(n=n, lam=hex_field(doc, "lambda"), mu=hex_field(doc, "mu"))
    if keys.mu * keys.lam % n != 1:  # also refuses a lambda that shares a factor with n
        raise InvalidKey("aggregator key: mu * lambda is not 1 mod n")
    return keys
