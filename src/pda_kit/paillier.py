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

The aggregator decrypts by CRT (Paillier, EUROCRYPT '99, section 7):
m_p = L_p(c^{p-1} mod p^2) * h_p mod p with L_p(x) = (x - 1)/p, the same
mod q^2, then m from (m_p, m_q).  Writing c = (1+n)^m r^n, r^{n(p-1)} = 1
mod p^2 and (1+n)^{m(p-1)} = 1 + m(p-1)n mod p^2, so L_p(...) = -mq mod p
and h_p = L_p(g^{p-1} mod p^2)^-1 = -q^-1 mod p (h_q = -p^-1 mod q): each
half is one exponent of |p| bits modulo p^2.  A key file holds (n, lambda,
mu); p and q are recovered from lambda on load.

The two halves, and a user's batch of encryptions or scales
(`encrypt_many`, `scale_many`), are independent exponentiations, taken
as one `numtheory.pows` batch, which spreads wide ones over the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidCiphertext, InvalidKey, MessageTooLarge, hex_field
from .numtheory import SMALL_PRIMES, _search_rounds, is_probable_prime, mod_inv, pow, pows
from .rng import Rng


@dataclass(frozen=True)
class AggPublicKey:
    n: int

    @property
    def nsq(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class AggKeyPair:
    """Keypair with g = n+1; lam = lcm(p-1, q-1), mu = lam^-1 mod n, n = pq, p < q."""

    n: int
    lam: int
    mu: int
    p: int
    q: int

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
    return AggKeyPair(n=n, lam=lam, mu=mod_inv(lam, n), p=min(p, q), q=max(p, q))


def _random_prime(bits: int, rng: Rng) -> int:
    rounds = _search_rounds(bits)
    while True:
        cand = rng.odd_with_top_bit(bits)
        if is_probable_prime(cand, rounds):
            return cand


def keygen(bits: int, rng: Rng) -> AggKeyPair:
    """Standard keypair with an exactly `bits`-bit modulus."""
    if bits < 6:
        raise ValueError("modulus below 6 bits is meaningless")
    half = (bits + 1) // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half + 1, rng)
        if (p * q).bit_length() != bits:
            continue
        try:
            return from_primes(p, q)
        except ValueError:
            continue


def required_bits(outer_modulus: int, m_max: int) -> int:
    """Minimum |n| so that m_max blinded terms, each below N^2, never wrap."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return 2 * outer_modulus.bit_length() + (m_max - 1).bit_length() + 1


def encrypt_many(pk: AggPublicKey, ms: Sequence[int], rng: Rng) -> list[int]:
    """[(1 + m*n) * r^n mod n^2 for m in ms], one unit r drawn from `rng`
    for each in turn, every plaintext checked before the first draw, and
    the r^n powers as one `pows` batch."""
    if not all(0 <= m < pk.n for m in ms):
        raise MessageTooLarge(f"plaintext needs 0 <= m < {pk.n}")
    nsq = pk.nsq
    rs = [rng.unit(pk.n) for _ in ms]
    masks = pows([(r, pk.n, nsq) for r in rs])
    return [(1 + m * pk.n) % nsq * mask % nsq for m, mask in zip(ms, masks)]


def decrypt(keys: AggKeyPair, ct: int) -> int:
    if not 0 < ct < keys.nsq or math.gcd(ct, keys.n) != 1:
        raise InvalidCiphertext("ciphertext is not a unit of Z_{n^2}")
    p, q = keys.p, keys.q
    h_p, p_inv = -mod_inv(q, p) % p, mod_inv(p, q)  # h_q = -p^-1 mod q
    x_p, x_q = pows([(ct, p - 1, p * p), (ct, q - 1, q * q)])
    m_p = (x_p - 1) // p * h_p % p
    m_q = (x_q - 1) // q * -p_inv % q
    return m_p + p * ((m_q - m_p) * p_inv % q)


def scale_many(pk: AggPublicKey, terms: Sequence[tuple[int, int]]) -> list[int]:
    """[ct^k mod n^2 for ct, k in terms], which encrypt k times ct's plaintext, as one `pows`."""
    if any(k < 0 for _, k in terms):
        raise ValueError("negative scalars must be sign-normalized first")
    return pows([(ct, k, pk.nsq) for ct, k in terms])


def to_json(keys: AggKeyPair) -> dict:
    return {
        "n_a": format(keys.n, "x"),
        "lambda": format(keys.lam, "x"),
        "mu": format(keys.mu, "x"),
    }


def from_json(doc: dict) -> AggKeyPair:
    """A keypair whose mu inverts lambda mod n and whose lambda splits n
    into p < q with lcm(p-1, q-1) | lambda (InvalidKey if not)."""
    n = hex_field(doc, "n_a")
    if n < 2:
        raise InvalidKey("aggregator key: n_a is below 2")
    lam, mu = hex_field(doc, "lambda"), hex_field(doc, "mu")
    if mu * lam % n != 1:  # also refuses a lambda that shares a factor with n
        raise InvalidKey("aggregator key: mu * lambda is not 1 mod n")
    p = _split(n, lam)
    q = n // p
    if p == q or lam % math.lcm(p - 1, q - 1):  # p == q: n = 4 passes the rest
        raise InvalidKey("aggregator key: lambda is not a multiple of lcm(p-1, q-1), p < q")
    return AggKeyPair(n=n, lam=lam, mu=mu, p=p, q=q)


def _split(n: int, lam: int) -> int:
    """The smaller factor of n that lambda reveals (InvalidKey if none).

    Miller's split (JCSS 1976): write lambda = 2^s t with t odd.  When
    lambda is a multiple of lcm(p-1, q-1), the chain a^t, a^2t, ...,
    a^lambda mod n ends in 1, and a square root of 1 other than +-1 on
    it gives the factor gcd(x - 1, n).  Each base splits n with
    probability at least 1/2; a chain that does not end in 1 shows that
    lambda is wrong.
    """
    if lam < 1:
        raise InvalidKey("aggregator key: lambda is not positive")
    t, s = lam, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    for a in SMALL_PRIMES:
        if a >= n:
            break
        if n % a == 0:
            return a
        x = pow(a, t, n)
        for _ in range(s):
            y = x * x % n
            if y == 1 and x != 1 and x != n - 1:
                g = math.gcd(x - 1, n)
                return min(g, n // g)
            x = y
        if x != 1:
            raise InvalidKey(f"aggregator key: {a}^lambda is not 1 mod n")
    raise InvalidKey("aggregator key: lambda does not split n")
