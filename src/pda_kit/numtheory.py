"""Modular big-integer substrate shared by both aggregation schemes.

Covers probabilistic prime generation (safe primes and correlated
semiprimes), denominator-cleared Lagrange weights, the (1+M)-subgroup
discrete log, the deterministic hash into the hidden subgroup, and the
two key ceremonies both schemes run on the bus: the ring exchange and
the blinded (1+M)-power share exchange.  The schemes differ only in the
ring (p^2(p-1)^2 or N~^2) and in what they feed these ceremonies.
All values are plain Python ints; modular results are reduced into
[0, modulus).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .bus import Bus
from .errors import (
    DuplicateId,
    ExtractionFailed,
    NonInvertibleBroadcast,
    NotInSubgroup,
    NotInvertible,
    PartyMissing,
    StrictChainNotFound,
)
from .rng import Rng

MILLER_RABIN_ROUNDS = 64

# Primes below 2000 for trial-division prefilters.
def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = _sieve(2000)


# ---------------------------------------------------------------------------
# modular helpers
# ---------------------------------------------------------------------------

def mod_inv(a: int, modulus: int) -> int:
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise NotInvertible(f"gcd({a % modulus}, {modulus}) != 1") from exc


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def _mr_bases(n: int, rounds: int) -> Iterable[int]:
    # Bases derived from the candidate itself keep the test deterministic
    # across runs without threading an rng through every call site.
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    stream = hashlib.shake_256(b"pda-kit/mr/v1:" + seed).digest(rounds * 8)
    span = n - 3
    for i in range(rounds):
        chunk = int.from_bytes(stream[i * 8 : (i + 1) * 8], "big")
        yield 2 + chunk % span


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _mr_bases(n, rounds):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SafePrimePair:
    """p = 2*p_prime + 1 with both members probable primes."""

    p: int
    p_prime: int


def gen_safe_prime(bits: int, rng: Rng) -> SafePrimePair:
    """Search for a safe prime of exactly `bits` bits.

    Candidates restart at a fresh random point every iteration to avoid
    the bias of increment-only scans.  Deterministic given the stream.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")
    while True:
        q = rng.odd_with_top_bit(bits - 1)
        p = 2 * q + 1
        ok = True
        for sp in SMALL_PRIMES:
            if q % sp == 0 and q != sp:
                ok = False
                break
            if p % sp == 0 and p != sp:
                ok = False
                break
        if not ok:
            continue
        if is_probable_prime(q) and is_probable_prime(p):
            return SafePrimePair(p=p, p_prime=q)


# ---------------------------------------------------------------------------
# correlated semiprime moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedModuli:
    """Semiprimes N and N~ with N~ | phi(N).

    The prime factors are ephemeral: setup verifies the invariants with
    them and then drops this object, keeping only (N, N~, k_cofactor).
    """

    n: int
    n_tilde: int
    k_cofactor: int
    p: int
    q: int
    p_tilde: int
    q_tilde: int


def lift_correlated_prime(p_tilde: int, start: int = 2) -> tuple[int, int]:
    """Smallest multiplier a >= start with p = 2*a*p_tilde + 1 prime."""
    a = start
    while True:
        cand = 2 * a * p_tilde + 1
        if is_probable_prime(cand):
            return a, cand
        a += 1


def cunningham_step(p_tilde: int) -> int | None:
    """2*p_tilde + 1 when it is prime (strict chain), else None."""
    cand = 2 * p_tilde + 1
    return cand if is_probable_prime(cand) else None


def gen_correlated_moduli(
    kappa: int,
    rng: Rng,
    strict_safe: bool = False,
    budget: int = 4096,
) -> CorrelatedModuli:
    """Generate N = p*q and N~ = p~*q~ with p~ | p-1 and q~ | q-1.

    p~ and q~ are distinct safe primes of exactly `kappa` bits.  In
    relaxed mode p is lifted as 2*a*p~ + 1 for the smallest a >= 2 making
    p prime.  In strict mode p = 2*p~ + 1 must itself be prime, so N is a
    safe semiprime and the cofactor phi(N)/N~ is exactly 4; the search
    gives up after `budget` safe-prime draws.
    """
    if kappa < 6:
        raise ValueError("kappa below 6 bits cannot yield two distinct safe primes")

    def draw_strict(exclude: int | None) -> tuple[int, int]:
        for _ in range(budget):
            pt = gen_safe_prime(kappa, rng).p
            if pt == exclude:
                continue
            lifted = cunningham_step(pt)
            if lifted is not None:
                return pt, lifted
        raise StrictChainNotFound(
            f"no {kappa}-bit chain p~ -> 2p~+1 within {budget} draws"
        )

    if strict_safe:
        p_tilde, p = draw_strict(None)
        q_tilde, q = draw_strict(p_tilde)
    else:
        p_tilde = gen_safe_prime(kappa, rng).p
        q_tilde = gen_safe_prime(kappa, rng).p
        while q_tilde == p_tilde:
            q_tilde = gen_safe_prime(kappa, rng).p
        _, p = lift_correlated_prime(p_tilde)
        _, q = lift_correlated_prime(q_tilde)

    n = p * q
    n_tilde = p_tilde * q_tilde
    phi = (p - 1) * (q - 1)
    if phi % n_tilde:
        raise ArithmeticError("construction broke N~ | phi(N)")
    return CorrelatedModuli(
        n=n,
        n_tilde=n_tilde,
        k_cofactor=phi // n_tilde,
        p=p,
        q=q,
        p_tilde=p_tilde,
        q_tilde=q_tilde,
    )


# ---------------------------------------------------------------------------
# Lagrange weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangeWeights:
    """Denominator-cleared integer Lagrange coefficients at x = 0.

    weights[i] = scale * L_{i,P}(0) exactly, so for every polynomial q of
    degree <= |P|-1 with q(0) = 0 the weighted sum of its evaluations is
    scale * q(0) = 0 over the integers, hence 0 modulo anything.
    """

    participants: tuple[int, ...]
    weights: Mapping[int, int]
    scale: int

    def reduced(self, modulus: int) -> dict[int, int]:
        return {i: w % modulus for i, w in self.weights.items()}


def lagrange_weights(participants: Iterable[int]) -> LagrangeWeights:
    ids = tuple(participants)
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"repeated IDs in {ids}")
    if len(ids) < 2:
        raise ValueError("need at least two participants")
    if any(i <= 0 for i in ids):
        raise ValueError("IDs must be positive")

    exact: dict[int, Fraction] = {}
    for i in ids:
        value = Fraction(1)
        for j in ids:
            if j != i:
                value *= Fraction(-j, i - j)
        exact[i] = value
    scale = math.lcm(*[v.denominator for v in exact.values()])
    weights = {i: int(v * scale) for i, v in exact.items()}
    return LagrangeWeights(participants=ids, weights=weights, scale=scale)


# ---------------------------------------------------------------------------
# subgroup discrete log and hash-to-subgroup
# ---------------------------------------------------------------------------

def dlog_one_plus_m(y: int, m: int) -> int:
    """x in [0, M) with (1+M)^x = y (mod M^2), via (1+M)^x = 1 + xM."""
    if m <= 1:
        raise ValueError("modulus must exceed 1")
    if not 0 <= y < m * m:
        raise ValueError("y must lie below M^2")
    if y % m != 1:
        raise NotInSubgroup(f"value is not 1 mod {m}")
    return ((y - 1) // m) % m


_HASH_DOMAIN = b"pda-kit/hash-to-subgroup/v1"


def hash_to_subgroup(t: int, h: int, n: int, n_tilde: int, seed: bytes = b"") -> int:
    """Deterministic H(t) = h^(XOF(seed || t) mod N~) mod N.

    Output lies in <h>; when h has order dividing N~ the result is an
    N~-th root of unity mod N.
    """
    if t < 0:
        raise ValueError("time slots are non-negative")
    t_bytes = t.to_bytes(max(1, (t.bit_length() + 7) // 8), "big")
    material = (
        _HASH_DOMAIN
        + len(seed).to_bytes(2, "big")
        + seed
        + len(t_bytes).to_bytes(2, "big")
        + t_bytes
    )
    width = (n_tilde.bit_length() + 7) // 8 + 16
    exponent = int.from_bytes(hashlib.shake_256(material).digest(width), "big") % n_tilde
    return pow(h, exponent, n)


# ---------------------------------------------------------------------------
# key ceremonies shared by both schemes
# ---------------------------------------------------------------------------

def ring_exchange(
    bus: Bus,
    modulus: int,
    generator: int,
    exponents: Mapping[int, int],
    hops: int = 0,
    absent: Collection[int] = (),
    late: Mapping[int, Callable[[dict[int, int]], int]] | None = None,
) -> dict[int, int]:
    """Ring exchange yielding Y_i with prod Y_i = 1 mod `modulus`.

    Every party i of the ID-ordered ring broadcasts y_i = generator^{r_i}
    with r_i = exponents[i].  With hops=0, Y_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}
    and the exponents telescope.  With hops=k the base
    y_{i+k+1} * y_{i-1}^{-1} is relayed through parties i+k, ..., i+1,
    each raising it to its own exponent, before party i applies r_i --
    one extra bus round per hop.

    Parties in `absent` never broadcast, which fails the exchange with
    PartyMissing.  Parties in `late` broadcast in a second round, the
    value their callback picks after seeing the first round's broadcasts.
    """
    ring = sorted(exponents)
    late = late or {}

    bus.begin_round()
    for i in ring:
        if i not in absent and i not in late:
            bus.post(i, "ring-share", (pow(generator, exponents[i], modulus),))
    y = {m.sender: m.body[0] for m in bus.end_round()}

    if late:
        bus.begin_round()
        for i, pick in late.items():
            bus.post(i, "ring-share", (pick(dict(y)),))
        for m in bus.end_round():
            y[m.sender] = m.body[0]
    missing = [i for i in ring if i not in y]
    if missing:
        raise PartyMissing(f"no ring broadcast from parties {missing}")

    for i in ring:
        if math.gcd(y[i], modulus) != 1:
            raise NonInvertibleBroadcast(f"broadcast of party {i} is not a unit")

    def at(idx: int) -> int:
        return ring[idx % len(ring)]

    # Relay value destined for target i is held by party i+hop after each round.
    current = {
        i: y[at(idx + hops + 1)] * mod_inv(y[at(idx - 1)], modulus) % modulus
        for idx, i in enumerate(ring)
    }
    for hop in range(hops, 0, -1):
        bus.begin_round()
        for idx, target in enumerate(ring):
            value = pow(current[target], exponents[at(idx + hop)], modulus)
            bus.post(at(idx + hop), "ring-relay", (target, value), to=at(idx + hop - 1))
        for m in bus.end_round():
            current[m.body[0]] = m.body[1]

    return {i: pow(current[i], exponents[i], modulus) for i in ring}


def share_exchange(
    bus: Bus,
    modulus: int,
    blinds: Mapping[int, int],
    degrees: Iterable[int],
    coefficients: Callable[[int, int], Sequence[int]],
    kind: str,
) -> dict[int, dict[int, int]]:
    """Blinded (1+M)-power share exchange, one bus round per degree.

    For degree d each party j draws the coefficients c_1.. of a
    zero-constant polynomial q_j(x) = sum_t c_t x^t over Z_M
    (`coefficients(j, d)`) and sends party i the message
    blinds[j] * (1+M)^{q_j(i)} mod M^2, of kind "<kind>:<d>".  The
    blinds multiply to 1, so the product of party i's own factor and
    its inbox is (1+M)^{sum_j q_j(i)}, and the subgroup dlog gives i's
    point on the summed polynomial.  Returns party -> degree -> point.
    """
    ids = sorted(blinds)
    m2 = modulus * modulus
    points: dict[int, dict[int, int]] = {i: {} for i in ids}

    for d in degrees:
        coeffs = {j: coefficients(j, d) for j in ids}

        def share(j: int, x: int) -> int:
            acc = 0
            for c in reversed(coeffs[j]):
                acc = (acc + c) * x % modulus
            return blinds[j] * (1 + acc * modulus) % m2

        bus.begin_round()
        for j in ids:
            for i in ids:
                if i != j:
                    bus.post(j, f"{kind}:{d}", (share(j, i),), to=i)
        inbox = {i: share(i, i) for i in ids}
        for msg in bus.end_round():
            inbox[msg.to] = inbox[msg.to] * msg.body[0] % m2

        for i in ids:
            try:
                points[i][d] = dlog_one_plus_m(inbox[i], modulus)
            except NotInSubgroup as exc:
                raise ExtractionFailed(
                    f"{kind}:{d} product for party {i} is not a (1+M) power"
                ) from exc

    return points
