"""Privacy-preserving sum/product protocol over Z_p with linear key storage.

Each user ends up holding one polynomial-share R_i^(k) per usable group
size k, the evaluation at x=i of a jointly generated hidden polynomial
with zero constant term over Z_{p(p-1)}.  Weighted by the shared
denominator-cleared Lagrange coefficients, any k of them sum to zero
mod p(p-1) -- hence mod p for additive masks and mod p-1 for exponents,
which is exactly what Encrypt/Decrypt rely on.

Master keys live mod p^2(p-1)^2 and multiply to 1 across all users; they
blind the key-generation messages so nobody learns another user's share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bus import Bus
from .errors import GroupTooSmall, IncompleteGroup, KeyMissing, MixedKinds
from .numtheory import gen_safe_prime, lagrange_weights, ring_exchange, share_exchange
from .rng import Rng


@dataclass(frozen=True)
class ArithParams:
    p: int
    g: int
    n: int
    n_min: int

    @property
    def key_modulus(self) -> int:
        """p(p-1): the ring the polynomial shares live in."""
        return self.p * (self.p - 1)

    @property
    def master_modulus(self) -> int:
        """p^2(p-1)^2: the ring of master keys and keygen messages."""
        return self.key_modulus**2

    def to_json(self) -> dict:
        return {
            "p": format(self.p, "x"),
            "g": format(self.g, "x"),
            "n": self.n,
            "n_min": self.n_min,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ArithParams":
        return cls(
            p=int(doc["p"], 16),
            g=int(doc["g"], 16),
            n=int(doc["n"]),
            n_min=int(doc["n_min"]),
        )


@dataclass
class ArithEncKey:
    """Per-user polynomial shares, one entry per usable group size."""

    id: int
    shares: dict[int, int]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "shares": {str(k): format(v, "x") for k, v in sorted(self.shares.items())},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ArithEncKey":
        return cls(
            id=int(doc["id"]),
            shares={int(k): int(v, 16) for k, v in doc["shares"].items()},
        )


@dataclass(frozen=True)
class ArithCiphertext:
    kind: str  # "add" | "mul"
    value: int
    participant: int
    group: tuple[int, ...]


def setup(kappa: int, n: int, n_min: int, rng: Rng) -> ArithParams:
    """Public parameters: a safe prime p of kappa bits and a random g in Z_p*."""
    if not 3 <= n_min <= n:
        raise ValueError("need n >= n_min >= 3")
    pair = gen_safe_prime(kappa, rng.fork("setup:p"))
    g = rng.fork("setup:g").randrange(2, pair.p)
    return ArithParams(p=pair.p, g=g, n=n, n_min=n_min)


# ---------------------------------------------------------------------------
# ceremonies
# ---------------------------------------------------------------------------

def initialize(
    bus: Bus,
    params: ArithParams,
    rng: Rng,
    ids: Sequence[int] | None = None,
    dropouts: Iterable[int] = (),
) -> dict[int, int]:
    """Ring share: every party ends up with K_i, with prod K_i = 1 mod p^2(p-1)^2.

    One broadcast round: y_i = g1^{r_i}.  Each party then locally computes
    K_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}.  g1 is a public coin drawn from
    the ceremony stream with gcd(g1, p^2(p-1)^2) = 1.
    """
    ids = tuple(ids) if ids is not None else tuple(range(1, params.n + 1))
    m2 = params.master_modulus
    g1 = rng.fork("init:g1").unit(m2)
    r = {i: rng.fork(f"init:party:{i}").randrange(1, m2) for i in ids}
    return ring_exchange(bus, m2, g1, r, absent=set(dropouts))


def keygen(
    bus: Bus,
    params: ArithParams,
    rng: Rng,
    master_keys: Mapping[int, int],
    degrees: Sequence[int] | None = None,
) -> dict[int, ArithEncKey]:
    """Distributed share generation for every group size k = n_min .. #parties.

    For each k every party j samples k-1 polynomial coefficients over
    Z_{p(p-1)} and sends c_{j,i} = K_j * (1+p(p-1))^{poly_j(i)} to each
    other party i.  Party i multiplies all n factors; the master keys
    cancel and the subgroup dlog of the remaining product is its share
    R_i^(k) = sum_j poly_j(i) mod p(p-1).
    """
    m = params.key_modulus
    ks = degrees if degrees is not None else range(params.n_min, len(master_keys) + 1)

    def coefficients(j: int, k: int) -> list[int]:
        return [rng.fork(f"keygen:party:{j}:k:{k}:c:{t}").randbelow(m) for t in range(1, k)]

    shares = share_exchange(bus, m, master_keys, ks, coefficients, "keyshare")
    return {i: ArithEncKey(id=i, shares=shares[i]) for i in shares}


# ---------------------------------------------------------------------------
# encryption
# ---------------------------------------------------------------------------

def mask_exponent(params: ArithParams, key: ArithEncKey, group: Sequence[int]) -> int:
    """R_i^(|P|) * lambda_{i,P}: the mask share party i adds over group P."""
    ids = tuple(sorted(group))
    if len(ids) < params.n_min:
        raise GroupTooSmall(f"|P|={len(ids)} below n_min={params.n_min}")
    if key.id not in ids:
        raise KeyMissing(f"party {key.id} not in group {ids}")
    k = len(ids)
    if k not in key.shares:
        raise KeyMissing(f"no share for group size {k}")
    lam = lagrange_weights(ids).weights[key.id]
    return key.shares[k] * lam


def encrypt_add(
    params: ArithParams, key: ArithEncKey, group: Sequence[int], x: int
) -> ArithCiphertext:
    mask = mask_exponent(params, key, group)
    return ArithCiphertext(
        kind="add",
        value=(x + mask) % params.p,
        participant=key.id,
        group=tuple(sorted(group)),
    )


def encrypt_mul(
    params: ArithParams, key: ArithEncKey, group: Sequence[int], x: int
) -> ArithCiphertext:
    mask = mask_exponent(params, key, group)
    value = x % params.p * pow(params.g, mask % (params.p - 1), params.p) % params.p
    return ArithCiphertext(
        kind="mul", value=value, participant=key.id, group=tuple(sorted(group))
    )


def decrypt(params: ArithParams, ciphertexts: Sequence[ArithCiphertext]) -> int:
    if not ciphertexts:
        raise IncompleteGroup("no ciphertexts")
    kinds = {ct.kind for ct in ciphertexts}
    if len(kinds) != 1:
        raise MixedKinds(f"mixed ciphertext kinds {sorted(kinds)}")
    group = ciphertexts[0].group
    senders = sorted(ct.participant for ct in ciphertexts)
    if senders != sorted(group) or any(ct.group != group for ct in ciphertexts):
        raise IncompleteGroup("need exactly one ciphertext per group member")
    if kinds == {"add"}:
        return sum(ct.value for ct in ciphertexts) % params.p
    out = 1
    for ct in ciphertexts:
        out = out * ct.value % params.p
    return out


