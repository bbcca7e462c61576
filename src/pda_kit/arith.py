"""Privacy-preserving sum/product protocol over Z_p with linear key storage.

Each user ends up holding one polynomial-share R_i^(k) per usable group
size k, the evaluation at x=i of a jointly generated hidden polynomial
with zero constant term over Z_{p(p-1)}.  Weighted by the shared
denominator-cleared Lagrange coefficients, any k of them sum to zero
mod p(p-1) -- hence mod p for additive masks and mod p-1 for exponents.
The scheme is these masks: a member encrypts x_i as it posts, with one
addition, x_i + R_i*lambda_i mod p, or one multiplication,
x_i * g^{R_i*lambda_i} mod p, and the masks cancel in the sum or
product of the group's posts.

Master keys live mod p^2(p-1)^2 and multiply to 1 across all users; they
blind the key-generation messages so nobody learns another user's share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bus import Bus
from .errors import (
    GroupTooSmall,
    IncompleteGroup,
    InvalidParams,
    KeyMissing,
    field,
    hex_field,
    json_key,
)
from .numtheory import (
    fixed_base_pows,
    gen_safe_prime,
    is_probable_prime,
    lagrange_weights,
    ring_exchange,
    share_exchange,
)
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
        """Load, then check that p is a safe prime, 1 < g < p and 3 <= n_min <= n."""
        params = cls(
            p=hex_field(doc, "p"),
            g=hex_field(doc, "g"),
            n=field(doc, "n"),
            n_min=field(doc, "n_min"),
        )
        if not (is_probable_prime(params.p) and is_probable_prime((params.p - 1) // 2)):
            raise InvalidParams(f"p={params.p:x} is not a safe prime")
        if not 1 < params.g < params.p:
            raise InvalidParams("g lies outside (1, p)")
        if not 3 <= params.n_min <= params.n:
            raise GroupTooSmall(f"n_min={params.n_min} outside [3, n={params.n}]")
        return params


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
            id=field(doc, "id"),
            shares=field(
                doc, "shares", lambda sh: {json_key(k): int(v, 16) for k, v in sh.items()}
            ),
        )


def setup(kappa: int, n: int, n_min: int, rng: Rng) -> ArithParams:
    """Public parameters: a safe prime p of kappa bits and a random g in Z_p*."""
    if not 3 <= n_min <= n:
        raise ValueError("need n >= n_min >= 3")
    p = gen_safe_prime(kappa, rng.fork("setup:p"))
    g = rng.fork("setup:g").randrange(2, p)
    return ArithParams(p=p, g=g, n=n, n_min=n_min)


# ---------------------------------------------------------------------------
# ceremonies
# ---------------------------------------------------------------------------

def initialize(
    bus: Bus,
    params: ArithParams,
    rng: Rng,
    ids: Sequence[int],
) -> dict[int, int]:
    """Ring share: every party ends up with K_i, with prod K_i = 1 mod p^2(p-1)^2.

    One broadcast round: y_i = g1^{r_i}.  Each party then locally computes
    K_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}.  g1 is a public coin drawn from
    the ceremony stream with gcd(g1, p^2(p-1)^2) = 1.  The ring's
    factorization p^2 * 2^2 * q^2, q = (p-1)/2, is public, so its powers
    are taken by CRT.
    """
    m2 = params.master_modulus
    g1 = rng.fork("init:g1").unit(m2)
    r = {i: rng.fork(f"init:party:{i}").randrange(1, m2) for i in ids}
    factors = ((params.p, 2), (2, 2), ((params.p - 1) // 2, 2))
    return ring_exchange(bus, m2, g1, r, factors=factors)


def keygen(
    bus: Bus,
    params: ArithParams,
    rng: Rng,
    master_keys: Mapping[int, int],
) -> dict[int, ArithEncKey]:
    """Distributed share generation for every group size k = n_min .. #parties.

    For each k every party j samples k-1 polynomial coefficients over
    Z_{p(p-1)} and sends c_{j,i} = K_j * (1+p(p-1))^{poly_j(i)} to each
    other party i.  The master keys cancel, so the n factors party i
    holds multiply to (1+p(p-1))^{R_i^(k)}, and i reads its share
    R_i^(k) = sum_j poly_j(i) mod p(p-1) off them with one half-width
    product a factor, without forming the product (`share_exchange`).
    """
    m = params.key_modulus
    ks = range(params.n_min, len(master_keys) + 1)

    def coefficients(j: int, k: int) -> list[int]:
        return [rng.fork(f"keygen:party:{j}:k:{k}:c:{t}").randbelow(m) for t in range(1, k)]

    shares = share_exchange(bus, m, master_keys, ks, coefficients, "keyshare")
    return {i: ArithEncKey(id=i, shares=shares[i]) for i in shares}


# ---------------------------------------------------------------------------
# masks and the round
# ---------------------------------------------------------------------------

def require_inputs(
    enc_keys: Mapping[int, ArithEncKey],
    group: Sequence[int],
    values: Mapping[int, int],
    owners: Sequence[int],
) -> None:
    """KeyMissing naming every member of `group` without a key, then
    IncompleteGroup naming every one of `owners` without a value."""
    missing = sorted(set(group) - set(enc_keys))
    if missing:
        raise KeyMissing(f"no key for participants {missing}")
    missing = sorted(set(owners) - set(values))
    if missing:
        raise IncompleteGroup(f"no value for participants {missing}")


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
    lam = lagrange_weights(ids)[key.id]
    return key.shares[k] * lam


def mul_masks(
    params: ArithParams, keys: Sequence[ArithEncKey], group: Sequence[int]
) -> dict[int, int]:
    """{key.id: g^{R_i * lambda_i mod (p-1)} mod p} for every key: the
    multiplicative mask party i puts on every factor it encrypts over
    group P.  Every key is checked before the one fixed-base batch."""
    p = params.p
    exponents = [mask_exponent(params, key, group) % (p - 1) for key in keys]
    masks = fixed_base_pows(params.g, exponents, p, p - 1)
    return {key.id: mask for key, mask in zip(keys, masks)}


def masked_round(
    bus: Bus,
    p: int,
    op: str,
    values: Mapping[str, Mapping[int, int]],
    masks: Mapping[int, int],
    completer: int | None = None,
) -> list[int]:
    """The protocol's one round: for each kind of `values`, {member: x},
    every member but `completer` broadcasts x + mask (op "add") or
    x * mask (op "mul") mod p under its `masks` entry.  Returns each
    kind's sum or product mod p of the delivered bodies, reduced at every
    step, with the completer's masked value folded in: it never posts."""
    add = op == "add"

    def masked(i: int, x: int) -> int:
        return (x + masks[i]) % p if add else x * masks[i] % p

    posts = [
        (kind, i, masked(i, x))
        for kind, xs in values.items()
        for i, x in xs.items()
        if i != completer
    ]
    totals = {
        kind: (0 if add else 1) if completer is None else masked(completer, xs[completer])
        for kind, xs in values.items()
    }
    for kind, i, body in posts:
        bus.post(i, kind, (body,))
    for msg in bus.deliver(bus.shape((i, None, kind, 1) for kind, i, _ in posts)):
        total, body = totals[msg.kind], msg.body[0]
        totals[msg.kind] = (total + body) % p if add else total * body % p
    return list(totals.values())
