"""Oblivious multivariate polynomial evaluation framework.

Roles per aggregation: ordinary users publish masked powers of their
values, one special user bridges into the aggregator's homomorphic
encryption, a second special user blinds the per-term ciphertexts, and
the aggregator learns exactly the polynomial value and nothing else.

Masks are powers of a hash into the hidden subgroup <h> of Z_N*, with
exponents q^(d)(i) * lambda_{i,P}: evaluations of jointly generated
zero-constant polynomials times denominator-cleared Lagrange weights.
Over any admissible participant set the mask exponents sum to a multiple
of the subgroup order, so the masks multiply to one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import paillier
from .bus import Bus
from .errors import (
    GroupBelowThreshold,
    KeyMissing,
    MissingEncoding,
    RingTooSmall,
    SlotReused,
)
from .numtheory import (
    gen_correlated_moduli,
    hash_to_subgroup,
    lagrange_weights,
    mod_inv,
    ring_exchange,
    share_exchange,
)
from .rng import Rng


# ---------------------------------------------------------------------------
# parameters, keys, queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdaParams:
    N: int
    N_tilde: int
    g: int
    g_tilde: int
    h: int
    hash_seed: bytes
    n: int
    theta_min: int

    def hash_slot(self, t: int) -> int:
        return hash_to_subgroup(t, self.h, self.N, self.N_tilde, self.hash_seed)

    def to_json(self) -> dict:
        return {
            "n_cap": format(self.N, "x"),
            "n_tilde": format(self.N_tilde, "x"),
            "g": format(self.g, "x"),
            "g_tilde": format(self.g_tilde, "x"),
            "h": format(self.h, "x"),
            "hash_seed": self.hash_seed.hex(),
            "n": self.n,
            "theta_min": self.theta_min,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PdaParams":
        return cls(
            N=int(doc["n_cap"], 16),
            N_tilde=int(doc["n_tilde"], 16),
            g=int(doc["g"], 16),
            g_tilde=int(doc["g_tilde"], 16),
            h=int(doc["h"], 16),
            hash_seed=bytes.fromhex(doc["hash_seed"]),
            n=int(doc["n"]),
            theta_min=int(doc["theta_min"]),
        )


@dataclass
class PdaEncKey:
    """Evaluations of the hidden polynomials, one per degree d = 2 .. n-1.

    Under collusion hardening with parameter k the degrees d <= k stay in
    the file but are refused by encode, so one key set serves both modes.
    """

    id: int
    evaluations: dict[int, int]
    hardened_k: int = 0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "evaluations": {
                str(d): format(v, "x") for d, v in sorted(self.evaluations.items())
            },
            "hardened_k": self.hardened_k,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PdaEncKey":
        return cls(
            id=int(doc["id"]),
            evaluations={int(d): int(v, 16) for d, v in doc["evaluations"].items()},
            hardened_k=int(doc.get("hardened_k", 0)),
        )


@dataclass(frozen=True)
class Window:
    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError("window needs start >= 0 and length >= 1")

    @property
    def end(self) -> int:
        return self.start + self.length

    def slot(self, k: int) -> int:
        if not 0 <= k < self.length:
            raise ValueError(f"term index {k} outside window")
        return self.start + k

    def overlaps(self, other: "Window") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class PdaQuery:
    """One declared aggregation: coefficients, exponents, group and window."""

    coeffs: tuple[int, ...]
    exponents: Mapping[int, Mapping[int, int]]  # user -> {term index -> power}
    participants: tuple[int, ...]
    window: Window
    special: tuple[int, int] | None = None  # (user1, user2); default lowest two

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def exponent(self, user: int, k: int) -> int:
        return int(self.exponents.get(user, {}).get(k, 0))

    def special_users(self) -> tuple[int, int]:
        if self.special is not None:
            return self.special
        ordered = sorted(self.participants)
        return ordered[0], ordered[1]

    def validate(self, params: PdaParams) -> None:
        if self.window.length != self.m:
            raise ValueError("window length must equal the number of terms")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("repeated participants")
        if len(self.participants) < params.theta_min:
            raise GroupBelowThreshold(
                f"|P|={len(self.participants)} below theta_min={params.theta_min}"
            )
        members = set(self.participants)
        for user in self.exponents:
            if user not in members:
                raise ValueError(f"exponent for non-member {user}")
        u1, u2 = self.special_users()
        if u1 == u2 or u1 not in members or u2 not in members:
            raise ValueError("special users must be two distinct members")

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "exponents": {
                str(u): {str(k): int(e) for k, e in kv.items()}
                for u, kv in self.exponents.items()
            },
            "participants": list(self.participants),
            "window": {"start": self.window.start, "len": self.window.length},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PdaQuery":
        return cls(
            coeffs=tuple(int(c) for c in doc["coeffs"]),
            exponents={
                int(u): {int(k): int(e) for k, e in kv.items()}
                for u, kv in doc["exponents"].items()
            },
            participants=tuple(int(p) for p in doc["participants"]),
            window=Window(int(doc["window"]["start"]), int(doc["window"]["len"])),
        )


class SlotRegistry:
    """Append-only record of consumed time windows.

    The overlap check runs before any ceremony message is emitted; a
    persisted registry is one JSON object per line.
    """

    def __init__(self, windows: Iterable[Window] = (), path=None):
        self.windows: list[Window] = list(windows)
        self.path = path

    @classmethod
    def load(cls, path) -> "SlotRegistry":
        windows = []
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        doc = json.loads(line)
                        windows.append(Window(int(doc["start"]), int(doc["len"])))
        except FileNotFoundError:
            pass
        return cls(windows, path=path)

    def overlapping(self, window: Window) -> Window | None:
        for w in self.windows:
            if w.overlaps(window):
                return w
        return None

    def claim(self, window: Window) -> None:
        clash = self.overlapping(window)
        if clash is not None:
            raise SlotReused(
                f"window [{window.start},{window.end}) overlaps consumed "
                f"[{clash.start},{clash.end})"
            )
        self.windows.append(window)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(json.dumps({"start": window.start, "len": window.length}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def setup(
    kappa: int,
    n: int,
    theta_min: int,
    rng: Rng,
    strict_safe: bool = False,
) -> PdaParams:
    """System parameters from correlated semiprimes.

    h = g^{phi(N)/N~} and g is resampled until h generates the full
    order-N~ subgroup (verified with the ephemeral factors, which are
    dropped afterwards).
    """
    if not 3 <= theta_min <= n:
        raise ValueError("need n >= theta_min >= 3")
    mod = gen_correlated_moduli(kappa, rng.fork("setup:moduli"), strict_safe=strict_safe)
    g_rng = rng.fork("setup:g")
    while True:
        g = g_rng.unit(mod.n)
        h = pow(g, mod.k_cofactor, mod.n)
        if h == 1:
            continue
        if pow(h, mod.n_tilde // mod.p_tilde, mod.n) == 1:
            continue
        if pow(h, mod.n_tilde // mod.q_tilde, mod.n) == 1:
            continue
        break
    if pow(h, mod.n_tilde, mod.n) != 1:
        raise ArithmeticError("h is not an N~-th root of unity")
    g_tilde = rng.fork("setup:g_tilde").unit(mod.n_tilde)
    hash_seed = rng.fork("setup:hash_seed").take(16)
    return PdaParams(
        N=mod.n,
        N_tilde=mod.n_tilde,
        g=g,
        g_tilde=g_tilde,
        h=h,
        hash_seed=hash_seed,
        n=n,
        theta_min=theta_min,
    )


# ---------------------------------------------------------------------------
# ring share (base and hardened relay)
# ---------------------------------------------------------------------------

AdaptiveFn = Callable[[dict[int, int], int, Rng], int]


def ring_share(
    bus: Bus,
    params: PdaParams,
    rng: Rng,
    ids: Sequence[int] | None = None,
    k_collusion: int = 0,
    adaptive: Mapping[int, AdaptiveFn] | None = None,
) -> dict[int, int]:
    """Ring exchange yielding Y_i with prod Y_i = 1 mod N~.

    Base form (k_collusion=0): Y_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}.
    Hardened form: the base y_{i+k+1} * y_{i-1}^{-1} is relayed through
    users i+k, ..., i+1, each raising it to its own exponent, before user
    i applies r_i -- one extra bus round per relay hop.

    `adaptive` maps a party to a callback picking its broadcast after it
    has observed the honest ones (passive rushing).  The callback gets
    the observed values, the party's own drawn exponent and a fresh
    stream; an honest callback returns g~^r and the run is an ordinary
    ceremony.
    """
    ids = tuple(ids) if ids is not None else tuple(range(1, params.n + 1))
    nt = params.N_tilde
    if k_collusion < 0:
        raise ValueError("k_collusion must be >= 0")
    if len(ids) <= k_collusion + 2:
        raise RingTooSmall(
            f"hardened ring with k={k_collusion} needs more than {k_collusion + 2} parties"
        )

    r = {i: rng.fork(f"ring:party:{i}").unit(nt) for i in ids}
    # Rushing parties publish only after seeing the honest broadcasts.
    late = {
        i: lambda seen, i=i, pick=pick: pick(seen, r[i], rng.fork(f"ring:adaptive:{i}"))
        for i, pick in (adaptive or {}).items()
    }
    return ring_exchange(bus, nt, params.g_tilde, r, hops=k_collusion, late=late)


# ---------------------------------------------------------------------------
# distributed key generation
# ---------------------------------------------------------------------------

def keygen(
    bus: Bus,
    params: PdaParams,
    rng: Rng,
    y_shares: Mapping[int, int],
    degrees: Sequence[int] | None = None,
    hardened_k: int = 0,
) -> dict[int, PdaEncKey]:
    """Encoding-key queries for every degree d = 2 .. n-1.

    For recipient i each other user j publishes
    Q_{ij} = Y_j^{N~} * (1+N~)^{q_j^(d)(i)} mod N~^2; multiplying its own
    factor in, user i strips the blinding (the Y products telescope to 1)
    and takes the subgroup dlog to learn q^(d)(i), one point on the hidden
    zero-constant sum polynomial.

    `degrees` restricts generation to a subset (the default is the full
    range); restricting is an optimization for large ceremonies that need
    a single group size.
    """
    nt = params.N_tilde
    ks = degrees if degrees is not None else range(2, len(y_shares))
    blinds = {j: pow(y, nt, nt * nt) for j, y in y_shares.items()}

    def coefficients(j: int, d: int) -> list[int]:
        return [rng.fork(f"keygen:party:{j}:d:{d}:c:{t}").unit(nt) for t in range(1, d + 1)]

    points = share_exchange(bus, nt, blinds, ks, coefficients, "key-query")
    return {
        i: PdaEncKey(id=i, evaluations=evaluations, hardened_k=hardened_k)
        for i, evaluations in points.items()
    }


# ---------------------------------------------------------------------------
# encoding and aggregation
# ---------------------------------------------------------------------------

def _group_degree(params: PdaParams, key: PdaEncKey, group: Sequence[int]) -> int:
    size = len(group)
    theta = max(params.theta_min, key.hardened_k + 2)
    if size < theta:
        raise GroupBelowThreshold(f"|P|={size} below threshold {theta}")
    d = size - 1
    if d <= key.hardened_k:
        raise GroupBelowThreshold(
            f"degree {d} keys are unusable under hardening k={key.hardened_k}"
        )
    if d not in key.evaluations:
        raise KeyMissing(f"user {key.id} has no degree-{d} evaluation")
    return d


def mask_exponent(
    params: PdaParams,
    key: PdaEncKey,
    group: Sequence[int],
    weights: Mapping[int, int] | None = None,
) -> int:
    """q^(|P|-1)(i) * lambda_{i,P} reduced mod N~."""
    d = _group_degree(params, key, group)
    if weights is None:
        weights = lagrange_weights(sorted(group)).reduced(params.N_tilde)
    return key.evaluations[d] * weights[key.id] % params.N_tilde


def encode_value(
    params: PdaParams,
    key: PdaEncKey,
    group: Sequence[int],
    x: int,
    e: int,
    t: int,
    weights: Mapping[int, int] | None = None,
    h_cache: dict[int, int] | None = None,
) -> int:
    """C(x) = x^e * H(t)^{q * lambda} mod N."""
    exp = mask_exponent(params, key, group, weights)
    if h_cache is not None and t in h_cache:
        ht = h_cache[t]
    else:
        ht = params.hash_slot(t)
        if h_cache is not None:
            h_cache[t] = ht
    mask = pow(ht, exp, params.N)
    if e == 0:
        return mask
    return pow(x % params.N, e, params.N) * mask % params.N


def encode_ordinary(
    params: PdaParams,
    key: PdaEncKey,
    query: PdaQuery,
    xs: Sequence[int],
    weights: Mapping[int, int] | None = None,
    h_cache: dict[int, int] | None = None,
) -> dict[int, int]:
    """All m encoded values of one user for one query.

    Values for terms the user does not appear in are encoded with
    exponent 0 (the mask must still be contributed).
    """
    if len(xs) != query.m:
        raise ValueError("need one value per term")
    if key.id not in query.participants:
        raise KeyMissing(f"user {key.id} not in the query group")
    out = {}
    for k in range(query.m):
        out[k] = encode_value(
            params,
            key,
            query.participants,
            xs[k],
            query.exponent(key.id, k),
            query.window.slot(k),
            weights=weights,
            h_cache=h_cache,
        )
    return out


def encode_user2(
    params: PdaParams,
    agg_pk: paillier.AggPublicKey,
    key: PdaEncKey,
    query: PdaQuery,
    xs: Sequence[int],
    rng: Rng,
    weights: Mapping[int, int] | None = None,
    h_cache: dict[int, int] | None = None,
) -> dict[int, int]:
    """User 2's bridge: ordinary encodings wrapped in the aggregator's encryption."""
    plain = encode_ordinary(params, key, query, xs, weights=weights, h_cache=h_cache)
    return {k: paillier.encrypt(agg_pk, v, rng=rng) for k, v in plain.items()}


def blinding_units(pk: paillier.AggPublicKey, m: int, rng: Rng) -> list[int]:
    """m units of Z_{n^2}* whose product is 1 (forced to (1,) when m = 1)."""
    if m < 1:
        raise ValueError("need at least one term")
    if m == 1:
        return [1]
    units = [rng.unit(pk.nsq) for _ in range(m - 1)]
    acc = 1
    for u in units:
        acc = acc * u % pk.nsq
    units.append(mod_inv(acc, pk.nsq))
    return units


def encode_user1(
    params: PdaParams,
    agg_pk: paillier.AggPublicKey,
    query: PdaQuery,
    own_encodings: Mapping[int, int],
    other_encodings: Mapping[int, Mapping[int, int]],
    user2_cts: Mapping[int, int],
    rng: Rng,
) -> list[int]:
    """Blinded term ciphertexts {K_k * V_k^{c_k}} published by user 1.

    V_k = E(C(x_2k))^{prod_{i != 2} C(x_ik) mod N}; the blinding units
    multiply to 1 so the aggregate is unaffected while no single term
    ciphertext decrypts to its term value.
    """
    u1, u2 = query.special_users()
    expected = [i for i in query.participants if i not in (u1, u2)]
    for i in expected:
        got = other_encodings.get(i)
        if got is None or set(got) != set(range(query.m)):
            raise MissingEncoding(f"missing encodings from user {i}")
    if set(user2_cts) != set(range(query.m)):
        raise MissingEncoding("missing user-2 ciphertexts")
    if set(own_encodings) != set(range(query.m)):
        raise MissingEncoding("missing user-1 own encodings")

    units = blinding_units(agg_pk, query.m, rng.fork("user1:blind"))
    out = []
    for k in range(query.m):
        exp = own_encodings[k]
        for i in expected:
            exp = exp * other_encodings[i][k] % params.N
        v = paillier.scale(agg_pk, user2_cts[k], exp)
        c = query.coeffs[k] % params.N
        out.append(units[k] * paillier.scale(agg_pk, v, c) % agg_pk.nsq)
    return out


def aggregate(
    params: PdaParams, agg_keys: paillier.AggKeyPair, blinded: Sequence[int]
) -> int:
    """Multiply, decrypt the integer sum, reduce mod N: exact f(x_P)."""
    pk = agg_keys.public()
    acc = 1
    for ct in blinded:
        acc = acc * ct % pk.nsq
    return paillier.decrypt(agg_keys, acc) % params.N


def evaluate_query(query: PdaQuery, data: Mapping[int, Sequence[int]], n: int) -> int:
    """Plaintext evaluation of the query polynomial mod N."""
    total = 0
    for k in range(query.m):
        term = 1
        for i in query.participants:
            term = term * pow(data[i][k] % n, query.exponent(i, k), n) % n
        total = (total + query.coeffs[k] * term) % n
    return total
