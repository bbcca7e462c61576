"""Oblivious multivariate polynomial evaluation framework.

Roles per aggregation: ordinary users publish masked powers of their
values, one special user bridges into the aggregator's homomorphic
encryption, a second special user blinds the per-term ciphertexts, and
the aggregator learns exactly the polynomial value and nothing else.

User i's mask for slot t is H(t)^{s_i} = h^{a_t * s_i mod N~}, where
H(t) = h^{a_t} hashes into the hidden subgroup <h> of Z_N* with a public
exponent a_t, and s_i = q^(d)(i) * lambda_{i,P}: the evaluation of a
jointly generated zero-constant polynomial times the denominator-cleared
Lagrange weight of the group.  Over any admissible participant set the
s_i sum to a multiple of N~, which the order of h divides, so the masks
multiply to one.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import paillier
from .bus import Bus
from .errors import (
    CorruptRegistry,
    DuplicateId,
    GroupBelowThreshold,
    GroupTooSmall,
    InvalidQuery,
    KeyMissing,
    MissingEncoding,
    NotInSubgroup,
    NotInvertible,
    SlotReused,
    field,
    hex_field,
    json_int,
    json_key,
)
from .numtheory import (
    fixed_base_pows,
    gen_correlated_moduli,
    hash_to_subgroup,
    lagrange_weights,
    mod_inv,
    pow,
    ring_exchange,
    share_exchange,
    slot_exponent,
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
        """Load, then check that ord(h) | N~, g~ is a unit and 3 <= theta_min <= n."""
        params = cls(
            N=hex_field(doc, "n_cap"),
            N_tilde=hex_field(doc, "n_tilde"),
            g=hex_field(doc, "g"),
            g_tilde=hex_field(doc, "g_tilde"),
            h=hex_field(doc, "h"),
            hash_seed=field(doc, "hash_seed", bytes.fromhex),
            n=field(doc, "n"),
            theta_min=field(doc, "theta_min"),
        )
        if not (1 < params.h < params.N and pow(params.h, params.N_tilde, params.N) == 1):
            raise NotInSubgroup("h is not an N~-th root of unity mod N")
        if math.gcd(params.g_tilde, params.N_tilde) != 1:
            raise NotInvertible("g~ is not a unit mod N~")
        if not 3 <= params.theta_min <= params.n:
            raise GroupTooSmall(f"theta_min={params.theta_min} outside [3, n={params.n}]")
        return params


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
            id=field(doc, "id"),
            evaluations=field(
                doc, "evaluations", lambda ev: {json_key(d): int(v, 16) for d, v in ev.items()}
            ),
            hardened_k=field(doc, "hardened_k"),
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

    def overlaps(self, other: "Window") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class PdaQuery:
    """One declared aggregation: coefficients, exponents, group and window."""

    coeffs: tuple[int, ...]
    exponents: Mapping[int, Mapping[int, int]]  # user -> {term index -> power}
    participants: tuple[int, ...]
    window: Window

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def exponent(self, user: int, k: int) -> int:
        return int(self.exponents.get(user, {}).get(k, 0))

    def special_users(self) -> tuple[int, int]:
        """User 1 and user 2: the two lowest participants."""
        ordered = sorted(self.participants)
        return ordered[0], ordered[1]

    def validate(self, params: PdaParams) -> None:
        if self.window.length != self.m:
            raise InvalidQuery(f"window length {self.window.length} != {self.m} terms")
        members = set(self.participants)
        if len(members) != len(self.participants):
            raise DuplicateId(f"repeated participants in {list(self.participants)}")
        outside = sorted(i for i in members if not 1 <= i <= params.n)
        if outside:
            raise InvalidQuery(f"participants {outside} outside 1..{params.n}")
        if len(self.participants) < params.theta_min:
            raise GroupBelowThreshold(
                f"|P|={len(self.participants)} below theta_min={params.theta_min}"
            )
        for user, powers in self.exponents.items():
            if user not in members:
                raise InvalidQuery(f"exponent for non-member {user}")
            if not all(0 <= k < self.m for k in powers):
                raise InvalidQuery(f"user {user}: exponent for a term outside 0..{self.m - 1}")
            if min(powers.values(), default=0) < 0:
                raise InvalidQuery(f"user {user}: negative exponent")

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
            coeffs=field(doc, "coeffs", lambda cs: tuple(map(json_int, cs))),
            exponents=field(
                doc,
                "exponents",
                lambda ex: {
                    json_key(u): {json_key(k): json_int(e) for k, e in kv.items()}
                    for u, kv in ex.items()
                },
            ),
            participants=field(doc, "participants", lambda ps: tuple(map(json_int, ps))),
            window=field(doc, "window", lambda w: Window(json_int(w["start"]), json_int(w["len"]))),
        )


def _registry_window(path, number: int, line: bytes) -> Window:
    try:
        doc = json.loads(line)
        return Window(json_int(doc["start"]), json_int(doc["len"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptRegistry(f"{path}:{number}: {type(exc).__name__}: {exc}") from None


def _read_registry(path, data: bytes) -> tuple[list[Window], tuple[int, bytes]]:
    """The windows in a registry file's bytes, and (offset, prefix): where
    the next line goes and what must precede it.

    A final line with no newline is the tail of an append that did not
    finish.  If it parses, its window counts as consumed and the next line
    follows a newline; if not, the next line writes over it.  Any other
    malformed line raises CorruptRegistry.
    """
    *lines, tail = data.split(b"\n")
    windows = [_registry_window(path, no, ln) for no, ln in enumerate(lines, 1) if ln.strip()]
    if not tail.strip():
        return windows, (len(data), b"")
    try:
        windows.append(_registry_window(path, len(lines) + 1, tail))
        return windows, (len(data), b"\n")
    except CorruptRegistry:
        return windows, (len(data) - len(tail), b"")


class SlotRegistry:
    """Append-only record of consumed time windows, in claim order.

    The overlap check runs before any ceremony message is emitted; a
    persisted registry is one JSON object per line.
    """

    def __init__(self, windows: Iterable[Window] = (), path=None):
        self.path = path
        self.windows = list(windows)

    @classmethod
    def load(cls, path) -> "SlotRegistry":
        """Read a registry file; a missing file is an empty registry."""
        try:
            with open(path, "rb") as fh:
                windows, _ = _read_registry(path, fh.read())
        except FileNotFoundError:
            windows = []
        return cls(windows, path=path)

    def overlapping(self, window: Window) -> Window | None:
        """The first consumed window in claim order that overlaps `window`, or None."""
        return next((w for w in self.windows if w.overlaps(window)), None)

    def claim(self, window: Window) -> None:
        """Consume `window`, or raise SlotReused if it overlaps a consumed one.

        A persisted registry is re-read under an exclusive lock on its
        file, and the new line is on disk before the lock is released, so
        two processes cannot both claim overlapping windows.
        """
        if self.path is None:
            self._admit(window)
            return
        line = json.dumps({"start": window.start, "len": window.length}) + "\n"
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
            fh.seek(0)
            self.windows, (offset, prefix) = _read_registry(self.path, fh.read())
            self._admit(window)
            fh.truncate(offset)
            fh.write(prefix + line.encode())
            fh.flush()
            os.fsync(fh.fileno())

    def _admit(self, window: Window) -> None:
        clash = self.overlapping(window)
        if clash is not None:
            raise SlotReused(
                f"window [{window.start},{window.end}) overlaps consumed "
                f"[{clash.start},{clash.end})"
            )
        self.windows.append(window)


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def setup(
    kappa: int,
    n: int,
    theta_min: int,
    rng: Rng,
) -> PdaParams:
    """System parameters from correlated semiprimes.

    h = g^{phi(N)/N~} and g is resampled until h generates the full
    order-N~ subgroup (verified with the ephemeral factors, which are
    dropped afterwards).
    """
    if not 3 <= theta_min <= n:
        raise ValueError("need n >= theta_min >= 3")
    mod = gen_correlated_moduli(kappa, rng.fork("setup:moduli"))
    g_rng = rng.fork("setup:g")
    while True:
        g = g_rng.unit(mod.n)
        h = pow(g, mod.k_cofactor, mod.n)
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

def ring_share(
    bus: Bus,
    params: PdaParams,
    rng: Rng,
    k_collusion: int = 0,
    late: Mapping[int, Callable[[dict[int, int]], int]] | None = None,
) -> dict[int, int]:
    """Ring exchange among users 1..n yielding Y_i with prod Y_i = 1 mod N~.

    Base form (k_collusion=0): Y_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}.
    Hardened form: the base y_{i+k+1} * y_{i-1}^{-1} is relayed through
    users i+k, ..., i+1, each raising it to its own exponent, before user
    i applies r_i -- one extra bus round per relay hop.

    `late` maps a rushing party to a callback picking its broadcast after
    it has observed the others' (see `ring_exchange`).
    """
    nt = params.N_tilde
    r = {i: rng.fork(f"ring:party:{i}").unit(nt) for i in range(1, params.n + 1)}
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
    Q_{ij} = Y_j^{N~} * (1+N~)^{q_j^(d)(i)} mod N~^2.  The Y products
    telescope to 1, so with its own factor these multiply to
    (1+N~)^{q^(d)(i)}, and user i reads q^(d)(i), one point on the hidden
    zero-constant sum polynomial, off them with one half-width product a
    factor, without forming the product (`share_exchange`).

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

def group_degree(params: PdaParams, key: PdaEncKey, group: Sequence[int]) -> int:
    """The key degree |P|-1 that `key` encodes with over `group`: refused
    with GroupBelowThreshold below max(theta_min, hardened_k + 2), and
    with KeyMissing if the key lacks that degree."""
    size = len(group)
    theta = max(params.theta_min, key.hardened_k + 2)
    if size < theta:
        raise GroupBelowThreshold(f"|P|={size} below threshold {theta}")
    d = size - 1
    if d not in key.evaluations:
        raise KeyMissing(f"user {key.id} has no degree-{d} evaluation")
    return d


def mask_exponent(params: PdaParams, key: PdaEncKey, group: Sequence[int]) -> int:
    """s = q^(|P|-1)(i) * lambda_{i,P} reduced mod N~."""
    d = group_degree(params, key, group)
    return key.evaluations[d] * lagrange_weights(group)[key.id] % params.N_tilde


def encode_value(
    params: PdaParams, key: PdaEncKey, group: Sequence[int], x: int, e: int, t: int
) -> int:
    """C(x) = x^e * H(t)^s mod N with s = q * lambda, by its definition:
    the reference that `encode_many`'s batched masks h^{a_t * s mod N~}
    equal, as ord(h) | N~."""
    mask = pow(params.hash_slot(t), mask_exponent(params, key, group), params.N)
    if e == 0:
        return mask
    return pow(x % params.N, e, params.N) * mask % params.N


def encode_many(
    params: PdaParams,
    keys: Sequence[PdaEncKey],
    query: PdaQuery,
    data: Mapping[int, Sequence[int]],
) -> dict[int, list[int]]:
    """{key.id: the m encoded values of that user for one query, in term
    order, each equal to `encode_value`'s}, users' values in `data`.

    Terms a user does not appear in are encoded with exponent 0 (the
    mask must still be contributed); an exponent for a term outside
    0..m-1 is ignored.  Every key and every user's values are checked
    before any mask is computed; then the m masks H(t)^s of the window
    of every user are one fixed-base batch, users in `keys` order, and
    x^e is taken only where e != 0.  The window's slot exponents a_t are
    derived once a call, for all of its members.
    """
    m = query.m
    if query.window.length != m:
        raise ValueError("need one window slot per term")
    n, n_tilde = params.N, params.N_tilde
    exponents = []
    for key in keys:
        if len(data[key.id]) != m:
            raise ValueError(f"user {key.id}: need one value per term")
        if key.id not in query.participants:
            raise KeyMissing(f"user {key.id} not in the query group")
        exponents.append(mask_exponent(params, key, query.participants))
    w = query.window
    slots = [slot_exponent(t, n_tilde, params.hash_seed) for t in range(w.start, w.end)]
    batch = [a_t * s % n_tilde for s in exponents for a_t in slots]
    masks = fixed_base_pows(params.h, batch, n, n_tilde)
    out = {}
    for j, key in enumerate(keys):
        values = out[key.id] = masks[j * m : (j + 1) * m]
        for k, e in query.exponents.get(key.id, {}).items():
            if e and 0 <= k < m:
                values[k] = pow(data[key.id][k] % n, int(e), n) * values[k] % n
    return out


def encode_user2(agg_pk: paillier.AggPublicKey, plain: Sequence[int], rng: Rng) -> list[int]:
    """User 2's bridge: its ordinary encodings `plain` (term-ordered, from
    `encode_many`) wrapped in the aggregator's encryption."""
    return paillier.encrypt_many(agg_pk, plain, rng=rng)


def blinding_units(pk: paillier.AggPublicKey, m: int, rng: Rng) -> list[int]:
    """m units of Z_{n^2}* whose product is 1; [1] when m = 1."""
    if m < 1:
        raise ValueError("need at least one term")
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
    own_encodings: Sequence[int],
    other_encodings: Mapping[int, Sequence[int]],
    user2_cts: Sequence[int],
    rng: Rng,
) -> list[int]:
    """Blinded term ciphertexts {K_k * E(C(x_2k))^{e_k}} published by user 1.

    e_k = c_k * prod_{i != 2} C(x_ik) mod N folds the coefficient into the
    one scalar, so each term costs a single homomorphic scale.  Its
    plaintext C(x_2k) * e_k stays below N^2, and sum_k C(x_2k) * e_k is
    congruent to f(x_P) mod N.  The blinding units multiply to 1 so the
    aggregate is unaffected while no single term ciphertext decrypts to
    its term value.
    """
    u1, u2 = query.special_users()
    expected = [i for i in query.participants if i not in (u1, u2)]
    for i in expected:
        if len(other_encodings.get(i, ())) != query.m:
            raise MissingEncoding(f"user {i}: no 'encode' message of {query.m} terms")
    if len(user2_cts) != query.m:
        raise MissingEncoding(f"user {u2}: no 'encode-enc' message of {query.m} terms")
    if len(own_encodings) != query.m:
        raise MissingEncoding(f"user {u1}: no own encoding of each of {query.m} terms")

    units = blinding_units(agg_pk, query.m, rng.fork("user1:blind"))
    columns = zip(own_encodings, *(other_encodings[i] for i in expected))
    terms = []
    for e, ct, column in zip(query.coeffs, user2_cts, columns):
        for x in column:
            e = e * x % params.N
        terms.append((ct, e))
    scaled = paillier.scale_many(agg_pk, terms)
    return [u * c % agg_pk.nsq for u, c in zip(units, scaled)]


def aggregate(
    params: PdaParams, agg_keys: paillier.AggKeyPair, blinded: Sequence[int]
) -> int:
    """Multiply, decrypt the integer sum, reduce mod N: exact f(x_P)."""
    if not blinded:
        raise MissingEncoding("no blinded term to aggregate")
    acc = 1
    for ct in blinded:
        acc = acc * ct % agg_keys.nsq
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
