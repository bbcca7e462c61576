"""Deployment flows for the arithmetic protocol.

Authority-participant: a virtual participant (ID n+1) joins key
generation; real participants encrypt term factors multiplicatively and
only the authority, holding the virtual keys, can complete each product
term.  Single-owner terms would be revealed term-by-term, so they are
always routed through an extra additive round that discloses only their
sum.

All-participants: no authority; broadcasts decrypt for every group
member, the lowest-ID owner plays the mask-completion role in the extra
additive round and publishes the recovered sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import arith
from .bus import Bus
from .errors import GroupTooSmall, IncompleteBroadcast, ResultOverflow


@dataclass(frozen=True)
class PolyTerm:
    coeff: int
    powers: tuple[tuple[int, int], ...]  # (participant, exponent), exponent > 0

    def power_of(self, user: int) -> int:
        for i, d in self.powers:
            if i == user:
                return d
        return 0

    @property
    def owners(self) -> tuple[int, ...]:
        return tuple(i for i, d in self.powers if d != 0)


@dataclass(frozen=True)
class AggPolynomial:
    """Public description of f(x_P) = sum of coefficient * product terms."""

    terms: tuple[PolyTerm, ...]
    participants: tuple[int, ...]

    def validate(self) -> None:
        members = set(self.participants)
        for term in self.terms:
            for i, d in term.powers:
                if i not in members:
                    raise ValueError(f"term references non-member {i}")
                if d <= 0:
                    raise ValueError("stored powers must be positive")

    def to_json(self) -> dict:
        return {
            "modulus_ref": "arith",
            "terms": [
                {
                    "coeff": format(t.coeff, "x"),
                    "powers": {str(i): d for i, d in t.powers},
                }
                for t in self.terms
            ],
            "participants": list(self.participants),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AggPolynomial":
        terms = tuple(
            PolyTerm(
                coeff=int(t["coeff"], 16),
                powers=tuple((int(i), int(d)) for i, d in t["powers"].items()),
            )
            for t in doc["terms"]
        )
        return cls(terms=terms, participants=tuple(int(p) for p in doc["participants"]))


def evaluate_plaintext(poly: AggPolynomial, data: Mapping[int, int], p: int) -> int:
    total = 0
    for term in poly.terms:
        value = term.coeff % p
        for i, d in term.powers:
            value = value * pow(data[i] % p, d, p) % p
        total = (total + value) % p
    return total


def check_no_overflow(poly: AggPolynomial, data: Mapping[int, int]) -> int:
    """Exact integer value of f; raises when the mod-p result would wrap.

    Only callable where plaintext data is available (tests, fixtures);
    the protocol itself cannot detect the condition.
    """
    total = 0
    for term in poly.terms:
        value = term.coeff
        for i, d in term.powers:
            value *= data[i] ** d
        total += value
    return total


def assert_fits(poly: AggPolynomial, data: Mapping[int, int], p: int) -> None:
    exact = check_no_overflow(poly, data)
    if not 0 <= exact < p:
        raise ResultOverflow(f"f(x) = {exact} outside [0, {p})")


def detect_single_value_terms(poly: AggPolynomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of terms owned by exactly one participant, and the owner group."""
    indices = tuple(
        k for k, term in enumerate(poly.terms) if len(term.owners) == 1
    )
    owners = tuple(sorted({poly.terms[k].owners[0] for k in indices}))
    return indices, owners


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _term_factor(term: PolyTerm, user: int, x: int, p: int, fold_coeff: bool) -> int:
    value = pow(x % p, term.power_of(user), p)
    if fold_coeff:
        value = value * (term.coeff % p) % p
    return value


def _extra_additive(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    sigma_terms: Sequence[tuple[int, PolyTerm]],
    data: Mapping[int, int],
    completer: int,
    broadcast_sum: bool,
) -> int:
    """Owners additively encrypt their (locally pre-summed) flagged values
    over the owner group plus the completer; the completer finishes the
    masked sum with its own share.
    """
    if not sigma_terms:
        return 0
    p = params.p
    owners = sorted({term.owners[0] for _, term in sigma_terms})
    group = tuple(sorted(set(owners) | {completer}))
    if len(group) < params.n_min:
        raise GroupTooSmall(
            f"sigma group of {len(group)} below n_min={params.n_min}"
        )

    partial: dict[int, int] = {i: 0 for i in owners}
    for _, term in sigma_terms:
        owner = term.owners[0]
        partial[owner] = (partial[owner] + _term_factor(term, owner, data[owner], p, True)) % p

    bus.begin_round()
    cts = {}
    for i in owners:
        if i == completer:
            continue
        ct = arith.encrypt_add(params, enc_keys[i], group, partial[i])
        cts[i] = ct.value
        bus.post(i, "enc-add-sigma", (ct.value,))
    bus.end_round()

    masked = sum(cts.values())
    completion = arith.mask_exponent(params, enc_keys[completer], group)
    own = partial.get(completer, 0)
    total = (masked + own + completion) % p

    if broadcast_sum:
        bus.begin_round()
        bus.post(completer, "sigma-sum", (total,))
        bus.end_round()
    return total


# ---------------------------------------------------------------------------
# authority-participant model
# ---------------------------------------------------------------------------

def authority_aggregate(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    virtual_id: int,
    poly: AggPolynomial,
    data: Mapping[int, int],
) -> int:
    """Evaluate f(x_P); only the authority (holder of the virtual keys) learns it.

    Every real participant encrypts its factor of every multi-owner term
    multiplicatively over P* = P + {virtual}; the authority completes each
    term with the virtual mask share g^{R*lambda} and sums.  Single-owner
    terms go through the extra additive round instead of being broadcast.
    """
    poly.validate()
    p = params.p
    group = tuple(sorted(set(poly.participants) | {virtual_id}))
    if len(group) < params.n_min:
        raise GroupTooSmall(f"|P*|={len(group)} below n_min={params.n_min}")
    sigma_idx, _ = detect_single_value_terms(poly)
    multi = [(k, t) for k, t in enumerate(poly.terms) if k not in sigma_idx]
    sigma = [(k, poly.terms[k]) for k in sigma_idx]
    fold_owner = min(poly.participants)

    bus.begin_round()
    received: dict[int, dict[int, int]] = {k: {} for k, _ in multi}
    for k, term in multi:
        for i in poly.participants:
            x_hat = _term_factor(term, i, data[i], p, fold_coeff=(i == fold_owner))
            ct = arith.encrypt_mul(params, enc_keys[i], group, x_hat)
            received[k][i] = ct.value
            bus.post(i, f"enc-mul:{k}", (ct.value,))
    bus.end_round()

    completion = arith.mask_exponent(params, enc_keys[virtual_id], group)
    g_comp = pow(params.g, completion % (p - 1), p)
    total = 0
    for k, _ in multi:
        product = g_comp
        for value in received[k].values():
            product = product * value % p
        total = (total + product) % p

    total = (total + _extra_additive(
        bus, params, enc_keys, sigma, data, completer=virtual_id, broadcast_sum=False
    )) % p
    return total


# ---------------------------------------------------------------------------
# all-participants model
# ---------------------------------------------------------------------------

def all_participants_aggregate(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    poly: AggPolynomial,
    data: Mapping[int, int],
    dropouts: Sequence[int] = (),
) -> dict[int, int]:
    """Every group member computes the identical f(x_P) from the broadcasts.

    Multi-owner terms decrypt directly (full mask cancellation over P);
    single-owner terms use the extra additive round with the lowest-ID
    owner completing the mask and publishing the sum.
    """
    poly.validate()
    p = params.p
    group = tuple(sorted(poly.participants))
    if len(group) < params.n_min:
        raise GroupTooSmall(f"|P|={len(group)} below n_min={params.n_min}")
    dropouts = set(dropouts)
    sigma_idx, sigma_owners = detect_single_value_terms(poly)
    multi = [(k, t) for k, t in enumerate(poly.terms) if k not in sigma_idx]
    sigma = [(k, poly.terms[k]) for k in sigma_idx]
    fold_owner = min(group)

    bus.begin_round()
    received: dict[int, dict[int, int]] = {k: {} for k, _ in multi}
    for k, term in multi:
        for i in group:
            if i in dropouts:
                continue
            x_hat = _term_factor(term, i, data[i], p, fold_coeff=(i == fold_owner))
            ct = arith.encrypt_mul(params, enc_keys[i], group, x_hat)
            received[k][i] = ct.value
            bus.post(i, f"enc-mul:{k}", (ct.value,))
    bus.end_round()

    for k, _ in multi:
        if set(received[k]) != set(group):
            raise IncompleteBroadcast(
                f"term {k} missing ciphertexts from {sorted(set(group) - set(received[k]))}"
            )

    total = 0
    for k, _ in multi:
        product = 1
        for value in received[k].values():
            product = product * value % p
        total = (total + product) % p

    if sigma:
        designated = min(sigma_owners)
        total = (total + _extra_additive(
            bus, params, enc_keys, sigma, data, completer=designated, broadcast_sum=True
        )) % p

    return {i: total for i in group}
