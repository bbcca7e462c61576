"""Deployment flows for the arithmetic protocol.

Authority-participant: a virtual participant (ID n+1) joins key
generation; real participants encrypt term factors multiplicatively and
only the authority, holding the virtual keys, can complete each product
term.  Single-owner terms, which that round would reveal one by one, go
through an extra additive round that discloses only their sum.

All-participants: no authority; broadcasts decrypt for every group
member, the lowest-ID owner plays the mask-completion role in the extra
additive round and publishes the recovered sum.

Every reader computes from its own secrets and the messages the bus
delivers to it, once `Bus.deliver` has checked their round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from . import arith
from .bus import Bus
from .errors import DuplicateId, GroupTooSmall, ResultOverflow
from .errors import field, hex_field, json_int, json_key


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
        if len(members) != len(self.participants):
            raise DuplicateId(f"repeated participants in {list(self.participants)}")
        for term in self.terms:
            if len(dict(term.powers)) != len(term.powers):
                raise ValueError(f"a term names a participant twice: {term.powers}")
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
        def powers(ps) -> tuple[tuple[int, int], ...]:
            return tuple((json_key(i), json_int(d)) for i, d in ps.items())

        def term(t) -> PolyTerm:
            return PolyTerm(coeff=hex_field(t, "coeff"), powers=field(t, "powers", powers))

        return cls(
            terms=field(doc, "terms", lambda ts: tuple(map(term, ts))),
            participants=field(doc, "participants", lambda ps: tuple(map(json_int, ps))),
        )


def evaluate_plaintext(poly: AggPolynomial, data: Mapping[int, int], p: int) -> int:
    total = 0
    for term in poly.terms:
        value = term.coeff % p
        for i, d in term.powers:
            value = value * pow(data[i] % p, d, p) % p
        total = (total + value) % p
    return total


def check_no_overflow(poly: AggPolynomial, data: Mapping[int, int]) -> int:
    """Exact integer value of f, not reduced mod p; `assert_fits` raises if it would wrap.

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


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _term_factor(term: PolyTerm, user: int, x: int, p: int, fold_coeff: bool) -> int:
    value = pow(x % p, term.power_of(user), p)
    if fold_coeff:
        value = value * (term.coeff % p) % p
    return value


def _sigma_masks(
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    sigma: Sequence[PolyTerm],
    completer: int,
) -> dict[int, int]:
    """Each additive mask share of the extra additive round, over the
    owners of the single-owner terms plus the completer."""
    group = tuple(sorted({term.owners[0] for term in sigma} | {completer}))
    if len(group) < params.n_min:
        raise GroupTooSmall(f"sigma group of {len(group)} below n_min={params.n_min}")
    return {i: arith.mask_exponent(params, enc_keys[i], group) for i in group}


def _mul_masks(
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    poly: AggPolynomial,
    group: tuple[int, ...],
) -> dict[int, int]:
    """Each member's multiplicative mask over `group`, one fixed-base
    batch for the group; none when `poly` has no multi-owner term to put
    them on.

    A member puts this one mask on its factor of every multi-owner term,
    so the ratio of two of its ciphertexts is its value to a public
    power: the leak "arith masks repeat" of ROADMAP.md item 6.  Computing
    the mask once here makes that sharing visible but does not create
    it; the per-term masks of item 7 would remove it.
    """
    if len(group) < params.n_min:
        raise GroupTooSmall(f"group of {len(group)} below n_min={params.n_min}")
    if all(len(term.owners) == 1 for term in poly.terms):
        return {}
    return arith.mul_masks(params, [enc_keys[i] for i in group], group)


def _delivered(bus: Bus, kinds: Collection[str], senders: Sequence[int]) -> list[list[int]]:
    """For each of `kinds`, the one-value bodies from `senders` in their order,
    once `Bus.deliver` has checked the round holds one message of each."""
    shape = bus.shape((i, None, kind, 1) for kind in kinds for i in senders)
    got = {(m.kind, m.sender): m.body[0] for m in bus.deliver(shape)}
    return [[got[kind, i] for i in senders] for kind in kinds]


def _extra_additive(
    bus: Bus,
    params: arith.ArithParams,
    sigma: Sequence[PolyTerm],
    data: Mapping[int, int],
    masks: Mapping[int, int],
    completer: int,
) -> int:
    """Owners additively encrypt their (locally pre-summed) single-owner
    terms under their `_sigma_masks` share; the completer finishes the
    masked sum it receives with its own share.
    """
    p = params.p
    partial = dict.fromkeys(masks, 0)
    for term in sigma:
        owner = term.owners[0]
        partial[owner] = (partial[owner] + _term_factor(term, owner, data[owner], p, True)) % p

    senders = [i for i in sorted(masks) if i != completer]
    bus.begin_round()
    for i in senders:
        bus.post(i, "enc-add-sigma", ((partial[i] + masks[i]) % p,))
    (masked,) = _delivered(bus, ["enc-add-sigma"], senders)
    return (sum(masked) + partial[completer] + masks[completer]) % p


def _multiplicative_round(
    bus: Bus,
    params: arith.ArithParams,
    poly: AggPolynomial,
    data: Mapping[int, int],
    masks: Mapping[int, int],
) -> list[int]:
    """The round both flows share: each participant broadcasts its factor of
    every multi-owner term times its `_mul_masks` mask, with the lowest
    participant folding in the coefficient.

    Returns the product of each multi-owner term's delivered ciphertexts.
    """
    p = params.p
    fold_owner = min(poly.participants)
    kinds = {f"enc-mul:{k}": term for k, term in enumerate(poly.terms) if len(term.owners) != 1}

    bus.begin_round()
    for kind, term in kinds.items():
        for i in poly.participants:
            x_hat = _term_factor(term, i, data[i], p, fold_coeff=(i == fold_owner))
            bus.post(i, kind, (x_hat * masks[i] % p,))
    products = []
    for values in _delivered(bus, kinds, poly.participants):
        product = 1
        for value in values:
            product = product * value % p
        products.append(product)
    return products


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
    A P that names the virtual participant is refused with DuplicateId:
    P* would be P, and the authority's mask would be applied twice.
    Every participant's key and value, and every mask (so every group
    and key share), are checked before the first post.
    """
    poly.validate()
    if virtual_id in poly.participants:
        raise DuplicateId(f"virtual participant {virtual_id} is among the participants")
    sigma = [term for term in poly.terms if len(term.owners) == 1]
    group = tuple(sorted(set(poly.participants) | {virtual_id}))
    arith.require_inputs(enc_keys, group, data, poly.participants)
    masks = _mul_masks(params, enc_keys, poly, group)
    if sigma:
        sigma_masks = _sigma_masks(params, enc_keys, sigma, virtual_id)
    products = _multiplicative_round(bus, params, poly, data, masks)
    total = sum(masks[virtual_id] * product for product in products)
    if sigma:
        total += _extra_additive(bus, params, sigma, data, sigma_masks, completer=virtual_id)
    return total % params.p


# ---------------------------------------------------------------------------
# all-participants model
# ---------------------------------------------------------------------------

def all_participants_aggregate(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    poly: AggPolynomial,
    data: Mapping[int, int],
) -> dict[int, int]:
    """Every group member computes the identical f(x_P) from the broadcasts.

    Multi-owner terms decrypt directly (full mask cancellation over P);
    single-owner terms use the extra additive round with the lowest-ID
    owner completing the mask and publishing the sum.  Every
    participant's key and value, and every mask, are checked before the
    first post.
    """
    poly.validate()
    sigma = [term for term in poly.terms if len(term.owners) == 1]
    group = tuple(sorted(poly.participants))
    arith.require_inputs(enc_keys, group, data, group)
    masks = _mul_masks(params, enc_keys, poly, group)
    if sigma:
        designated = min(term.owners[0] for term in sigma)
        sigma_masks = _sigma_masks(params, enc_keys, sigma, designated)
    products = _multiplicative_round(bus, params, poly, data, masks)
    total = sum(products)
    if sigma:
        sigma_sum = _extra_additive(bus, params, sigma, data, sigma_masks, completer=designated)
        bus.begin_round()
        bus.post(designated, "sigma-sum", (sigma_sum,))
        total += _delivered(bus, ["sigma-sum"], [designated])[0][0]
    return {i: total % params.p for i in group}
