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
from .errors import GroupTooSmall, ResultOverflow
from .errors import field, hex_field, json_int, json_key
from .numtheory import fixed_base_pow


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
    sigma: Sequence[PolyTerm],
    data: Mapping[int, int],
    completer: int,
) -> int:
    """Owners additively encrypt their (locally pre-summed) single-owner
    terms over the owner group plus the completer; the completer finishes
    the masked sum with its own share.
    """
    p = params.p
    owners = sorted({term.owners[0] for term in sigma})
    group = tuple(sorted(set(owners) | {completer}))
    if len(group) < params.n_min:
        raise GroupTooSmall(f"sigma group of {len(group)} below n_min={params.n_min}")

    partial: dict[int, int] = {i: 0 for i in owners}
    for term in sigma:
        owner = term.owners[0]
        partial[owner] = (partial[owner] + _term_factor(term, owner, data[owner], p, True)) % p

    bus.begin_round()
    masked = 0
    for i in owners:
        if i == completer:
            continue
        ct = arith.encrypt_add(params, enc_keys[i], group, partial[i])
        masked += ct.value
        bus.post(i, "enc-add-sigma", (ct.value,))
    bus.end_round()

    completion = arith.mask_exponent(params, enc_keys[completer], group)
    own = partial.get(completer, 0)
    return (masked + own + completion) % p


def _multiplicative_round(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    poly: AggPolynomial,
    data: Mapping[int, int],
    group: tuple[int, ...],
) -> tuple[list[int], list[PolyTerm]]:
    """The round both flows share: each participant broadcasts its factor of
    every multi-owner term, encrypted multiplicatively over `group`, with
    the lowest participant folding in the coefficient.

    Returns the product of each multi-owner term's ciphertexts and the
    single-owner terms left for the extra additive round.
    """
    poly.validate()
    p = params.p
    if len(group) < params.n_min:
        raise GroupTooSmall(f"group of {len(group)} below n_min={params.n_min}")
    fold_owner = min(poly.participants)

    bus.begin_round()
    products, sigma = [], []
    for k, term in enumerate(poly.terms):
        if len(term.owners) == 1:
            sigma.append(term)
            continue
        product = 1
        for i in poly.participants:
            x_hat = _term_factor(term, i, data[i], p, fold_coeff=(i == fold_owner))
            ct = arith.encrypt_mul(params, enc_keys[i], group, x_hat)
            product = product * ct.value % p
            bus.post(i, f"enc-mul:{k}", (ct.value,))
        products.append(product)
    bus.end_round()
    return products, sigma


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
    p = params.p
    group = tuple(sorted(set(poly.participants) | {virtual_id}))
    products, sigma = _multiplicative_round(bus, params, enc_keys, poly, data, group)
    completion = arith.mask_exponent(params, enc_keys[virtual_id], group)
    g_comp = fixed_base_pow(params.g, completion % (p - 1), p, p - 1)
    total = sum(g_comp * product for product in products)
    if sigma:
        total += _extra_additive(bus, params, enc_keys, sigma, data, completer=virtual_id)
    return total % p


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
    owner completing the mask and publishing the sum.
    """
    group = tuple(sorted(poly.participants))
    products, sigma = _multiplicative_round(bus, params, enc_keys, poly, data, group)
    total = sum(products)
    if sigma:
        designated = min(term.owners[0] for term in sigma)
        sigma_sum = _extra_additive(bus, params, enc_keys, sigma, data, completer=designated)
        bus.begin_round()
        bus.post(designated, "sigma-sum", (sigma_sum,))
        bus.end_round()
        total += sigma_sum
    return {i: total % params.p for i in group}
