"""Deployment flows for the arithmetic protocol.

Authority-participant: a virtual participant (ID n+1) joins key
generation; real participants encrypt term factors multiplicatively and
only the authority, holding the virtual keys, can complete each product
term.  Single-owner terms, which that round would reveal one by one, go
through an extra additive round that discloses only their sum.

All-participants: no authority; broadcasts decrypt for every group
member, the lowest-ID owner plays the mask-completion role in the extra
additive round and publishes the recovered sum.

Both flows are one implementation, each round a values-and-masks
builder and one `arith.masked_round` call, the virtual participant
completing both rounds of the authority flow.  Every reader computes
from its own secrets and the messages the bus delivers to it, once
`Bus.deliver` has checked their round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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


def _mul_round(
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    poly: AggPolynomial,
    data: Mapping[int, int],
    group: tuple[int, ...],
) -> tuple[dict[str, dict[int, int]], dict[int, int]]:
    """Values and masks of the multiplicative round: every member's factor
    of every multi-owner term, the lowest participant folding in the
    coefficient and a member outside `poly` (the virtual participant)
    with factor 1, and one fixed-base batch of masks; none without such terms.

    A member puts its one mask on its factor of every multi-owner term,
    so the ratio of two of its ciphertexts is its value to a public
    power: the leak "arith masks repeat" of ROADMAP.md item 6.  Computing
    the mask once here makes that sharing visible but does not create
    it; the per-term masks of item 7 would remove it.
    """
    if len(group) < params.n_min:
        raise GroupTooSmall(f"group of {len(group)} below n_min={params.n_min}")
    terms = {f"enc-mul:{k}": term for k, term in enumerate(poly.terms) if len(term.owners) != 1}
    if not terms:
        return {}, {}
    p, fold_owner, members = params.p, min(poly.participants), set(poly.participants)

    def factor(term: PolyTerm, i: int) -> int:
        return _term_factor(term, i, data[i], p, i == fold_owner) if i in members else 1

    values = {kind: {i: factor(term, i) for i in group} for kind, term in terms.items()}
    return values, arith.mul_masks(params, [enc_keys[i] for i in group], group)


def _sigma_round(
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    sigma: Sequence[PolyTerm],
    data: Mapping[int, int],
    completer: int,
) -> tuple[dict[str, dict[int, int]], dict[int, int]]:
    """Values and masks of the extra additive round over the single-owner
    terms' owners and the completer: each member's own such terms summed
    (0 for a completer that owns none), under its additive mask share."""
    group = tuple(sorted({term.owners[0] for term in sigma} | {completer}))
    if len(group) < params.n_min:
        raise GroupTooSmall(f"sigma group of {len(group)} below n_min={params.n_min}")
    p, partial = params.p, dict.fromkeys(group, 0)
    for term in sigma:
        owner = term.owners[0]
        partial[owner] = (partial[owner] + _term_factor(term, owner, data[owner], p, True)) % p
    masks = {i: arith.mask_exponent(params, enc_keys[i], group) for i in group}
    return {"enc-add-sigma": partial}, masks


def _aggregate(
    bus: Bus,
    params: arith.ArithParams,
    enc_keys: Mapping[int, arith.ArithEncKey],
    virtual_id: int | None,
    poly: AggPolynomial,
    data: Mapping[int, int],
) -> int:
    """Both flows: f(x_P) mod p from the multiplicative round, then the
    extra additive round if `poly` has single-owner terms.  A virtual
    participant completes both rounds; without one, the lowest-ID owner
    completes the additive round and broadcasts the sum."""
    poly.validate()
    if virtual_id in poly.participants:
        raise DuplicateId(f"virtual participant {virtual_id} is among the participants")
    p, sigma = params.p, [term for term in poly.terms if len(term.owners) == 1]
    group = tuple(sorted({*poly.participants, virtual_id} - {None}))
    arith.require_inputs(enc_keys, group, data, poly.participants)
    mul = _mul_round(params, enc_keys, poly, data, group)
    if sigma:
        completer = min(term.owners[0] for term in sigma) if virtual_id is None else virtual_id
        add = _sigma_round(params, enc_keys, sigma, data, completer)
    total = sum(arith.masked_round(bus, p, "mul", *mul, completer=virtual_id))
    if sigma:
        (sigma_sum,) = arith.masked_round(bus, p, "add", *add, completer=completer)
        if virtual_id is None:
            bus.post(completer, "sigma-sum", (sigma_sum,))
            sigma_sum = bus.deliver(bus.shape([(completer, None, "sigma-sum", 1)]))[0].body[0]
        total += sigma_sum
    return total % p


# ---------------------------------------------------------------------------
# the two deployment flows
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
    return _aggregate(bus, params, enc_keys, virtual_id, poly, data)


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
    total = _aggregate(bus, params, enc_keys, None, poly, data)
    return dict.fromkeys(sorted(poly.participants), total)
