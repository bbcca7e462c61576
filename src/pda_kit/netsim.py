"""Ceremony drivers on the broadcast bus; the attacks on them live in `attacks`.

run_ceremony wires a seeded stream and a fresh bus into a driver and
packages transcript, outputs and byte accounting.  The drivers assemble
each scheme's system (set-up and key ceremony) and run its aggregations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import arith, paillier, pda
from .bus import Bus, CeremonyResult
from .errors import GroupTooSmall, IncompleteGroup, KeyMissing, MissingEncoding
from .errors import ProtocolError, ResultOverflow
from .rng import Rng


def run_ceremony(
    driver: Callable[[Bus, Rng], object],
    parties: Sequence[int],
    seed: int | str | bytes,
) -> CeremonyResult:
    """Run `driver(bus, rng)` on a fresh bus; deterministic in seed."""
    bus = Bus(parties)
    rng = Rng(seed)
    try:
        outputs = driver(bus, rng)
    except ProtocolError as exc:
        raise type(exc)(f"[round {bus.round_no}] {exc}").with_traceback(
            exc.__traceback__
        ) from None
    return CeremonyResult(outputs=outputs, bus=bus)


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------

@dataclass
class ArithSystem:
    params: arith.ArithParams
    master_keys: dict[int, int]
    enc_keys: dict[int, arith.ArithEncKey]
    ids: tuple[int, ...]
    virtual_id: int | None = None


def keygen_arith(
    params: arith.ArithParams,
    seed: int | str | bytes,
    with_authority: bool = False,
) -> tuple[ArithSystem, CeremonyResult]:
    """Initialize + Keygen over users 1..n.  With an authority, a virtual
    participant with ID n+1 joins both ceremonies and its keys go to the authority."""
    virtual_id = params.n + 1 if with_authority else None
    ids = tuple(range(1, (virtual_id or params.n) + 1))

    def driver(bus: Bus, rng: Rng):
        masters = arith.initialize(bus, params, rng.fork("initialize"), ids=ids)
        return masters, arith.keygen(bus, params, rng.fork("keygen"), masters)

    result = run_ceremony(driver, ids, seed)
    masters, keys = result.outputs
    system = ArithSystem(
        params=params, master_keys=masters, enc_keys=keys, ids=ids, virtual_id=virtual_id
    )
    return system, result


def build_arith_system(
    kappa: int,
    n: int,
    n_min: int,
    seed: int | str | bytes,
    with_authority: bool = False,
) -> tuple[ArithSystem, CeremonyResult]:
    """Setup, then `keygen_arith` at the same seed."""
    params = arith.setup(kappa, n, n_min, Rng(seed).fork("setup"))
    return keygen_arith(params, seed, with_authority=with_authority)


def run_arith_group_aggregation(
    system: ArithSystem,
    group: Sequence[int],
    values: Mapping[int, int],
    op: str,
) -> tuple[int, CeremonyResult]:
    """Single sum or product over one group: one `arith.masked_round`, no completer.

    Each member posts x_i + R_i*lambda_i mod p for a sum, or
    x_i * g^{R_i*lambda_i} mod p for a product, whose masks are one
    fixed-base batch for the group; the masks cancel in the sum or
    product of the bodies `Bus.deliver` hands back.

    A member without a key or a value is refused before the ceremony, and
    a group below n_min or a key without its size before the round opens,
    so every refusal leaves an empty transcript.
    """
    if op not in ("add", "mul"):
        raise ValueError("op must be 'add' or 'mul'")
    arith.require_inputs(system.enc_keys, group, values, group)
    params, ids = system.params, tuple(sorted(group))

    def driver(bus: Bus, crng: Rng):
        if len(ids) < params.n_min:
            raise GroupTooSmall(f"|P|={len(ids)} below n_min={params.n_min}")
        if op == "add":
            masks = {i: arith.mask_exponent(params, system.enc_keys[i], ids) for i in ids}
        else:
            masks = arith.mul_masks(params, [system.enc_keys[i] for i in ids], ids)
        xs = {f"enc-{op}": {i: values[i] for i in ids}}
        return arith.masked_round(bus, params.p, op, xs, masks)[0]

    result = run_ceremony(driver, ids, 0)  # the driver draws nothing
    return result.outputs, result


@dataclass
class PdaSystem:
    params: pda.PdaParams
    agg_keys: paillier.AggKeyPair
    enc_keys: dict[int, pda.PdaEncKey]
    registry: pda.SlotRegistry = field(default_factory=pda.SlotRegistry)

    @property
    def agg_pk(self) -> paillier.AggPublicKey:
        return self.agg_keys.public()


AGGREGATOR_ID = 0


def keygen_pda(
    params: pda.PdaParams,
    seed: int | str | bytes,
    hardened_k: int = 0,
    m_max: int = 64,
    degrees: Sequence[int] | None = None,
) -> tuple[PdaSystem, CeremonyResult]:
    """Aggregator keypair sized for m_max terms, then the user key ceremony."""
    agg_bits = paillier.required_bits(params.N, m_max)
    agg_keys = paillier.keygen(agg_bits, Rng(seed).fork("aggregator"))

    def driver(bus: Bus, rng: Rng):
        y = pda.ring_share(bus, params, rng.fork("ring"), k_collusion=hardened_k)
        return pda.keygen(
            bus, params, rng.fork("queries"), y, degrees=degrees, hardened_k=hardened_k
        )

    result = run_ceremony(driver, tuple(range(1, params.n + 1)), seed)
    return PdaSystem(params=params, agg_keys=agg_keys, enc_keys=result.outputs), result


def build_pda_system(
    kappa: int,
    n: int,
    theta_min: int,
    seed: int | str | bytes,
    hardened_k: int = 0,
    m_max: int = 64,
    degrees: Sequence[int] | None = None,
) -> tuple[PdaSystem, CeremonyResult]:
    """Setup, then `keygen_pda` at the same seed."""
    params = pda.setup(kappa, n, theta_min, Rng(seed).fork("setup"))
    return keygen_pda(params, seed, hardened_k=hardened_k, m_max=m_max, degrees=degrees)


def run_pda_aggregation(
    system: PdaSystem,
    query: pda.PdaQuery,
    data: Mapping[int, Sequence[int]],
    seed: int | str | bytes,
    registry: pda.SlotRegistry | None = None,
) -> tuple[int, CeremonyResult]:
    """Declaration round, then the two broadcast rounds of one evaluation:
    user 1 computes from the round-2 messages it receives, the aggregator
    decrypts the 'blinded-term' one, and `Bus.deliver` refuses a round
    that lacks a message (MissingEncoding) or holds another.

    A query that fails validation, names a participant without a key,
    without m values in `data` or with a key that refuses the group, or
    whose term sum the aggregator key cannot hold is refused before its
    window is claimed, against the registry, before any message is
    emitted; an overlap aborts with an empty transcript.
    """

    def encoded() -> dict[int, list[int]]:
        return _encodings(system, query, data)

    return _aggregation(system, query, data, seed, registry, encoded)


def _encodings(
    system: PdaSystem, query: pda.PdaQuery, data: Mapping[int, Sequence[int]]
) -> dict[int, list[int]]:
    """Every participant's encodings for one aggregation, from its own key
    and values alone; the masks of every participant are one batch."""
    keys = [system.enc_keys[i] for i in query.participants]
    return pda.encode_many(system.params, keys, query, data)


def _aggregation(
    system: PdaSystem,
    query: pda.PdaQuery,
    data: Mapping[int, Sequence[int]],
    seed: int | str | bytes,
    registry: pda.SlotRegistry | None,
    encoded: Callable[[], dict[int, list[int]]],
) -> tuple[int, CeremonyResult]:
    """`run_pda_aggregation`, with the encodings `_encodings` returns taken
    from `encoded()` once the declaration round is over."""
    params = system.params
    query.validate(params)
    missing = sorted(set(query.participants) - set(system.enc_keys))
    if missing:
        raise KeyMissing(f"no key for participants {missing}")
    short = sorted(i for i in query.participants if len(data.get(i, ())) != query.m)
    if short:
        raise IncompleteGroup(f"no {query.m} values for participants {short}")
    for i in query.participants:
        pda.group_degree(params, system.enc_keys[i], query.participants)
    need, have = paillier.required_bits(params.N, query.m), system.agg_pk.n.bit_length()
    if have < need:
        raise ResultOverflow(f"{query.m} terms need a {need}-bit aggregator key, have {have}")
    registry = registry if registry is not None else system.registry
    registry.claim(query.window)

    u1, u2 = query.special_users()
    ordinary = [i for i in query.participants if i not in (u1, u2)]

    def driver(bus: Bus, crng: Rng):
        declaration = (query.window.start, query.window.length, *sorted(query.participants))
        bus.post(AGGREGATOR_ID, "declare", declaration)
        bus.deliver(bus.shape([(AGGREGATOR_ID, None, "declare", len(declaration))]))

        encodings = encoded()

        # each sender's encodings for the window travel as one broadcast,
        # term values in window order; user 1 reads them off its inbox
        for i in ordinary:
            bus.post(i, "encode", encodings[i])
        user2_cts = pda.encode_user2(system.agg_pk, encodings[u2], crng.fork(f"user2:{u2}"))
        bus.post(u2, "encode-enc", user2_cts)
        shape = [(i, None, "encode", query.m) for i in ordinary]
        shape.append((u2, None, "encode-enc", query.m))
        inbox = {msg.sender: msg.body for msg in bus.deliver(bus.shape(shape), MissingEncoding)}

        blinded = pda.encode_user1(
            params,
            system.agg_pk,
            query,
            encodings[u1],
            inbox,
            inbox[u2],
            crng.fork(f"user1:{u1}"),
        )
        bus.post(u1, "blinded-term", tuple(blinded))
        (terms,) = bus.deliver(bus.shape([(u1, None, "blinded-term", query.m)]), MissingEncoding)
        return pda.aggregate(params, system.agg_keys, terms.body)

    parties = (AGGREGATOR_ID, *query.participants)
    result = run_ceremony(driver, parties, seed)
    return result.outputs, result
