"""Ceremony drivers and the adversary harness on the broadcast bus.

run_ceremony wires a seeded stream and a fresh bus into a driver and
packages transcript, outputs and byte accounting.  The attack side
implements the coalition interpolation attack (exact key recovery once
the coalition reaches the hidden polynomial degree, a constructive
two-witness ambiguity proof below it) and the rushing-attack
demonstration against the base and hardened ring exchanges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import arith, paillier, pda
from .bus import Bus, CeremonyResult
from .errors import KeyMissing, ProtocolError, ResultOverflow, SingularSystem
from .numtheory import mod_inv
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
    seed: int | str | bytes = 0,
) -> tuple[int, CeremonyResult]:
    """Single sum or product over one group: exactly one broadcast round."""
    if op not in ("add", "mul"):
        raise ValueError("op must be 'add' or 'mul'")
    encrypt = arith.encrypt_add if op == "add" else arith.encrypt_mul

    def driver(bus: Bus, crng: Rng):
        bus.begin_round()
        cts = []
        for i in sorted(group):
            ct = encrypt(system.params, system.enc_keys[i], group, values[i])
            cts.append(ct)
            bus.post(i, f"enc-{op}", (ct.value,))
        bus.end_round()
        return arith.decrypt(system.params, cts)

    result = run_ceremony(driver, tuple(sorted(group)), seed)
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
    """Declaration round, then the two broadcast rounds of one evaluation.

    A query that fails validation, names a participant without a key, or
    whose term sum the aggregator key cannot hold is refused before its
    window is claimed.  The window is claimed against the registry
    before any message is emitted; an overlap aborts with an empty
    transcript.
    """
    params = system.params
    query.validate(params)
    missing = sorted(set(query.participants) - set(system.enc_keys))
    if missing:
        raise KeyMissing(f"no key for participants {missing}")
    need, have = paillier.required_bits(params.N, query.m), system.agg_pk.n.bit_length()
    if have < need:
        raise ResultOverflow(f"{query.m} terms need a {need}-bit aggregator key, have {have}")
    registry = registry if registry is not None else system.registry
    registry.claim(query.window)

    u1, u2 = query.special_users()
    ordinary = [i for i in query.participants if i not in (u1, u2)]

    def driver(bus: Bus, crng: Rng):
        bus.begin_round()
        bus.post(
            AGGREGATOR_ID,
            "declare",
            (query.window.start, query.window.length, *sorted(query.participants)),
        )
        bus.end_round()

        # each sender's encodings for the window travel as one broadcast,
        # term values in window order
        bus.begin_round()
        others: dict[int, dict[int, int]] = {}
        for i in ordinary:
            enc = pda.encode_ordinary(params, system.enc_keys[i], query, data[i])
            others[i] = enc
            bus.post(i, "encode", tuple(enc[k] for k in range(query.m)))
        user2_cts = pda.encode_user2(
            params,
            system.agg_pk,
            system.enc_keys[u2],
            query,
            data[u2],
            crng.fork(f"user2:{u2}"),
        )
        bus.post(u2, "encode-enc", tuple(user2_cts[k] for k in range(query.m)))
        bus.end_round()

        own = pda.encode_ordinary(params, system.enc_keys[u1], query, data[u1])
        blinded = pda.encode_user1(
            params,
            system.agg_pk,
            query,
            own,
            others,
            user2_cts,
            crng.fork(f"user1:{u1}"),
        )
        bus.begin_round()
        bus.post(u1, "blinded-term", tuple(blinded))
        bus.end_round()

        return pda.aggregate(params, system.agg_keys, blinded)

    parties = (AGGREGATOR_ID, *query.participants)
    result = run_ceremony(driver, parties, seed)
    return result.outputs, result


# ---------------------------------------------------------------------------
# coalition interpolation attack
# ---------------------------------------------------------------------------

def _solve_mod(matrix: list[list[int]], rhs: list[int], modulus: int) -> list[int]:
    """Gaussian elimination mod `modulus` with unit-pivot search."""
    size = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = None
        for row in range(col, size):
            if math.gcd(a[row][col] % modulus, modulus) == 1:
                pivot = row
                break
        if pivot is None:
            raise SingularSystem(f"no invertible pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        inv = mod_inv(a[col][col], modulus)
        a[col] = [v * inv % modulus for v in a[col]]
        for row in range(size):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [
                    (v - factor * w) % modulus for v, w in zip(a[row], a[col])
                ]
    return [a[i][size] % modulus for i in range(size)]


def _poly_eval(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """Evaluate sum_j coeffs[j] * x^(j+1) (zero constant term)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc + c) * x % modulus
    return acc


@dataclass(frozen=True)
class CollusionOutcome:
    status: str  # "recovered" | "undetermined"
    recovered: int | None = None
    witnesses: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def collusion_attack(
    n_tilde: int,
    coalition: Mapping[int, int],
    degree: int,
    victim: int,
) -> CollusionOutcome:
    """Pool coalition key points against the degree-d hidden polynomial.

    With s >= d points the zero-constant polynomial is solved exactly and
    the victim's key evaluation follows.  With s < d two distinct
    zero-constant degree-d polynomials consistent with every coalition
    point are returned as a constructive witness that the victim's key is
    information-theoretically undetermined.
    """
    members = sorted(coalition)
    if len(set(members)) != len(members) or victim in coalition:
        raise SingularSystem("coalition IDs must be distinct and exclude the victim")
    s = len(members)
    if degree < 1:
        raise ValueError("degree must be positive")

    if s >= degree:
        solve_ids = members[:degree]
        matrix = [
            [pow(i, t, n_tilde) for t in range(1, degree + 1)] for i in solve_ids
        ]
        rhs = [coalition[i] for i in solve_ids]
        coeffs = _solve_mod(matrix, rhs, n_tilde)
        for i in members[degree:]:
            if _poly_eval(coeffs, i, n_tilde) != coalition[i] % n_tilde:
                raise SingularSystem(f"coalition point of {i} is inconsistent")
        return CollusionOutcome(status="recovered", recovered=_poly_eval(coeffs, victim, n_tilde))

    # Underdetermined: interpolate one candidate through the coalition points
    # padded with zero evaluations at fresh abscissae, then shift it by
    # x^(d-s) * prod (x - member): monic, vanishes at 0 and on the coalition.
    fresh = []
    x = max([*members, victim]) + 1
    while len(fresh) < degree - s:
        if x not in coalition:
            fresh.append(x)
        x += 1
    points = [(i, coalition[i]) for i in members] + [(j, 0) for j in fresh]
    matrix = [[pow(i, t, n_tilde) for t in range(1, degree + 1)] for i, _ in points]
    rhs = [v for _, v in points]
    base = _solve_mod(matrix, rhs, n_tilde)

    shift = [1]  # coefficients of prod (x - i), constant first
    for i in members:
        nxt = [0] * (len(shift) + 1)
        for t, c in enumerate(shift):
            nxt[t] = (nxt[t] - c * i) % n_tilde
            nxt[t + 1] = (nxt[t + 1] + c) % n_tilde
        shift = nxt
    # multiply by x^(degree-s): total degree d, no constant term
    full = [0] * (degree - s - 1) + shift  # coefficient of x^1 .. x^d
    second = tuple((b + f) % n_tilde for b, f in zip(base, full))
    return CollusionOutcome(
        status="undetermined", witnesses=(tuple(base), second)
    )


# ---------------------------------------------------------------------------
# rushing attack demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RushingOutcome:
    predicted: int
    actual: int
    matched: bool
    result: CeremonyResult


def rushing_attack_demo(
    params: pda.PdaParams,
    victim: int,
    seed: int | str | bytes,
    hardened_k: int = 0,
) -> RushingOutcome:
    """Adaptive neighbour against the ring exchange.

    The attacker sits just below the victim and, after seeing the honest
    broadcasts, publishes y_(v-1) = y_(v+1) * g~^(-a).  On the base ring
    the victim's mask collapses to y_v^a, which the attacker predicts
    from public data alone; the hardened relay breaks the prediction.
    """
    ids = tuple(range(1, params.n + 1))
    ring = sorted(ids)
    pos = ring.index(victim)
    attacker = ring[(pos - 1) % len(ring)]
    after = ring[(pos + 1) % len(ring)]
    nt = params.N_tilde
    a = Rng(seed).fork("attack:a").unit(nt)

    observed: dict[int, int] = {}

    def adaptive_pick(y_seen: Mapping[int, int]) -> int:
        observed.update(y_seen)
        return y_seen[after] * mod_inv(pow(params.g_tilde, a, nt), nt) % nt

    def driver(bus: Bus, crng: Rng):
        return pda.ring_share(
            bus,
            params,
            crng.fork("ring"),
            ids=ids,
            k_collusion=hardened_k,
            late={attacker: adaptive_pick},
        )

    result = run_ceremony(driver, ids, seed)
    y_victim = observed[victim]
    predicted = pow(y_victim, a, nt)
    actual = result.outputs[victim]
    return RushingOutcome(
        predicted=predicted,
        actual=actual,
        matched=predicted == actual,
        result=result,
    )
