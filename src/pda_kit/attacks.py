"""Attacks on the framework's key ceremony.

Each attack works only from the public params, a ceremony transcript and
the coalition's own keys, and returns a typed outcome.  The coalition
interpolation attack recovers a victim's key point exactly once the
coalition reaches the hidden polynomial degree, and below it returns a
constructive two-witness proof that the point is undetermined.  The
rushing-attack demonstration runs the ring exchange with an adaptive
neighbour and predicts the victim's mask off the wire: it matches on the
base ring and fails on the hardened relay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import netsim, pda
from .bus import Bus, CeremonyResult
from .errors import SingularSystem
from .numtheory import evaluate_packed, mod_inv
from .rng import Rng


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
                a[row] = [(v - factor * w) % modulus for v, w in zip(a[row], a[col])]
    return [a[i][size] % modulus for i in range(size)]


def _interpolate(points: Sequence[tuple[int, int]], modulus: int) -> list[int]:
    """Coefficients of x^1 .. x^d of the zero-constant degree-d polynomial
    through d points (x, y) with distinct nonzero x."""
    degree = len(points)
    matrix = [[pow(x, t, modulus) for t in range(1, degree + 1)] for x, _ in points]
    return _solve_mod(matrix, [y for _, y in points], modulus)


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
    the victim's key evaluation follows.  With s < d two zero-constant
    degree-d polynomials through every coalition point, one taking 0 and
    the other 1 at the victim, are returned as a constructive witness
    that the victim's key is information-theoretically undetermined.
    """
    if victim in coalition:
        raise SingularSystem(f"victim {victim} is in the coalition")
    if degree < 1:
        raise ValueError("degree must be positive")
    members = sorted(coalition)
    s = len(members)

    if s >= degree:
        coeffs = _interpolate([(i, coalition[i]) for i in members[:degree]], n_tilde)
        extra = members[degree:]
        *checks, (recovered,) = evaluate_packed([coeffs], [*extra, victim], n_tilde)
        for i, (value,) in zip(extra, checks):
            if value != coalition[i] % n_tilde:
                raise SingularSystem(f"coalition point of {i} is inconsistent")
        return CollusionOutcome(status="recovered", recovered=recovered)

    # Underdetermined: pad the coalition points with zeros at d-s-1 fresh
    # abscissae above every ID, then let the victim's value fill the last row.
    top = max([*members, victim])
    points = [(i, coalition[i]) for i in members]
    points += [(top + j, 0) for j in range(1, degree - s)]
    w0, w1 = (tuple(_interpolate([*points, (victim, v)], n_tilde)) for v in (0, 1))
    return CollusionOutcome(status="undetermined", witnesses=(w0, w1))


# ---------------------------------------------------------------------------
# rushing attack demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RushingOutcome:
    predicted: int
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
    from y_v in the transcript's first round; the hardened relay breaks
    the prediction.
    """
    ids = tuple(range(1, params.n + 1))
    pos = ids.index(victim)
    attacker, after = ids[pos - 1], ids[(pos + 1) % len(ids)]
    nt = params.N_tilde
    a = Rng(seed).fork("attack:a").unit(nt)
    shift = mod_inv(pow(params.g_tilde, a, nt), nt)

    def driver(bus: Bus, crng: Rng):
        return pda.ring_share(
            bus,
            params,
            crng.fork("ring"),
            k_collusion=hardened_k,
            late={attacker: lambda y: y[after] * shift % nt},
        )

    result = netsim.run_ceremony(driver, ids, seed)
    y_victim = next(m.body[0] for m in result.bus.rounds[0] if m.sender == victim)
    predicted = pow(y_victim, a, nt)
    return RushingOutcome(predicted, predicted == result.outputs[victim], result)
