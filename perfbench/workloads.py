"""The benchmark's workloads and their oracles.

Each workload fixes its shape in a spec: group sizes, terms, owners,
exponents and window layout.  A run's seed draws values only, so two
seeds do the same amount of work.  Keys come from a fixed key seed per
workload, so set-up repeats the same prime search and the same key
ceremony in every run.  Every oracle here is plain Python (or numpy)
written apart from the program; none calls the program's own
plaintext evaluators.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from pda_kit import analytics, models, netsim, pda
from pda_kit.bus import Bus


def _values(workload: str, seed: int, index: int) -> random.Random:
    """Value stream of operation `index`; independent of the program's Rng."""
    return random.Random(f"perfbench/{workload}/seed:{seed}/op:{index}")


class BusLog:
    """Collects the bus of every ceremony that `netsim.run_ceremony` runs.

    `analytics.run_plan` drops its ceremony results, so the framework
    workloads count wire bytes and rounds from here.
    """

    def __enter__(self) -> "BusLog":
        self.buses: list[Bus] = []
        self._inner = inner = netsim.run_ceremony

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.buses.append(result.bus)
            return result

        netsim.run_ceremony = recording
        return self

    def __exit__(self, *exc) -> None:
        netsim.run_ceremony = self._inner


def _key_bytes(keys) -> float:
    return sum(len(json.dumps(k.to_json()).encode()) for k in keys) / len(keys)


class Workload:
    """A fixed shape, a fixed key seed, and how many set-ups a run repeats.

    `op_s` is an operation's nominal length on the reference machine (see
    README): a run does ceil(seconds / op_s) operations, so every run with
    the same --seconds does the same work whatever the machine's speed.
    """

    def __init__(self, name: str, spec, key_seed: str, setups: int, op_s: float):
        self.name, self.spec, self.key_seed = name, spec, key_seed
        self.setups, self.op_s = setups, op_s


class FrameworkWorkload(Workload):
    """Set-up is `netsim.build_pda_system` with the full-degree keygen."""

    def setup(self) -> netsim.PdaSystem:
        s = self.spec
        system, _ = netsim.build_pda_system(
            s.kappa, s.n, s.theta_min, self.key_seed, m_max=s.m_max
        )
        return system

    def setup_ok(self, system: netsim.PdaSystem) -> bool:
        keys = system.enc_keys
        degrees = set(range(2, self.spec.n))
        return set(keys) == set(range(1, self.spec.n + 1)) and all(
            set(k.evaluations) == degrees for k in keys.values()
        )

    def key_bytes_per_user(self, system: netsim.PdaSystem) -> float:
        return _key_bytes(list(system.enc_keys.values()))

    def moduli(self, system: netsim.PdaSystem) -> dict[int, str]:
        p, n_a = system.params, system.agg_keys.n
        return {
            p.N: "N",
            p.N_tilde: "N_tilde",
            p.N_tilde**2: "N_tilde_sq",
            n_a: "paillier_n",
            n_a * n_a: "paillier_nsq",
        }


# ---------------------------------------------------------------------------
# framework: one aggregation at production size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggSpec:
    kappa: int
    n: int
    m: int
    m_max: int
    theta_min: int = 3


class PdaAggregation(FrameworkWorkload):
    """One `netsim.run_pda_aggregation` over every user and every term."""

    def exponent(self, user: int, k: int) -> int:
        return 1 + (user + k) % 3

    def inputs(self, system: netsim.PdaSystem, seed: int, index: int) -> dict:
        s = self.spec
        big_n = system.params.N
        rnd = _values(self.name, seed, index)
        ids = tuple(range(1, s.n + 1))
        coeffs = tuple(rnd.randrange(1, big_n) for _ in range(s.m))
        data = {i: [rnd.randrange(1, big_n) for _ in range(s.m)] for i in ids}
        query = pda.PdaQuery(
            coeffs=coeffs,
            exponents={i: {k: self.exponent(i, k) for k in range(s.m)} for i in ids},
            participants=ids,
            window=pda.Window(index * s.m, s.m),
        )
        return {"query": query, "data": data, "seed": f"{seed}:{index}"}

    def run(self, system: netsim.PdaSystem, inputs: dict):
        with BusLog() as log:
            value, _ = netsim.run_pda_aggregation(
                system, inputs["query"], inputs["data"], seed=inputs["seed"]
            )
        return value, log.buses

    def expected(self, system: netsim.PdaSystem, inputs: dict) -> int:
        big_n = system.params.N
        data, coeffs = inputs["data"], inputs["query"].coeffs
        total = 0
        for k, c in enumerate(coeffs):
            term = c
            for i, xs in data.items():
                term = term * pow(xs[k], self.exponent(i, k), big_n) % big_n
            total += term
        return total % big_n

    def check(self, system: netsim.PdaSystem, inputs: dict, result: int) -> bool:
        return result == self.expected(system, inputs)

    def off_by_one(self, system: netsim.PdaSystem, result: int) -> int:
        return (result + 1) % system.params.N


# ---------------------------------------------------------------------------
# framework: least-squares fit through the analytics plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressSpec:
    kappa: int
    n: int
    features: int
    frac_bits: int
    bound: int  # features lie in [-bound, bound]
    m_max: int
    tolerance: float = 2.0**-17
    theta_min: int = 3

    @property
    def queries(self) -> int:
        dim = self.features + 1
        return dim * (dim + 1) // 2 + dim


class Regression(FrameworkWorkload):
    """One fit: `analytics.plan_linear_regression` then `analytics.run_plan`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.names = [f"f{j}" for j in range(self.spec.features)]

    def inputs(self, system: netsim.PdaSystem, seed: int, index: int) -> dict:
        s = self.spec
        rnd = _values(self.name, seed, index)
        beta = [rnd.randint(-20, 20)] + [rnd.randint(-5, 5) for _ in range(s.features)]
        rows = {}
        for i in range(1, s.n + 1):
            x = [rnd.randint(-s.bound, s.bound) for _ in range(s.features)]
            y = beta[0] + sum(b * v for b, v in zip(beta[1:], x)) + rnd.randint(-10, 10)
            rows[i] = {**dict(zip(self.names, x)), "y": y}
        return {
            "rows": rows,
            "floats": {i: {c: float(v) for c, v in row.items()} for i, row in rows.items()},
            "window_start": index * s.queries * s.n,
            "seed": f"{seed}:{index}",
        }

    def run(self, system: netsim.PdaSystem, inputs: dict):
        s = self.spec
        plan = analytics.plan_linear_regression(
            sorted(inputs["rows"]),
            self.names,
            frac_bits=s.frac_bits,
            theta_min=s.theta_min,
            window_start=inputs["window_start"],
        )
        with BusLog() as log:
            out = analytics.run_plan(system, plan, inputs["floats"], seed=inputs["seed"])
        return out, log.buses

    def exact_sums(self, inputs: dict) -> dict[str, int]:
        """Every normal-equation entry as an exact integer sum over the rows."""
        rows = list(inputs["rows"].values())
        design = [[1] + [row[c] for c in self.names] for row in rows]
        dim = self.spec.features + 1
        sums = {}
        for r in range(dim):
            for c in range(r, dim):
                sums[f"A_{r}_{c}"] = sum(d[r] * d[c] for d in design)
        for r in range(dim):
            sums[f"b_{r}"] = sum(d[r] * row["y"] for d, row in zip(design, rows))
        return sums

    def lstsq(self, inputs: dict) -> np.ndarray:
        rows = list(inputs["rows"].values())
        design = np.array([[1] + [row[c] for c in self.names] for row in rows], float)
        target = np.array([row["y"] for row in rows], float)
        return np.linalg.lstsq(design, target, rcond=None)[0]

    def check(self, system: netsim.PdaSystem, inputs: dict, result: dict) -> bool:
        exact = self.exact_sums(inputs)
        sums = result["sums"]
        if set(sums) != set(exact) or any(sums[k] != float(v) for k, v in exact.items()):
            return False
        got = np.array([result["intercept"], *result["coefficients"]])
        return bool(np.max(np.abs(got - self.lstsq(inputs))) < self.spec.tolerance)

    def off_by_one(self, system: netsim.PdaSystem, result: dict) -> dict:
        """One unit more in the residue of the last sum."""
        name = f"b_{self.spec.features}"
        scale = 1 << (2 * self.spec.frac_bits)
        sums = {**result["sums"], name: result["sums"][name] + 1 / scale}
        return {**result, "sums": sums}


# ---------------------------------------------------------------------------
# arithmetic scheme: one public polynomial in both deployment models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArithSpec:
    kappa: int
    n: int
    multi_terms: int
    owner_stride: int  # coprime with n, so the owners of a term are distinct
    single_owners: tuple[int, ...]
    n_min: int = 3

    def __post_init__(self):
        if math.gcd(self.owner_stride, self.n) != 1:
            raise ValueError("owner_stride must be coprime with n")


class ArithPolynomial(Workload):
    """`models.authority_aggregate` and `models.all_participants_aggregate`
    on the same polynomial and values, each on a fresh bus."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shape = self._shape()

    def _shape(self) -> list[tuple[tuple[int, int], ...]]:
        """(owner, exponent) pairs of every term: multi-owner terms first."""
        s = self.spec
        terms = []
        for k in range(s.multi_terms):
            owners = [(5 * k + j * s.owner_stride) % s.n + 1 for j in range(2 + k % 3)]
            terms.append(tuple((i, 1 + (k + j) % 3) for j, i in enumerate(owners)))
        for k, i in enumerate(s.single_owners):
            terms.append(((i, 1 + k % 3),))
        return terms

    def setup(self) -> netsim.ArithSystem:
        s = self.spec
        system, _ = netsim.build_arith_system(
            s.kappa, s.n, s.n_min, self.key_seed, with_authority=True
        )
        return system

    def setup_ok(self, system: netsim.ArithSystem) -> bool:
        s = self.spec
        sizes = set(range(s.n_min, s.n + 2))
        keys = system.enc_keys
        return set(keys) == set(range(1, s.n + 2)) and all(
            set(k.shares) == sizes for k in keys.values()
        )

    def key_bytes_per_user(self, system: netsim.ArithSystem) -> float:
        return _key_bytes([system.enc_keys[i] for i in range(1, self.spec.n + 1)])

    def moduli(self, system: netsim.ArithSystem) -> dict[int, str]:
        p = system.params.p
        return {p: "p", (p * (p - 1)) ** 2: "p_master"}

    def inputs(self, system: netsim.ArithSystem, seed: int, index: int) -> dict:
        p = system.params.p
        rnd = _values(self.name, seed, index)
        coeffs = [rnd.randrange(1, p) for _ in self.shape]
        data = {i: rnd.randrange(1, p) for i in range(1, self.spec.n + 1)}
        poly = models.AggPolynomial(
            terms=tuple(models.PolyTerm(c, powers) for c, powers in zip(coeffs, self.shape)),
            participants=tuple(sorted(data)),
        )
        return {"poly": poly, "coeffs": coeffs, "data": data}

    def run(self, system: netsim.ArithSystem, inputs: dict):
        params, keys = system.params, system.enc_keys
        authority_bus = Bus(system.ids)
        authority = models.authority_aggregate(
            authority_bus, params, keys, system.virtual_id, inputs["poly"], inputs["data"]
        )
        members_bus = Bus(inputs["poly"].participants)
        members = models.all_participants_aggregate(
            members_bus, params, keys, inputs["poly"], inputs["data"]
        )
        return (authority, members), [authority_bus, members_bus]

    def expected(self, system: netsim.ArithSystem, inputs: dict) -> int:
        p = system.params.p
        total = 0
        for c, powers in zip(inputs["coeffs"], self.shape):
            for i, e in powers:
                c = c * pow(inputs["data"][i], e, p) % p
            total += c
        return total % p

    def check(self, system: netsim.ArithSystem, inputs: dict, result) -> bool:
        authority, members = result
        want = self.expected(system, inputs)
        return (
            authority == want
            and set(members) == set(range(1, self.spec.n + 1))
            and all(v == want for v in members.values())
        )

    def off_by_one(self, system: netsim.ArithSystem, result):
        authority, members = result
        return (authority, {**members, 1: (members[1] + 1) % system.params.p})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        PdaAggregation(
            "pda_agg_k512",
            AggSpec(kappa=512, n=10, m=4, m_max=8),
            key_seed="perfbench/pda_agg_k512/keys/0",
            setups=2,
            op_s=3.5,
        ),
        Regression(
            "regress_n64",
            RegressSpec(kappa=48, n=64, features=8, frac_bits=20, bound=64, m_max=64),
            key_seed="perfbench/regress_n64/keys/0",
            setups=3,
            op_s=12.0,
        ),
        ArithPolynomial(
            "arith_poly_n32",
            ArithSpec(
                kappa=512, n=32, multi_terms=16, owner_stride=11, single_owners=(3, 11, 19, 27)
            ),
            key_seed="perfbench/arith_poly_n32/keys/0",
            setups=2,
            op_s=3.5,
        ),
    )
}

# The same paths at toy sizes, for the harness self-check.
TOY = {
    w.name: w
    for w in (
        PdaAggregation(
            "pda_agg_k512",
            AggSpec(kappa=16, n=6, m=4, m_max=8),
            key_seed="perfbench/toy/pda",
            setups=2,
            op_s=0.01,
        ),
        Regression(
            "regress_n64",
            RegressSpec(kappa=32, n=8, features=3, frac_bits=8, bound=8, m_max=8),
            key_seed="perfbench/toy/regress",
            setups=2,
            op_s=0.1,
        ),
        ArithPolynomial(
            "arith_poly_n32",
            ArithSpec(kappa=16, n=6, multi_terms=5, owner_stride=5, single_owners=(2, 4, 5, 6)),
            key_seed="perfbench/toy/arith",
            setups=2,
            op_s=0.01,
        ),
    )
}
