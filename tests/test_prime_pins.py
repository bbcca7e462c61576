"""The primes each search accepts, pinned by SHA-256 at fixed seeds.

A change to how candidates are tested (round counts, proofs from a known
factor, screens) must accept exactly the same primes in the same order,
so every digest here stays as it is.  A change to how candidates are
drawn shows up here.
"""

import hashlib
import json

import pytest

from pda_kit import numtheory, paillier
from pda_kit.rng import Rng


def digest(values) -> str:
    doc = json.dumps([format(v, "x") for v in values])
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def safe_primes(bits: int, seeds) -> list[int]:
    out = []
    for seed in seeds:
        p = numtheory.gen_safe_prime(bits, Rng(f"pin:safe:{bits}:{seed}"))
        out += [p, (p - 1) // 2]
    return out


def correlated(kappa: int, seeds) -> list[int]:
    out = []
    for seed in seeds:
        # "False" stays in the label that the digests below were pinned under
        rng = Rng(f"pin:moduli:{kappa}:False:{seed}")
        mod = numtheory.gen_correlated_moduli(kappa, rng)
        out += [mod.n, mod.n_tilde, mod.k_cofactor, mod.p, mod.q, mod.p_tilde, mod.q_tilde]
    return out


def aggregator(bits: int) -> list[int]:
    doc = paillier.to_json(paillier.keygen(bits, Rng(f"pin:aggregator:{bits}")))
    return [int(doc[k], 16) for k in ("n_a", "lambda", "mu")]


CASES = {
    "safe-4": (
        lambda: safe_primes(4, range(4)),
        "196a91448d711a38da4ed14aa7e38763"
        "4aaf15a3dc2a1331acefef67ad3caf65",
    ),
    "safe-5": (
        lambda: safe_primes(5, range(4)),
        "d300dec5eb048c8b051b2b4d6d7ec48b"
        "bda9366fb88722fde872335765603a59",
    ),
    "safe-6": (
        lambda: safe_primes(6, range(4)),
        "04b23a2738e91f718f4bc1d35b6751ad"
        "6ea1c93747570d44e57164f531033835",
    ),
    "safe-8": (
        lambda: safe_primes(8, range(4)),
        "69f40098fdabe55498b04eee3d746587"
        "5971b82e5924eb0a30a75f5551d07e5b",
    ),
    "safe-16": (
        lambda: safe_primes(16, range(4)),
        "937c2c94230a2d374aa3c698de142110"
        "86d93547a451242459fa360a1a756234",
    ),
    "safe-64": (
        lambda: safe_primes(64, range(4)),
        "151ec127771a584f961c5cbfe396aa0d"
        "d9741ab35e7804129dd7aefa36279dee",
    ),
    "safe-256": (
        lambda: safe_primes(256, range(4)),
        "da6715e71cda0451cebdaa458407343a"
        "8c7ff37c02f90b7bfdea15d7f063daf0",
    ),
    "safe-512": (
        lambda: safe_primes(512, range(1)),
        "5c2ee64285db8790f87a5481cef7f21d"
        "41ad03cff22bb75b666073917ec9385a",
    ),
    "moduli-16": (
        lambda: correlated(16, range(4)),
        "7c52797f11f86a1474145f51cd51f5a2"
        "b78980e5a04983c082c52e02447de47f",
    ),
    "moduli-48": (
        lambda: correlated(48, range(4)),
        "eb497e90513bd3cf791c7add4b4fa7b8"
        "ff271180f07dc1fbb24f778af575e38e",
    ),
    "aggregator-215": (
        lambda: aggregator(215),
        "fce1d9d8f5c04cff98cd986d83c781c2"
        "25b90f9f7a31d2b0aa61ee9b80053c3a",
    ),
    "aggregator-2086": (
        lambda: aggregator(2086),
        "05d1db065c2083292173582a897c9fd6"
        "e519e4d36799569aca9b6742cc98289c",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_accepted_primes_are_pinned(case):
    run, expected = CASES[case]
    assert digest(run()) == expected
