"""Fixed-seed ceremonies pinned by SHA-256.

Each digest covers a run's `transcript_jsonl()` followed by the JSON of
what it outputs (keys, masks, aggregates).  Code that reshapes a
ceremony without changing the protocol must leave every digest as it
is; a change to the protocol or to its randomness shows up here.
"""

import hashlib
import json

import pytest

from pda_kit import models, netsim, paillier, pda
from pda_kit.bus import Bus


def digest(transcript: str, outputs) -> str:
    doc = transcript + json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def keys_json(keys) -> dict:
    return {str(i): key.to_json() for i, key in keys.items()}


@pytest.fixture(scope="module")
def arith_golden():
    return netsim.build_arith_system(16, 6, 3, seed="golden:arith", with_authority=True)


@pytest.fixture(scope="module")
def pda_golden():
    return {
        k: netsim.build_pda_system(16, 7, 3, seed="golden:pda", hardened_k=k)
        for k in (0, 1)
    }


GOLDEN = {
    "arith_system": (
        "18ad6f13cbb7968163197b88d80c1a7f"
        "77784e7a048dde47e0bf374a25a5ec6f"
    ),
    "pda_system_k0": (
        "e046d3e730dd71e6e1e8dc63b2ba5217"
        "dea95229f5edd99813853be395b228b7"
    ),
    "pda_system_k1": (
        "278cd9a61971940ed4967e719be88019"
        "17f715cf4d15a76a5682b98998eafc2a"
    ),
    "pda_aggregation": (
        "ccc2ef522f6c218ebfa79091c985e08b"
        "106a19a6a9954caf6780ba04d60bcd2f"
    ),
    "rushing_k0": (
        "93f20dbf1b86e686045c2748dc1cb9ac"
        "a8204da60f3da8341fd85ad169689754"
    ),
    "rushing_k1": (
        "14cba9c45c8690e52d04ade3c579d13b"
        "3c7942d190e26ba575b1aaa2da51d24c"
    ),
    "authority_aggregate": (
        "9e601535bff44410b1d80832e6d16081"
        "096d799913a10a31e6a03788be3b18c0"
    ),
    "all_participants_aggregate": (
        "485470b9d685b03524fe588546e83976"
        "9755e2eb939bee811e895ad3e32040b2"
    ),
}


def test_arith_system_digest(arith_golden):
    system, result = arith_golden
    masters = {str(i): format(v, "x") for i, v in system.master_keys.items()}
    out = {"masters": masters, "keys": keys_json(system.enc_keys)}
    assert digest(result.transcript_jsonl(), out) == GOLDEN["arith_system"]


@pytest.mark.parametrize("k", [0, 1])
def test_pda_system_digest(pda_golden, k):
    system, result = pda_golden[k]
    out = {
        "keys": keys_json(system.enc_keys),
        "aggregator": paillier.to_json(system.agg_keys),
    }
    assert digest(result.transcript_jsonl(), out) == GOLDEN[f"pda_system_k{k}"]


def test_pda_aggregation_digest(pda_golden):
    system, _ = pda_golden[0]
    m = 3
    query = pda.PdaQuery(
        coeffs=(3, 1, 7),
        exponents={i: {k: 1 + (i + k) % 2 for k in range(m)} for i in range(1, 8)},
        participants=tuple(range(1, 8)),
        window=pda.Window(0, m),
    )
    data = {i: [11 * i + k for k in range(m)] for i in range(1, 8)}
    value, result = netsim.run_pda_aggregation(
        system, query, data, seed="golden:agg", registry=pda.SlotRegistry()
    )
    assert value == pda.evaluate_query(query, data, system.params.N)
    out = {"value": format(value, "x")}
    assert digest(result.transcript_jsonl(), out) == GOLDEN["pda_aggregation"]


@pytest.mark.parametrize("k", [0, 1])
def test_rushing_digest(pda_golden, k):
    system, _ = pda_golden[0]
    outcome = netsim.rushing_attack_demo(
        system.params, victim=4, seed="golden:rush", hardened_k=k
    )
    assert outcome.matched == (k == 0)
    masks = {str(i): format(v, "x") for i, v in outcome.result.outputs.items()}
    out = {"masks": masks, "predicted": format(outcome.predicted, "x")}
    assert digest(outcome.result.transcript_jsonl(), out) == GOLDEN[f"rushing_k{k}"]


def golden_polynomial() -> models.AggPolynomial:
    def term(coeff, powers):
        return models.PolyTerm(coeff=coeff, powers=tuple(powers.items()))

    return models.AggPolynomial(
        terms=(
            term(5, {1: 1, 2: 2}),
            term(3, {2: 1, 4: 1, 6: 3}),
            term(2, {3: 2}),
            term(9, {5: 1}),
            term(4, {6: 2}),
        ),
        participants=(1, 2, 3, 4, 5, 6),
    )


def test_authority_aggregate_digest(arith_golden):
    system, _ = arith_golden
    poly = golden_polynomial()
    data = {i: 10 + 3 * i for i in range(1, 7)}
    bus = Bus(system.ids)
    out = models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    assert out == models.evaluate_plaintext(poly, data, system.params.p)
    assert digest(bus.transcript_jsonl(), format(out, "x")) == GOLDEN["authority_aggregate"]


def test_all_participants_aggregate_digest(arith_golden):
    system, _ = arith_golden
    poly = golden_polynomial()
    data = {i: 10 + 3 * i for i in range(1, 7)}
    real = {i: system.enc_keys[i] for i in range(1, 7)}
    bus = Bus(range(1, 7))
    out = models.all_participants_aggregate(bus, system.params, real, poly, data)
    assert set(out.values()) == {models.evaluate_plaintext(poly, data, system.params.p)}
    expected = GOLDEN["all_participants_aggregate"]
    assert digest(bus.transcript_jsonl(), format(out[1], "x")) == expected
