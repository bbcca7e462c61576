import json
import random

import pytest

from pda_kit import arith, models, netsim
from pda_kit.bus import Bus, Observer
from pda_kit.errors import GroupTooSmall, IncompleteBroadcast, ResultOverflow


def term(coeff, powers):
    return models.PolyTerm(coeff=coeff, powers=tuple(powers.items()))


def oracle_eval(poly, data, p):
    # independent plaintext evaluation
    total = 0
    for t in poly.terms:
        v = t.coeff
        for i, d in t.powers:
            v *= data[i] ** d
        total += v
    return total % p


# ---------------------------------------------------------------------------
# single-value detection
# ---------------------------------------------------------------------------

def test_detect_single_value_terms():
    p12 = term(1, {1: 1, 2: 1})
    p3sq = term(1, {3: 2})
    poly = models.AggPolynomial(terms=(p12, p3sq), participants=(1, 2, 3))
    idx, owners = models.detect_single_value_terms(poly)
    assert idx == (1,) and owners == (3,)

    lin = models.AggPolynomial(
        terms=(term(1, {1: 1}), term(1, {2: 1}), term(1, {3: 1})),
        participants=(1, 2, 3),
    )
    idx, owners = models.detect_single_value_terms(lin)
    assert idx == (0, 1, 2) and owners == (1, 2, 3)

    cross = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1}), term(1, {2: 1, 3: 1})),
        participants=(1, 2, 3),
    )
    idx, owners = models.detect_single_value_terms(cross)
    assert idx == () and owners == ()


# ---------------------------------------------------------------------------
# authority-participant model
# ---------------------------------------------------------------------------

def test_authority_product_matches_oracle(arith_system):
    system, _ = arith_system
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1, 3: 1}),), participants=(1, 2, 3, 4, 5, 6)
    )
    data = {i: 3 * i + 1 for i in range(1, 7)}
    bus = Bus(system.ids)
    out = models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    assert out == oracle_eval(poly, data, system.params.p)


def test_authority_constant_polynomial(arith_system):
    system, _ = arith_system
    poly = models.AggPolynomial(terms=(term(5, {}),), participants=(1, 2, 3))
    data = {i: 9 for i in range(1, 7)}
    bus = Bus(system.ids)
    out = models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    assert out == 5


def test_authority_random_polynomials(arith_system):
    system, _ = arith_system
    p = system.params.p
    rnd = random.Random(21)
    members = (1, 2, 3, 4, 5, 6)
    for _ in range(200):
        terms = []
        for _ in range(rnd.randint(1, 4)):
            owners = rnd.sample(members, rnd.randint(0, 3))
            powers = {i: rnd.randint(1, 3) for i in owners}
            terms.append(term(rnd.randrange(1, 50), powers))
        poly = models.AggPolynomial(terms=tuple(terms), participants=members)
        sigma_idx, sigma_owners = models.detect_single_value_terms(poly)
        if sigma_idx and len(set(sigma_owners)) + 1 < system.params.n_min:
            continue  # inherent sigma-group limit
        data = {i: rnd.randrange(p) for i in members}
        bus = Bus(system.ids)
        out = models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, poly, data
        )
        assert out == oracle_eval(poly, data, p)


def test_eavesdropper_cannot_complete_terms(arith_system):
    # observer multiplies the broadcast ciphertexts but lacks the virtual share
    system, _ = arith_system
    p = system.params.p
    rnd = random.Random(22)
    members = (1, 2, 3, 4, 5, 6)
    hits = 0
    trials = 500
    for _ in range(trials):
        poly = models.AggPolynomial(
            terms=(term(1, {1: 1, 2: 1, 3: 1}),), participants=members
        )
        data = {i: rnd.randrange(1, p) for i in members}
        obs = Observer()
        bus = Bus(system.ids, observers=[obs])
        models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, poly, data
        )
        product = 1
        for msg in obs.of_kind("enc-mul:0"):
            product = product * msg.body[0] % p
        true_term = 1
        for i in members:
            true_term = true_term * data[i] % p
        if product == true_term:
            hits += 1
    assert hits <= 5  # negligible frequency over 500 instances


def test_extra_round_frozen_sum():
    # p=11 (the only 4-bit safe prime), n=3 real users + virtual id 4
    system, _ = netsim.build_arith_system(
        kappa=4, n=3, n_min=3, seed=404, with_authority=True
    )
    assert system.params.p == 11
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1}), term(1, {2: 1}), term(1, {3: 1})),
        participants=(1, 2, 3),
    )
    data = {1: 4, 2: 7, 3: 9}
    bus = Bus(system.ids)
    out = models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    assert out == 9  # (4+7+9) mod 11
    # no single-owner term is ever broadcast multiplicatively
    assert not [m for m in bus.messages() if m.kind.startswith("enc-mul")]
    assert [m for m in bus.messages() if m.kind == "enc-add-sigma"]


def test_extra_round_empty_sigma_is_noop(arith_system):
    # only multi-owner terms: the extra additive round never opens
    system, _ = arith_system
    poly = models.AggPolynomial(
        terms=(term(2, {1: 1, 2: 1}), term(3, {3: 2, 4: 1})), participants=(1, 2, 3, 4)
    )
    data = {1: 3, 2: 5, 3: 7, 4: 2}
    bus = Bus(system.ids)
    out = models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    assert out == oracle_eval(poly, data, system.params.p)
    assert len(bus.rounds) == 1
    assert not [m for m in bus.messages() if m.kind == "enc-add-sigma"]


def test_sigma_group_too_small(arith_system):
    system, _ = arith_system
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1}), term(2, {3: 2})), participants=(1, 2, 3, 4)
    )
    data = {i: 1 for i in range(1, 7)}
    bus = Bus(system.ids)
    with pytest.raises(GroupTooSmall):
        # single sigma owner + virtual = 2 < n_min
        models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, poly, data
        )


def test_result_overflow_check():
    poly = models.AggPolynomial(terms=(term(1, {1: 3}),), participants=(1, 2, 3))
    assert models.check_no_overflow(poly, {1: 5}) == 125
    with pytest.raises(ResultOverflow):
        models.assert_fits(poly, {1: 5}, p=100)
    models.assert_fits(poly, {1: 5}, p=1000)


# ---------------------------------------------------------------------------
# all-participants model
# ---------------------------------------------------------------------------

def test_all_participants_identical_outputs(arith_system):
    system, _ = arith_system
    members = (1, 2, 3, 4, 5, 6)
    poly = models.AggPolynomial(
        terms=(
            term(1, {1: 1, 2: 1, 3: 1}),
            term(2, {4: 1}),
            term(1, {5: 2}),
            term(3, {6: 1}),
        ),
        participants=members,
    )
    data = {i: 2 * i + 1 for i in members}
    bus = Bus(members)
    outs = models.all_participants_aggregate(
        bus, system.params, system.enc_keys, poly, data
    )
    assert set(outs) == set(members)
    assert len(set(outs.values())) == 1
    assert outs[1] == oracle_eval(poly, data, system.params.p)


def test_all_participants_product_matches_oracle(arith_system):
    system, _ = arith_system
    members = (1, 2, 3, 4, 5, 6)
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1, 3: 1}),), participants=members
    )
    data = {i: i + 5 for i in members}
    bus = Bus(members)
    outs = models.all_participants_aggregate(
        bus, system.params, system.enc_keys, poly, data
    )
    assert set(outs.values()) == {oracle_eval(poly, data, system.params.p)}


def test_all_participants_dropout(arith_system):
    system, _ = arith_system
    members = (1, 2, 3, 4, 5, 6)
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1}),), participants=members
    )
    data = {i: 1 for i in members}
    bus = Bus(members)
    with pytest.raises(IncompleteBroadcast):
        models.all_participants_aggregate(
            bus, system.params, system.enc_keys, poly, data, dropouts=[4]
        )


def test_broadcast_factors_stay_masked(arith_system):
    # individual multiplicative ciphertexts do not expose the raw factors
    system, _ = arith_system
    members = (1, 2, 3, 4, 5, 6)
    p = system.params.p
    rnd = random.Random(23)
    hits = 0
    trials = 40
    for _ in range(trials):
        poly = models.AggPolynomial(
            terms=(term(1, {i: 1 for i in members}),), participants=members
        )
        data = {i: rnd.randrange(1, p) for i in members}
        obs = Observer()
        bus = Bus(members, observers=[obs])
        models.all_participants_aggregate(
            bus, system.params, system.enc_keys, poly, data
        )
        for msg in obs.of_kind("enc-mul:0"):
            if msg.body[0] == data[msg.sender] % p:
                hits += 1
    assert hits <= 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_polynomial_json_roundtrip():
    poly = models.AggPolynomial(
        terms=(term(7, {1: 2, 4: 1}), term(3, {})), participants=(1, 2, 3, 4)
    )
    doc = json.loads(json.dumps(poly.to_json()))
    assert doc["modulus_ref"] == "arith"
    assert models.AggPolynomial.from_json(doc) == poly
