import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pda_kit import arith, models, netsim, numtheory
from pda_kit.bus import Bus
from pda_kit.errors import BadField, GroupTooSmall, KeyMissing, ResultOverflow


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
# single-owner terms
# ---------------------------------------------------------------------------

def _authority_split(system, poly, bus):
    """Run the authority flow on `bus`; the enc-mul kinds it broadcast and
    the senders of its extra additive round."""
    data = {i: 3 * i + 1 for i in poly.participants}
    models.authority_aggregate(
        bus, system.params, system.enc_keys, system.virtual_id, poly, data
    )
    kinds = sorted({m.kind for m in bus.messages() if m.kind.startswith("enc-mul:")})
    senders = tuple(sorted(m.sender for m in bus.messages() if m.kind == "enc-add-sigma"))
    return kinds, senders


def test_single_owner_terms_take_the_extra_additive_round(arith_system):
    system, _ = arith_system
    p12 = term(1, {1: 1, 2: 1})
    p3sq = term(1, {3: 2})
    poly = models.AggPolynomial(terms=(p12, p3sq), participants=(1, 2, 3))
    # term 1 alone is single-owner, and owner 3 with the virtual completer
    # is a sigma group of 2, below n_min = 3: refused before any post
    bus = Bus(system.ids)
    with pytest.raises(GroupTooSmall, match="sigma group of 2 "):
        _authority_split(system, poly, bus)
    assert list(bus.messages()) == []
    assert bus.round_no == 0

    lin = models.AggPolynomial(
        terms=(term(1, {1: 1}), term(1, {2: 1}), term(1, {3: 1})),
        participants=(1, 2, 3),
    )
    assert _authority_split(system, lin, Bus(system.ids)) == ([], (1, 2, 3))

    cross = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1}), term(1, {2: 1, 3: 1})),
        participants=(1, 2, 3),
    )
    assert _authority_split(system, cross, Bus(system.ids)) == (
        ["enc-mul:0", "enc-mul:1"], ()
    )


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
        sigma_owners = {t.owners[0] for t in terms if len(t.owners) == 1}
        if sigma_owners and len(sigma_owners) + 1 < system.params.n_min:
            continue  # inherent sigma-group limit
        data = {i: rnd.randrange(p) for i in members}
        bus = Bus(system.ids)
        out = models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, poly, data
        )
        assert out == oracle_eval(poly, data, p)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_posted_factors_equal_their_masked_factors(arith_system, data):
    # with one mask per participant, every enc-mul:{k} broadcast still
    # equals that participant's factor of term k times the mask a
    # single-key mul_masks call gives it
    system, _ = arith_system
    params, keys = system.params, system.enc_keys
    p = params.p
    real = st.lists(st.sampled_from(range(1, 7)), min_size=params.n_min, max_size=6, unique=True)
    members = tuple(sorted(data.draw(real, label="members")))
    owners = st.lists(st.sampled_from(members), max_size=4, unique=True).filter(
        lambda o: len(o) != 1
    )
    terms = []
    for k in range(data.draw(st.integers(1, 3), label="terms")):
        powers = {i: data.draw(st.integers(1, 3)) for i in data.draw(owners, label=f"owners {k}")}
        terms.append(term(data.draw(st.integers(0, p - 1), label=f"coeff {k}"), powers))
    poly = models.AggPolynomial(terms=tuple(terms), participants=members)
    values = data.draw(
        st.lists(st.integers(0, p - 1), min_size=len(members), max_size=len(members)),
        label="values",
    )
    xs = dict(zip(members, values))
    if data.draw(st.booleans(), label="authority"):
        bus = Bus(system.ids)
        models.authority_aggregate(bus, params, keys, system.virtual_id, poly, xs)
        group = members + (system.virtual_id,)
    else:
        bus = Bus(members)
        models.all_participants_aggregate(bus, params, keys, poly, xs)
        group = members
    posted = {(m.sender, m.kind): m.body[0] for m in bus.messages()}
    expected = {}
    for k, t in enumerate(terms):
        for i in members:
            factor = pow(xs[i], t.power_of(i), p) * (t.coeff if i == members[0] else 1) % p
            mask = arith.mul_masks(params, [keys[i]], group)[i]
            expected[i, f"enc-mul:{k}"] = factor * mask % p
    assert posted == expected


def _cost_poly(members, *single_owner):
    return models.AggPolynomial(
        terms=(
            term(3, {1: 1, 2: 2}),
            term(5, {2: 1, 3: 1, 4: 3}),
            term(7, {5: 2}),  # single-owner terms: the extra additive round
            term(4, {6: 1}),
            *single_owner,
            term(2, {}),
        ),
        participants=members,
    )


def test_authority_exponentiations_mod_p(arith_system, op_counts):
    # one fixed-base power of g per participant and one for the
    # authority's completion, whatever the number of terms, which at this
    # toy size the vector walk takes; one builtin pow mod p per factor
    # x^e: every participant's factor of every term not owned by exactly
    # one participant, and each single-owner term
    system, _ = arith_system
    params = system.params
    p = params.p
    members = (1, 2, 3, 4, 5, 6)
    poly = _cost_poly(members)
    data = {i: 3 * i + 1 for i in members}
    with op_counts:
        out = models.authority_aggregate(
            Bus(system.ids), params, system.enc_keys, system.virtual_id, poly, data
        )
    assert out == oracle_eval(poly, data, p)
    multi_terms, single_terms = 3, 2
    masks = len(members) + 1
    assert op_counts.walks == {(params.g, p, p - 1): masks}
    assert op_counts.pows == {p: multi_terms * len(members) + single_terms}


def test_all_participants_exponentiations_mod_p(arith_system, op_counts):
    # one fixed-base power of g per participant, walked at this toy size;
    # builtin pows as in the authority flow, with a third single-owner
    # term for a sigma group of 3
    system, _ = arith_system
    params = system.params
    p = params.p
    members = (1, 2, 3, 4, 5, 6)
    poly = _cost_poly(members, term(6, {1: 3}))
    data = {i: 3 * i + 1 for i in members}
    with op_counts:
        outs = models.all_participants_aggregate(
            Bus(members), params, system.enc_keys, poly, data
        )
    assert set(outs.values()) == {oracle_eval(poly, data, p)}
    multi_terms, single_terms = 3, 3
    assert op_counts.walks == {(params.g, p, p - 1): len(members)}
    assert op_counts.pows == {p: multi_terms * len(members) + single_terms}
    # a sum of single-owner terms walks no multiplicative mask
    sums = models.AggPolynomial(terms=poly.terms[2:5], participants=members)
    with op_counts:
        models.all_participants_aggregate(Bus(members), params, system.enc_keys, sums, data)
    assert op_counts.walks == {(params.g, p, p - 1): len(members)}


def test_eavesdropper_cannot_complete_terms(arith_system):
    # an eavesdropper multiplies the broadcast ciphertexts but lacks the virtual share
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
        bus = Bus(system.ids)
        models.authority_aggregate(
            bus, system.params, system.enc_keys, system.virtual_id, poly, data
        )
        product = 1
        for msg in (m for m in bus.messages() if m.kind == "enc-mul:0"):
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


@pytest.mark.parametrize(
    "lacking, size",
    [(6, 7), (7, 7), (4, 3)],  # a participant, the virtual one, a sigma owner
)
def test_key_refused_before_any_post(arith_system, lacking, size):
    # every mask of both rounds is computed before the first round opens
    system, _ = arith_system
    keys = dict(system.enc_keys)
    shares = {k: v for k, v in keys[lacking].shares.items() if k != size}
    keys[lacking] = arith.ArithEncKey(id=lacking, shares=shares)
    poly = models.AggPolynomial(
        terms=(term(1, {1: 1, 2: 1}), term(1, {3: 2}), term(1, {4: 1})),
        participants=(1, 2, 3, 4, 5, 6),
    )
    data = {i: i + 1 for i in poly.participants}
    bus = Bus(system.ids)
    with pytest.raises(KeyMissing, match=f"group size {size}"):
        models.authority_aggregate(bus, system.params, keys, system.virtual_id, poly, data)
    assert bus.round_no == 0


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
        bus = Bus(members)
        models.all_participants_aggregate(
            bus, system.params, system.enc_keys, poly, data
        )
        for msg in (m for m in bus.messages() if m.kind == "enc-mul:0"):
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


def test_polynomial_from_json_names_a_bad_field():
    good = {"terms": [{"coeff": "7", "powers": {"1": 2}}], "participants": [1, 2, 3]}
    cases = [
        ({}, "terms"),
        ({**good, "terms": 5}, "terms"),
        ({**good, "terms": ["7"]}, "coeff"),
        ({**good, "terms": [{"powers": {"1": 2}}]}, "coeff"),
        ({**good, "terms": [{"coeff": 7, "powers": {"1": 2}}]}, "coeff"),
        ({**good, "terms": [{"coeff": "zz", "powers": {"1": 2}}]}, "coeff"),
        ({**good, "terms": [{"coeff": "7"}]}, "powers"),
        ({**good, "terms": [{"coeff": "7", "powers": [1, 2]}]}, "powers"),
        ({**good, "terms": [{"coeff": "7", "powers": {"one": 2}}]}, "powers"),
        ({**good, "terms": [{"coeff": "7", "powers": {"1": None}}]}, "powers"),
        ({"terms": good["terms"]}, "participants"),
        ({**good, "participants": 3}, "participants"),
        ({**good, "participants": ["x"]}, "participants"),
    ]
    assert models.AggPolynomial.from_json(good).participants == (1, 2, 3)
    for doc, name in cases:
        with pytest.raises(BadField, match=f"'{name}'"):
            models.AggPolynomial.from_json(doc)
