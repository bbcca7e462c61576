import dataclasses
import json
import multiprocessing
import os
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pda_kit import netsim, numtheory, paillier, pda
from pda_kit.bus import Bus
from pda_kit.errors import (
    CorruptRegistry,
    ExtractionFailed,
    GroupBelowThreshold,
    GroupTooSmall,
    KeyMissing,
    MissingEncoding,
    NotInSubgroup,
    NotInvertible,
    ResultOverflow,
    RingTooSmall,
    SlotReused,
)
from pda_kit.rng import Rng


def modular_interpolate_zero_constant(points: dict[int, int], target: int, modulus: int) -> int:
    """Oracle: value at `target` of the zero-constant polynomial through
    `points`, via exact rational Lagrange over points + (0, 0)."""
    full = dict(points)
    full[0] = 0
    ids = sorted(full)
    total = Fraction(0)
    for i in ids:
        basis = Fraction(1)
        for j in ids:
            if j != i:
                basis *= Fraction(target - j, i - j)
        total += full[i] * basis
    scale = total.denominator
    inv = pow(scale, -1, modulus)
    return total.numerator * inv % modulus


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def test_setup_invariants_and_determinism():
    params = pda.setup(8, 4, 3, Rng(3))
    assert pow(params.h, params.N_tilde, params.N) == 1
    assert params.h != 1
    assert params == pda.setup(8, 4, 3, Rng(3))
    assert params != pda.setup(8, 4, 3, Rng(4))


def test_setup_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        pda.setup(8, 2, 3, Rng(0))


def test_params_json_roundtrip():
    params = pda.setup(8, 4, 3, Rng(3))
    assert pda.PdaParams.from_json(params.to_json()) == params


def test_params_from_json_rejects_broken_fields():
    doc = pda.setup(8, 4, 3, Rng(3)).to_json()
    h, n_cap = int(doc["h"], 16), int(doc["n_cap"], 16)
    cases = [
        ({"h": format(h + 1, "x")}, NotInSubgroup),
        ({"h": "1"}, NotInSubgroup),
        ({"h": format(h + n_cap, "x")}, NotInSubgroup),  # congruent, but not below N
        ({"g_tilde": doc["n_tilde"]}, NotInvertible),
        ({"theta_min": 2}, GroupTooSmall),
        ({"theta_min": 5}, GroupTooSmall),  # above n = 4
    ]
    for change, error in cases:
        with pytest.raises(error):
            pda.PdaParams.from_json({**doc, **change})


# ---------------------------------------------------------------------------
# ring share
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_params():
    return pda.setup(16, 6, 3, Rng("ringparams"))


def _ring(params, n, seed, k=0):
    # the ring of users 1..n: params with n users
    bus = Bus(range(1, n + 1))
    ring_params = dataclasses.replace(params, n=n)
    y = pda.ring_share(bus, ring_params, Rng(seed).fork("ring"), k_collusion=k)
    return bus, y


def test_ring_share_product_one(toy_params):
    bus, y = _ring(toy_params, 6, "r1")
    prod = 1
    for v in y.values():
        prod = prod * v % toy_params.N_tilde
    assert prod == 1
    # exactly one broadcast per party, single round
    assert len(bus.rounds) == 1
    assert sorted(m.sender for m in bus.rounds[0]) == list(range(1, 7))


def test_ring_share_minimal_three(toy_params):
    _, y = _ring(toy_params, 3, "r2")
    prod = 1
    for v in y.values():
        prod = prod * v % toy_params.N_tilde
    assert prod == 1


def test_hardened_ring_product_one(toy_params):
    bus, y = _ring(toy_params, 5, "r3", k=1)
    prod = 1
    for v in y.values():
        prod = prod * v % toy_params.N_tilde
    assert prod == 1
    assert len(bus.rounds) == 2  # one extra relay round for k=1


def test_hardened_k0_equals_base(toy_params):
    _, base = _ring(toy_params, 5, "same-seed", k=0)
    bus = Bus(range(1, 6))
    again = pda.ring_share(
        bus, dataclasses.replace(toy_params, n=5), Rng("same-seed").fork("ring"), k_collusion=0
    )
    assert base == again


def test_ring_too_small(toy_params):
    with pytest.raises(RingTooSmall):
        _ring(toy_params, 3, "r4", k=1)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_keygen_count_and_cancellation(pda_system):
    system, _ = pda_system
    params = system.params
    n = len(system.enc_keys)
    rnd = random.Random(4)
    for key in system.enc_keys.values():
        assert sorted(key.evaluations) == list(range(2, n - 1 + 1))
        assert len(key.evaluations) == n - 2
    ids = sorted(system.enc_keys)
    for _ in range(50):
        size = rnd.randint(params.theta_min, n)
        group = sorted(rnd.sample(ids, size))
        weights = pda.lagrange_weights(group)
        total = sum(
            system.enc_keys[i].evaluations[size - 1] * weights[i] for i in group
        )
        assert total % params.N_tilde == 0


def test_keygen_points_interpolate(pda_system):
    system, _ = pda_system
    nt = system.params.N_tilde
    ids = sorted(system.enc_keys)
    for d in (2, 3):
        points = {i: system.enc_keys[i].evaluations[d] for i in ids[:d]}
        for target in ids[d:]:
            predicted = modular_interpolate_zero_constant(points, target, nt)
            assert predicted == system.enc_keys[target].evaluations[d]


def test_keygen_extraction_failed(toy_params):
    bus = Bus(range(1, 5))
    y = pda.ring_share(bus, dataclasses.replace(toy_params, n=4), Rng("ek").fork("ring"))
    y[2] = y[2] * 3 % toy_params.N_tilde  # breaks prod Y = 1
    keygen_bus = Bus(range(1, 5))
    with pytest.raises(ExtractionFailed):
        pda.keygen(keygen_bus, toy_params, Rng("ek2"), y, degrees=[2])
    assert keygen_bus.round_no == 0


def test_mask_cancellation_invariant(pda_system):
    # prod_i H(t)^{q*lambda} = 1 mod N over random groups and slots
    system, _ = pda_system
    params = system.params
    rnd = random.Random(5)
    ids = sorted(system.enc_keys)
    for _ in range(25):
        size = rnd.randint(params.theta_min, len(ids))
        group = sorted(rnd.sample(ids, size))
        t = rnd.randrange(1 << 20)
        ht = params.hash_slot(t)
        prod = 1
        for i in group:
            exp = pda.mask_exponent(params, system.enc_keys[i], group)
            prod = prod * pow(ht, exp, params.N) % params.N
        assert prod == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pure_mask_encodings_cancel(pda_system, data):
    # at every slot of a window, the pure-mask encodings (e = 0, so the
    # mask alone) of any admissible group multiply to 1 mod N
    system, _ = pda_system
    params = system.params
    ids = sorted(system.enc_keys)
    members = st.lists(
        st.sampled_from(ids), min_size=params.theta_min, max_size=params.n, unique=True
    )
    group = sorted(data.draw(members, label="group"))
    start = data.draw(st.integers(0, 1 << 40), label="start")
    for t in range(start, start + data.draw(st.integers(1, 4), label="m")):
        prod = 1
        for i in group:
            prod = prod * pda.encode_value(params, system.enc_keys[i], group, 1, 0, t) % params.N
        assert prod == 1


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def _query(system, m=2, start=0, participants=None):
    ids = tuple(sorted(system.enc_keys)) if participants is None else tuple(participants)
    exponents = {ids[2]: {0: 1}, ids[3]: {0: 1, 1: 2}}
    return pda.PdaQuery(
        coeffs=(1,) * m,
        exponents=exponents,
        participants=ids,
        window=pda.Window(start, m),
    )


def test_encode_pure_mask(pda_system):
    system, _ = pda_system
    params = system.params
    group = sorted(system.enc_keys)
    key = system.enc_keys[group[0]]
    s = pda.mask_exponent(params, key, group)
    c = pda.encode_value(params, key, group, x=1, e=0, t=17)
    expected = pow(params.hash_slot(17), s, params.N)
    assert c == expected
    # the fixed-base path h^{a_t * s} agrees with H(t)^s * x^e for every e
    rnd = random.Random(17)
    for e in (1, 2, 5):
        x, t = rnd.randrange(params.N), rnd.randrange(1 << 20)
        c = pda.encode_value(params, key, group, x=x, e=e, t=t)
        assert c == pow(params.hash_slot(t), s, params.N) * pow(x, e, params.N) % params.N


def test_encode_deterministic(pda_system):
    system, _ = pda_system
    params = system.params
    group = sorted(system.enc_keys)
    key = system.enc_keys[group[1]]
    a = pda.encode_value(params, key, group, x=5, e=2, t=99)
    b = pda.encode_value(params, key, group, x=5, e=2, t=99)
    assert a == b


def test_encode_product_unmasks(pda_system):
    system, _ = pda_system
    params = system.params
    rnd = random.Random(6)
    ids = sorted(system.enc_keys)
    for trial in range(10):
        group = sorted(rnd.sample(ids, rnd.randint(3, len(ids))))
        t = 1000 + trial
        xs = {i: rnd.randrange(1, params.N) for i in group}
        es = {i: rnd.randint(0, 3) for i in group}
        prod = 1
        expected = 1
        for i in group:
            c = pda.encode_value(params, system.enc_keys[i], group, xs[i], es[i], t)
            prod = prod * c % params.N
            expected = expected * pow(xs[i], es[i], params.N) % params.N
        assert prod == expected


def test_encode_threshold_and_hardening(pda_system):
    system, _ = pda_system
    params = system.params
    ids = sorted(system.enc_keys)
    with pytest.raises(GroupBelowThreshold):
        pda.encode_value(params, system.enc_keys[ids[0]], ids[:2], 1, 0, 5)
    hardened = pda.PdaEncKey(
        id=ids[0],
        evaluations=dict(system.enc_keys[ids[0]].evaluations),
        hardened_k=2,
    )
    # degree 2 keys (group of 3) are refused once hardened with k=2
    with pytest.raises(GroupBelowThreshold):
        pda.encode_value(params, hardened, ids[:3], 1, 0, 5)
    # group of 4 -> degree 3 > k: accepted
    pda.encode_value(params, hardened, ids[:4], 1, 0, 5)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_ordinary_matches_encode_value(pda_system, data):
    # the batched walk of a user's m masks against the per-term reference,
    # over random groups, windows, values and exponents (zero and nonzero)
    system, _ = pda_system
    params = system.params
    ids = sorted(system.enc_keys)
    members = st.lists(
        st.sampled_from(ids), min_size=params.theta_min, max_size=len(ids), unique=True
    )
    group = tuple(sorted(data.draw(members, label="group")))
    m = data.draw(st.integers(1, 5), label="m")
    powers = st.dictionaries(st.integers(0, m - 1), st.integers(0, 3))
    exponents = data.draw(st.fixed_dictionaries({i: powers for i in group}), label="exponents")
    start = data.draw(st.integers(0, 1 << 20), label="start")
    query = pda.PdaQuery(
        coeffs=(1,) * m, exponents=exponents, participants=group, window=pda.Window(start, m)
    )
    user = data.draw(st.sampled_from(group), label="user")
    xs = data.draw(st.lists(st.integers(0, params.N - 1), min_size=m, max_size=m), label="xs")
    key = system.enc_keys[user]
    got = pda.encode_many(params, [key], query, {user: xs})[user]
    assert got == [
        pda.encode_value(params, key, group, xs[k], query.exponent(user, k), start + k)
        for k in range(m)
    ]


def test_encode_ordinary_requires_membership(pda_system):
    system, _ = pda_system
    query = _query(system)
    outsider = pda.PdaEncKey(id=99, evaluations={5: 1})
    with pytest.raises(KeyMissing):
        pda.encode_many(system.params, [outsider], query, {99: [1, 1]})


def test_encode_many_is_encode_ordinary_of_every_key(pda_system, op_counts):
    # keys in any order, one fixed-base batch for all their masks
    system, _ = pda_system
    params = system.params
    query = _query(system, m=3, start=9700)
    ids = query.participants
    data = {i: [i + k + 2 for k in range(query.m)] for i in ids}
    with op_counts:
        got = pda.encode_many(params, [system.enc_keys[i] for i in reversed(ids)], query, data)
    assert got == {i: pda.encode_many(params, [system.enc_keys[i]], query, data)[i] for i in ids}
    assert op_counts.walk_calls == {(params.h, params.N, params.N_tilde): 1}


def test_encode_many_checks_every_key_before_any_walk(pda_system, monkeypatch):
    # a non-member, a key without the group's degree or a short row
    # anywhere in the batch is refused before a mask is walked
    system, _ = pda_system
    query = _query(system)
    keys = [system.enc_keys[i] for i in query.participants]
    data = {i: [1, 1] for i in query.participants}
    last = keys[-1].id

    def no_walk(*args):
        raise AssertionError("walked before every key was checked")

    monkeypatch.setattr(pda, "fixed_base_pows", no_walk)
    outsider = pda.PdaEncKey(id=99, evaluations={5: 1})
    with pytest.raises(KeyMissing):
        pda.encode_many(system.params, [*keys, outsider], query, {**data, 99: [1, 1]})
    lacking = pda.PdaEncKey(id=last, evaluations={})
    with pytest.raises(KeyMissing):
        pda.encode_many(system.params, [*keys[:-1], lacking], query, data)
    with pytest.raises(ValueError):
        pda.encode_many(system.params, keys, query, {**data, last: [1]})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_many_matches_encode_value(pda_system, data):
    # every user of a batch, term by term, for exponent maps that hold
    # zeros, several nonzero powers, or exponent 1 on every term (the
    # shape of a sum query)
    system, _ = pda_system
    params = system.params
    ids = sorted(system.enc_keys)
    members = st.lists(
        st.sampled_from(ids), min_size=params.theta_min, max_size=len(ids), unique=True
    )
    group = tuple(sorted(data.draw(members, label="group")))
    m = data.draw(st.integers(1, 6), label="m")
    shape = data.draw(st.sampled_from(["zeros", "several", "ones"]), label="shape")
    powers = {
        "zeros": st.dictionaries(st.integers(0, m - 1), st.just(0)),
        "several": st.dictionaries(st.integers(0, m - 1), st.integers(0, 4), min_size=min(m, 2)),
        "ones": st.just(dict.fromkeys(range(m), 1)),
    }[shape]
    exponents = data.draw(st.fixed_dictionaries({i: powers for i in group}), label="exponents")
    start = data.draw(st.integers(0, 1 << 20), label="start")
    query = pda.PdaQuery(
        coeffs=(1,) * m, exponents=exponents, participants=group, window=pda.Window(start, m)
    )
    rows = st.lists(st.integers(0, params.N - 1), min_size=m, max_size=m)
    xs = data.draw(st.fixed_dictionaries({i: rows for i in group}), label="xs")
    got = pda.encode_many(params, [system.enc_keys[i] for i in group], query, xs)
    assert got == {
        i: [
            pda.encode_value(
                params, system.enc_keys[i], group, xs[i][k], query.exponent(i, k), start + k
            )
            for k in range(m)
        ]
        for i in group
    }


@pytest.mark.parametrize("outside", [-1, 2])
def test_encode_many_ignores_an_exponent_outside_the_terms(pda_system, outside):
    # m = 2: an entry for term -1 or term m leaves every term as it is,
    # so term -1 does not reach term m-1 as a list index would
    system, _ = pda_system
    query = _query(system, start=9800)
    keys = [system.enc_keys[i] for i in query.participants]
    data = {i: [i + 3, i + 5] for i in query.participants}
    clean = pda.encode_many(system.params, keys, query, data)
    user = query.participants[3]
    stray = {**query.exponents, user: {**query.exponents[user], outside: 3}}
    query = dataclasses.replace(query, exponents=stray)
    assert pda.encode_many(system.params, keys, query, data) == clean


# ---------------------------------------------------------------------------
# user-1 blinding and aggregation
# ---------------------------------------------------------------------------

def test_blinding_units_product_one(pda_system):
    system, _ = pda_system
    pk = system.agg_pk
    assert pda.blinding_units(pk, 1, Rng("b1")) == [1]
    units = pda.blinding_units(pk, 5, Rng("b5"))
    prod = 1
    for u in units:
        prod = prod * u % pk.nsq
    assert prod == 1


def test_blinded_and_unblinded_aggregate_identically(pda_system):
    system, _ = pda_system
    params = system.params
    query = _query(system, start=5000)
    rnd = random.Random(8)
    data = {i: [rnd.randrange(params.N) for _ in range(query.m)] for i in query.participants}
    u1, u2 = query.special_users()
    encodings = pda.encode_many(
        params, [system.enc_keys[i] for i in query.participants], query, data
    )
    others = {i: encodings[i] for i in query.participants if i not in (u1, u2)}
    own = encodings[u1]
    cts = pda.encode_user2(system.agg_pk, encodings[u2], Rng("u2"))
    blinded = pda.encode_user1(params, system.agg_pk, query, own, others, cts, Rng("u1"))

    # unblinded: same construction with K_k = 1
    pk = system.agg_pk
    unblinded = []
    for k in range(query.m):
        exp = own[k]
        for i in others:
            exp = exp * others[i][k] % params.N
        (v,) = paillier.scale_many(pk, [(cts[k], exp)])
        unblinded.extend(paillier.scale_many(pk, [(v, query.coeffs[k] % params.N)]))

    assert pda.aggregate(params, system.agg_keys, blinded) == pda.aggregate(
        params, system.agg_keys, unblinded
    )
    oracle = pda.evaluate_query(query, data, params.N)
    assert pda.aggregate(params, system.agg_keys, blinded) == oracle


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_encode_user1_scalars_are_the_nested_loop(pda_system, data):
    # e_k = c_k * C(x_1k) * prod_{i != 1, 2} C(x_ik) mod N, reduced after
    # each factor in the order user 1, then the others in group order
    system, _ = pda_system
    params = system.params
    ids = sorted(system.enc_keys)
    members = st.lists(
        st.sampled_from(ids), min_size=params.theta_min, max_size=len(ids), unique=True
    )
    group = tuple(data.draw(members, label="group"))
    m = data.draw(st.integers(1, 5), label="m")
    coeffs = data.draw(st.lists(st.integers(-params.N, 2 * params.N), min_size=m, max_size=m))
    query = pda.PdaQuery(coeffs=tuple(coeffs), exponents={}, participants=group, window=pda.Window(0, m))
    encodings = st.lists(st.integers(0, params.N - 1), min_size=m, max_size=m)
    u1, u2 = query.special_users()
    expected_users = [i for i in group if i not in (u1, u2)]
    own = data.draw(encodings, label="own")
    others = {i: data.draw(encodings, label=f"user {i}") for i in expected_users}
    cts = list(range(2, m + 2))
    scaled = []

    def recording(pk, terms):
        scaled.extend(terms)
        return [ct for ct, _ in terms]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(paillier, "scale_many", recording)
        pda.encode_user1(params, system.agg_pk, query, own, others, cts, Rng("u1"))
    reference = []
    for k in range(m):
        e = coeffs[k] * own[k] % params.N
        for i in expected_users:
            e = e * others[i][k] % params.N
        reference.append((cts[k], e))
    assert scaled == reference


def test_single_blinded_term_hides_term_value(pda_system):
    # one blinded ciphertext decrypts to something other than c_k * y_k
    system, _ = pda_system
    params = system.params
    rnd = random.Random(9)
    hits = 0
    trials = 500
    for trial in range(trials):
        query = _query(system, start=6000 + 2 * trial)
        data = {
            i: [rnd.randrange(params.N) for _ in range(query.m)]
            for i in query.participants
        }
        u1, u2 = query.special_users()
        encodings = pda.encode_many(
            params, [system.enc_keys[i] for i in query.participants], query, data
        )
        others = {i: encodings[i] for i in query.participants if i not in (u1, u2)}
        own = encodings[u1]
        cts = pda.encode_user2(system.agg_pk, encodings[u2], Rng(f"u2:{trial}"))
        blinded = pda.encode_user1(
            params, system.agg_pk, query, own, others, cts, Rng(f"u1:{trial}")
        )
        term0 = 1
        for i in query.participants:
            term0 = term0 * pow(data[i][0], query.exponent(i, 0), params.N) % params.N
        value = paillier.decrypt(system.agg_keys, blinded[0]) % params.N
        if value == term0:
            hits += 1
    assert hits <= 5  # negligible frequency at toy sizes


def test_user1_missing_encoding(pda_system):
    system, _ = pda_system
    query = _query(system)
    with pytest.raises(MissingEncoding):
        pda.encode_user1(system.params, system.agg_pk, query, [1, 1], {}, [1, 1], Rng("x"))


def test_aggregate_refuses_no_blinded_term(pda_system):
    # an empty product would decrypt to 0, a value the query never had
    system, _ = pda_system
    with pytest.raises(MissingEncoding, match="no blinded term"):
        pda.aggregate(system.params, system.agg_keys, [])


def test_aggregate_constant_and_zero_polynomials(pda_system):
    system, _ = pda_system
    params = system.params
    ids = tuple(sorted(system.enc_keys))
    # all inputs 1, coefficients c -> sum(c); zero coefficients -> 0
    for coeffs, expected in [((3, 9, 2), 14), ((0, 0), 0)]:
        query = pda.PdaQuery(
            coeffs=coeffs,
            exponents={},
            participants=ids,
            window=pda.Window(7000 + 10 * len(coeffs), len(coeffs)),
        )
        data = {i: [1] * len(coeffs) for i in ids}
        value, _ = netsim.run_pda_aggregation(system, query, data, seed=1)
        assert value == expected % params.N


# ---------------------------------------------------------------------------
# windows and registry
# ---------------------------------------------------------------------------

def test_window_overlap_cases():
    w = pda.Window(10, 5)  # [10, 15)
    assert w.overlaps(pda.Window(10, 5))
    assert w.overlaps(pda.Window(12, 1))
    assert w.overlaps(pda.Window(14, 10))
    assert w.overlaps(pda.Window(5, 6))
    assert not w.overlaps(pda.Window(15, 5))
    assert not w.overlaps(pda.Window(5, 5))


def test_registry_claim_and_reject(tmp_path):
    path = tmp_path / "registry.jsonl"
    reg = pda.SlotRegistry(path=path)
    reg.claim(pda.Window(0, 4))
    with pytest.raises(SlotReused):
        reg.claim(pda.Window(3, 2))
    reg.claim(pda.Window(4, 2))
    # a fresh registry seeded from the file still vetoes
    again = pda.SlotRegistry.load(path)
    assert len(again.windows) == 2
    with pytest.raises(SlotReused):
        again.claim(pda.Window(1, 1))


def test_registry_ignores_torn_last_line(tmp_path):
    path = tmp_path / "registry.jsonl"
    path.write_text('{"start": 0, "len": 4}\n{"start": 4')
    reg = pda.SlotRegistry.load(path)
    assert reg.windows == [pda.Window(0, 4)]
    reg.claim(pda.Window(4, 2))
    # the claim wrote over the torn tail, so the file reads back whole
    assert path.read_text() == '{"start": 0, "len": 4}\n{"start": 4, "len": 2}\n'
    assert pda.SlotRegistry.load(path).windows == [pda.Window(0, 4), pda.Window(4, 2)]


def test_registry_keeps_unterminated_last_window(tmp_path):
    path = tmp_path / "registry.jsonl"
    path.write_text('{"start": 0, "len": 4}\n{"start": 4, "len": 2}')
    reg = pda.SlotRegistry.load(path)
    assert reg.windows == [pda.Window(0, 4), pda.Window(4, 2)]
    with pytest.raises(SlotReused):
        reg.claim(pda.Window(5, 1))
    reg.claim(pda.Window(6, 1))
    assert pda.SlotRegistry.load(path).windows == [
        pda.Window(0, 4), pda.Window(4, 2), pda.Window(6, 1)
    ]


WINDOWS = st.builds(pda.Window, st.integers(0, 40), st.integers(1, 8))
# after [0, 4): adjacent, identical, nested, overlapping, adjacent, covering, free
EDGE_CLAIMS = [
    pda.Window(s, n) for s, n in [(0, 4), (4, 2), (0, 4), (1, 2), (3, 3), (6, 1), (2, 10), (8, 3)]
]


@settings(max_examples=100, deadline=None)
@example(claims=EDGE_CLAIMS, persisted=False)
@example(claims=EDGE_CLAIMS, persisted=True)
@given(claims=st.lists(WINDOWS, max_size=30), persisted=st.booleans())
def test_registry_matches_brute_force_interval_set(tmp_path_factory, claims, persisted):
    path = tmp_path_factory.mktemp("registry") / "registry.jsonl" if persisted else None
    registry = pda.SlotRegistry(path=path)
    consumed = []
    for window in claims:
        clashes = [w for w in consumed if w.overlaps(window)]
        found = registry.overlapping(window)
        assert found in clashes if clashes else found is None
        if clashes:
            with pytest.raises(SlotReused):
                registry.claim(window)
        else:
            registry.claim(window)
            consumed.append(window)
        assert registry.windows == consumed
    if persisted:
        assert pda.SlotRegistry.load(path).windows == consumed


@settings(max_examples=200, deadline=None)
@example(held=[pda.Window(0, 8), pda.Window(2, 1)], probe=pda.Window(5, 1))
@given(held=st.lists(WINDOWS, max_size=20), probe=WINDOWS)
def test_registry_finds_an_overlap_among_any_held_windows(held, probe):
    # a registry file may hold windows that overlap one another
    clashes = [w for w in held if w.overlaps(probe)]
    found = pda.SlotRegistry(held).overlapping(probe)
    assert found in clashes if clashes else found is None


def test_registry_names_the_first_clash_in_claim_order(tmp_path):
    held = [pda.Window(5, 2), pda.Window(0, 10)]
    assert pda.SlotRegistry(held).overlapping(pda.Window(5, 1)) == pda.Window(5, 2)
    path = tmp_path / "registry.jsonl"
    path.write_text('{"start": 5, "len": 2}\n{"start": 0, "len": 10}\n')
    for registry in (pda.SlotRegistry(held), pda.SlotRegistry.load(path)):
        with pytest.raises(SlotReused, match=r"overlaps consumed \[5,7\)$"):
            registry.claim(pda.Window(5, 1))


def _claim_after_barrier(path, start, barrier, outcomes):
    registry = pda.SlotRegistry.load(path)  # both load before either claims
    barrier.wait()
    try:
        registry.claim(pda.Window(start, 4))
        outcomes.put("claimed")
    except SlotReused:
        outcomes.put("refused")


def test_registry_two_processes_cannot_claim_one_window(tmp_path):
    path = tmp_path / "registry.jsonl"
    path.write_text('{"start": 0, "len": 4}\n{"start": 4')  # with a torn tail
    ctx = multiprocessing.get_context("spawn")
    barrier, outcomes = ctx.Barrier(2), ctx.Queue()
    procs = [
        ctx.Process(target=_claim_after_barrier, args=(path, start, barrier, outcomes))
        for start in (10, 12)
    ]
    for proc in procs:
        proc.start()
    results = sorted(outcomes.get(timeout=60) for _ in procs)
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
    assert results == ["claimed", "refused"]
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == '{"start": 0, "len": 4}'
    assert json.loads(lines[1])["start"] in (10, 12)


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"start": 0, "len": 4}\n{"start": 4\n{"start": 9, "len": 1}\n', 2),  # torn middle
        ('{"start": 0, "len": 4}\n{"start": 4}\n', 2),  # missing field, terminated
        ('{"start": 0, "len": 4}\n\n[4, 2]\n', 3),  # not an object
        ('{"start": -1, "len": 4}\n', 1),  # not a window
    ],
)
def test_registry_rejects_malformed_line(tmp_path, text, line):
    path = tmp_path / "registry.jsonl"
    path.write_text(text)
    with pytest.raises(CorruptRegistry, match=f"registry.jsonl:{line}:"):
        pda.SlotRegistry.load(path)


def test_rejected_window_emits_no_messages(pda_system):
    system, _ = pda_system
    registry = pda.SlotRegistry()
    query = _query(system, start=100)
    data = {i: [1, 1] for i in query.participants}
    netsim.run_pda_aggregation(system, query, data, seed=2, registry=registry)
    clash = _query(system, start=101)
    before = len(registry.windows)
    with pytest.raises(SlotReused):
        netsim.run_pda_aggregation(system, clash, data, seed=3, registry=registry)
    assert len(registry.windows) == before


def test_query_json_roundtrip(pda_system):
    system, _ = pda_system
    query = _query(system)
    doc = json.loads(json.dumps(query.to_json()))
    assert pda.PdaQuery.from_json(doc) == query


def test_round_structure(pda_system):
    system, _ = pda_system
    query = _query(system, start=9000)
    data = {i: [2, 3] for i in query.participants}
    _, result = netsim.run_pda_aggregation(system, query, data, seed=5)
    assert result.round_count == 3  # declaration + two broadcast rounds
    kinds0 = {m.kind for m in result.bus.rounds[0]}
    assert kinds0 == {"declare"}
    kinds1 = {m.kind for m in result.bus.rounds[1]}
    assert kinds1 == {"encode", "encode-enc"}
    kinds2 = {m.kind for m in result.bus.rounds[2]}
    assert kinds2 == {"blinded-term"}


def test_aggregation_exponentiations_mod_n(pda_system, op_counts):
    # one fixed-base power of h per (user, slot) for the mask, which at
    # this toy size the vector walk takes, and one builtin pow per x^e
    # with e > 0
    system, _ = pda_system
    params = system.params
    ids = tuple(sorted(system.enc_keys))
    m = 3
    exponents = {i: {k: (i + k) % 3 for k in range(m)} for i in ids}
    query = pda.PdaQuery(
        coeffs=(1,) * m, exponents=exponents, participants=ids, window=pda.Window(9500, m)
    )
    data = {i: [i + 2 * k + 1 for k in range(m)] for i in ids}
    with op_counts:
        value, _ = netsim.run_pda_aggregation(
            system, query, data, seed=9, registry=pda.SlotRegistry()
        )
    assert value == pda.evaluate_query(query, data, params.N)
    positive = sum(1 for i in ids for k in range(m) if query.exponent(i, k) > 0)
    assert 0 < positive < len(ids) * m
    assert op_counts.walks == {(params.h, params.N, params.N_tilde): len(ids) * m}
    assert op_counts.pows[params.N] == positive


def test_aggregation_exponentiations_mod_nsq(pda_system, op_counts, monkeypatch):
    # m encrypts by user 2 and one scale a term by user 1 mod n_a^2; the
    # CRT decrypt is one pow mod p^2 and one mod q^2
    system, _ = pda_system
    params = system.params
    nsq = system.agg_pk.nsq
    p_sq, q_sq = system.agg_keys.p ** 2, system.agg_keys.q ** 2
    ids = tuple(sorted(system.enc_keys))
    m = 4
    query = pda.PdaQuery(
        coeffs=(3, 5, 7, 11),
        exponents={i: {k: 1 + (i + k) % 2 for k in range(m)} for i in ids},
        participants=ids,
        window=pda.Window(9600, m),
    )
    data = {i: [i + 2 * k + 1 for k in range(m)] for i in ids}
    scales = []

    def counting_scale(pk, terms, scale_many=paillier.scale_many):
        scales.extend(k for _, k in terms)
        return scale_many(pk, terms)

    monkeypatch.setattr(paillier, "scale_many", counting_scale)
    with op_counts:
        value, _ = netsim.run_pda_aggregation(
            system, query, data, seed=10, registry=pda.SlotRegistry()
        )
    monkeypatch.undo()
    assert value == pda.evaluate_query(query, data, params.N)
    assert len(scales) == m
    assert op_counts.pows[nsq] == 2 * m
    assert op_counts.pows[p_sq] == 1
    assert op_counts.pows[q_sq] == 1


@pytest.fixture(scope="module")
def wide_agg_keys():
    # n of 1,040 bits: n^2, p^2 and q^2 all reach numtheory's spread floor
    return paillier.keygen(1040, Rng("pda:wide-aggregator"))


def test_spread_aggregation_counts_every_pow(pda_system, wide_agg_keys, op_counts, monkeypatch):
    # user 2's encryptions and the two CRT halves each run as one batch on
    # two threads (user 1's scalars are below the toy N, under 64 bits, so
    # its scales stay serial); the counts stay exact run after run
    if numtheory._libcrypto is None:
        pytest.skip("libcrypto did not load, so no batch is spread")
    system = dataclasses.replace(pda_system[0], agg_keys=wide_agg_keys)
    params = system.params
    nsq = wide_agg_keys.nsq
    p_sq, q_sq = wide_agg_keys.p ** 2, wide_agg_keys.q ** 2
    assert min(nsq, p_sq, q_sq) >= numtheory._SPREAD_FLOOR
    ids = tuple(sorted(system.enc_keys))
    m = 4
    query = pda.PdaQuery(
        coeffs=(3, 5, 7, 11),
        exponents={i: {k: 1 + (i + k) % 2 for k in range(m)} for i in ids},
        participants=ids,
        window=pda.Window(9700, m),
    )
    data = {i: [i + 3 * k + 2 for k in range(m)] for i in ids}
    starts = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for run in range(20):
        op_counts.pows.clear()
        with op_counts:
            value, _ = netsim.run_pda_aggregation(
                system, query, data, seed=run, registry=pda.SlotRegistry()
            )
        assert value == pda.evaluate_query(query, data, params.N)
        assert (op_counts.pows[nsq], op_counts.pows[p_sq], op_counts.pows[q_sq]) == (2 * m, 1, 1)
    assert len(starts) == 2 * 20


def test_worst_case_terms_do_not_wrap(pda_system):
    # Every encoding, user-2 plaintext and coefficient is N-1, with m_max
    # terms and a key of exactly required_bits(N, m_max) bits.  Three
    # members make e_k = (N-1)^3 = N-1 (mod N), so every term plaintext is
    # (N-1)^2, the largest one user 1 can produce.
    system, _ = pda_system
    params = system.params
    top = params.N - 1
    m_max = 16
    bits = paillier.required_bits(params.N, m_max)
    keys = paillier.keygen(bits, Rng("worst-case:key"))
    assert keys.n.bit_length() == bits
    pk = keys.public()
    ids = (1, 2, 3)
    query = pda.PdaQuery(
        coeffs=(top,) * m_max,
        exponents={i: {k: 1 for k in range(m_max)} for i in ids},
        participants=ids,
        window=pda.Window(0, m_max),
    )
    assert query.special_users() == (1, 2)
    top_terms = [top] * m_max
    rng = Rng("worst-case:user2")
    user2_cts = paillier.encrypt_many(pk, [top] * m_max, rng=rng)
    blinded = pda.encode_user1(
        params, pk, query, top_terms, {3: top_terms}, user2_cts, Rng("worst-case:user1")
    )
    acc = 1
    for ct in blinded:
        acc = acc * ct % pk.nsq
    exact = m_max * top * top
    assert exact.bit_length() >= bits - 2  # the bound is nearly reached
    # and it holds for every N of this width, not only this one
    widest = (1 << params.N.bit_length()) - 1
    assert m_max * (widest - 1) ** 2 < 1 << (bits - 1)
    assert paillier.decrypt(keys, acc) == exact
    assert pda.aggregate(params, keys, blinded) == exact % params.N


def test_query_beyond_aggregator_key_refused_before_claim():
    system, _ = netsim.build_pda_system(kappa=16, n=3, theta_min=3, seed=20_240_504, m_max=1)
    params = system.params
    top = params.N - 1
    assert system.agg_pk.n.bit_length() == paillier.required_bits(params.N, 1)
    ids = (1, 2, 3)

    def query(m, start):
        return pda.PdaQuery(
            coeffs=(top,) * m,
            exponents={i: {k: 1 for k in range(m)} for i in ids},
            participants=ids,
            window=pda.Window(start, m),
        )

    registry = pda.SlotRegistry()
    wide = query(64, 0)
    with pytest.raises(ResultOverflow):
        netsim.run_pda_aggregation(
            system, wide, {i: [top] * 64 for i in ids}, seed=1, registry=registry
        )
    assert registry.windows == []
    one = query(1, 0)
    value, _ = netsim.run_pda_aggregation(
        system, one, {i: [top] for i in ids}, seed=2, registry=registry
    )
    assert value == pda.evaluate_query(one, {i: [top] for i in ids}, params.N)
    assert registry.windows == [one.window]


@pytest.mark.parametrize(
    "options, error",
    [({"hardened_k": 2}, GroupBelowThreshold), ({"degrees": [3]}, KeyMissing)],
)
def test_group_the_keys_refuse_is_refused_before_claim(options, error):
    # hardened_k=2 refuses groups below 4, and keys of degree 3 alone
    # serve only groups of 4: a group of 3 must leave its window unclaimed
    system, _ = netsim.build_pda_system(
        kappa=16, n=6, theta_min=3, seed=20_240_505, m_max=1, **options
    )

    def query(ids):
        return pda.PdaQuery(
            coeffs=(1,),
            exponents={i: {0: 1} for i in ids},
            participants=ids,
            window=pda.Window(0, 1),
        )

    registry = pda.SlotRegistry()
    with pytest.raises(error):
        netsim.run_pda_aggregation(
            system, query((1, 2, 3)), {i: [2] for i in (1, 2, 3)}, seed=1, registry=registry
        )
    assert registry.windows == []
    four = query((1, 2, 3, 4))
    data = {i: [i + 1] for i in four.participants}
    value, _ = netsim.run_pda_aggregation(system, four, data, seed=2, registry=registry)
    assert value == pda.evaluate_query(four, data, system.params.N)
    assert registry.windows == [four.window]
