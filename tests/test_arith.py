import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pda_kit import arith, netsim
from pda_kit.bus import Bus
from pda_kit.errors import (
    BadField,
    ExtractionFailed,
    GroupTooSmall,
    InvalidParams,
    KeyMissing,
    NonInvertibleBroadcast,
    RingTooSmall,
)
from pda_kit.numtheory import ring_exchange
from pda_kit.rng import Rng


# ---------------------------------------------------------------------------
# test-side interpolation oracle (denominator-cleared, fraction-free)
# ---------------------------------------------------------------------------

def predict_point(points: dict[int, int], target: int, modulus: int) -> tuple[int, int]:
    """Return (scale, scale * q(target) mod modulus) by exact rational
    Lagrange interpolation through `points`, denominators cleared."""
    ids = sorted(points)
    basis = {}
    for i in ids:
        val = Fraction(1)
        for j in ids:
            if j != i:
                val *= Fraction(target - j, i - j)
        basis[i] = val
    scale = math.lcm(*[b.denominator for b in basis.values()])
    total = sum(points[i] * int(basis[i] * scale) for i in ids)
    return scale, total % modulus


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def test_setup_bit_length_and_determinism():
    params = arith.setup(8, 4, 3, Rng(5))
    assert 128 <= params.p < 256
    assert 2 <= params.g < params.p
    assert params == arith.setup(8, 4, 3, Rng(5))


def test_setup_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        arith.setup(8, 2, 3, Rng(0))
    with pytest.raises(ValueError):
        arith.setup(8, 5, 2, Rng(0))


def test_params_json_roundtrip():
    params = arith.setup(8, 4, 3, Rng(5))
    assert arith.ArithParams.from_json(params.to_json()) == params


def test_params_from_json_rejects_broken_fields():
    doc = arith.setup(8, 4, 3, Rng(5)).to_json()
    p = int(doc["p"], 16)
    cases = [
        ({"p": "f"}, InvalidParams),  # 15 is composite
        ({"p": "d"}, InvalidParams),  # 13 is prime, but 6 is not
        ({"g": "1"}, InvalidParams),
        ({"g": "0"}, InvalidParams),
        ({"g": doc["p"]}, InvalidParams),
        ({"g": format(p + 2, "x")}, InvalidParams),  # congruent to 2, but not below p
        ({"n_min": 2}, GroupTooSmall),
        ({"n_min": 5}, GroupTooSmall),  # above n = 4
    ]
    for change, error in cases:
        with pytest.raises(error):
            arith.ArithParams.from_json({**doc, **change})


# ---------------------------------------------------------------------------
# initialize
# ---------------------------------------------------------------------------

def test_ring_masks_frozen_toy():
    # Z_23*, g1=5, r=(3,4,6): y=(10,4,8) and Y=(3,18,3), product 1
    bus = Bus((1, 2, 3))
    masks = ring_exchange(bus, 23, 5, {1: 3, 2: 4, 3: 6})
    assert {m.sender: m.body[0] for m in bus.rounds[0]} == {1: 10, 2: 4, 3: 8}
    assert masks == {1: 3, 2: 18, 3: 3}
    assert masks[1] * masks[2] * masks[3] % 23 == 1


def test_ring_masks_equal_exponents_telescope():
    g1, r, m = 5, 7, 2309
    masks = ring_exchange(Bus((1, 2, 3)), m, g1, {1: r, 2: r, 3: r})
    prod = 1
    for v in masks.values():
        prod = prod * v % m
    assert prod == 1


def test_ring_masks_non_invertible_broadcast():
    # party 1 broadcasts 2 after the others; gcd(2,10)>1
    with pytest.raises(NonInvertibleBroadcast):
        ring_exchange(Bus((1, 2, 3)), 10, 3, {1: 1, 2: 1, 3: 1}, late={1: lambda seen: 2})


def test_initialize_refuses_two_party_ring():
    # on two parties y_{i+1} = y_{i-1}, so every master key would be 1
    params = arith.setup(16, 3, 3, Rng(1))
    bus = Bus((1, 2))
    with pytest.raises(RingTooSmall):
        arith.initialize(bus, params, Rng("i"), ids=(1, 2))
    assert bus.rounds == []
    with pytest.raises(RingTooSmall):
        ring_exchange(Bus((1, 2, 3)), 23, 5, {1: 3, 2: 4, 3: 6}, hops=1)


def test_initialize_master_product_and_round_shape():
    params = arith.setup(16, 4, 3, Rng(1))
    bus = Bus(range(1, 5))
    masters = arith.initialize(bus, params, Rng("init"), ids=range(1, 5))
    prod = 1
    for k in masters.values():
        prod = prod * k % params.master_modulus
    assert prod == 1
    assert len(bus.rounds) == 1
    assert len(bus.rounds[0]) == 4  # exactly n broadcasts in round 1


@pytest.mark.parametrize("r", [3, 7])
def test_initialize_exponentiates_on_the_prime_powers(monkeypatch, r):
    # the master ring p^2 * 2^2 * q^2 is publicly factored: each of the r
    # broadcasts and r master keys is one pow mod p^2, 2^2 and q^2, never
    # one mod p^2(p-1)^2
    from pda_kit import numtheory

    params = arith.setup(64, r, 3, Rng(4))
    p, q = params.p, (params.p - 1) // 2
    pows = []

    def counting_pow(base, exp, mod=None):
        if mod is not None and exp >= 0:
            pows.append(mod)
        return pow(base, exp, mod)

    for module in (arith, numtheory):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    bus = Bus(range(1, r + 1))
    masters = arith.initialize(bus, params, Rng("init"), ids=range(1, r + 1))
    monkeypatch.undo()
    assert pows.count(params.master_modulus) == 0
    assert pows.count(p * p) == 2 * r
    assert pows.count(q * q) == 2 * r
    assert pows.count(4) == 2 * r
    assert len(pows) == 6 * r
    # the same keys and broadcasts as plain pows mod p^2(p-1)^2
    m2 = params.master_modulus
    g1 = Rng("init").fork("init:g1").unit(m2)
    exponents = {i: Rng("init").fork(f"init:party:{i}").randrange(1, m2) for i in range(1, r + 1)}
    plain = Bus(range(1, r + 1))
    assert ring_exchange(plain, m2, g1, exponents) == masters
    assert plain.transcript_jsonl() == bus.transcript_jsonl()


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_system():
    return netsim.build_arith_system(kappa=16, n=4, n_min=3, seed=77)[0]


def test_key_share_count(small_system):
    # n=4, n_min=3: exactly 2 entries (k=3, k=4)
    for key in small_system.enc_keys.values():
        assert sorted(key.shares) == [3, 4]


def test_keygen_shares_interpolate_to_zero_constant(small_system):
    # any k points of the hidden polynomial predict q(0) = 0 and held-out points
    params = small_system.params
    m = params.key_modulus
    for k in sorted(next(iter(small_system.enc_keys.values())).shares):
        points = {i: key.shares[k] for i, key in small_system.enc_keys.items()}
        ids = sorted(points)
        subset = {i: points[i] for i in ids[:k]}
        _, at_zero = predict_point(subset, 0, m)
        assert at_zero == 0
        for held_out in ids[k:]:
            scale, predicted = predict_point(subset, held_out, m)
            assert predicted == points[held_out] * scale % m


def test_keygen_extraction_failed():
    params = arith.setup(16, 4, 3, Rng(9))
    bus = Bus(range(1, 5))
    masters = arith.initialize(bus, params, Rng("i"), ids=range(1, 5))
    masters[2] = masters[2] * 7 % params.master_modulus  # corrupt one master key
    keygen_bus = Bus(range(1, 5))
    with pytest.raises(ExtractionFailed):
        arith.keygen(keygen_bus, params, Rng("k"), masters)
    assert keygen_bus.round_no == 0


# ---------------------------------------------------------------------------
# the group round on the frozen toy
# ---------------------------------------------------------------------------

TOY = arith.ArithParams(p=11, g=2, n=3, n_min=3)


def toy_keys():
    # hidden polynomial 3x + 5x^2 over Z_110
    return {
        i: arith.ArithEncKey(id=i, shares={3: (3 * i + 5 * i * i) % 110})
        for i in (1, 2, 3)
    }


def toy_round(xs, op):
    """(bodies posted in member order, result) of the toy keys' round over (1, 2, 3)."""
    system = netsim.ArithSystem(params=TOY, master_keys={}, enc_keys=toy_keys(), ids=(1, 2, 3))
    value, result = netsim.run_arith_group_aggregation(system, (1, 2, 3), xs, op)
    return [m.body[0] for m in result.bus.messages()], value


def test_group_add_frozen():
    posted, value = toy_round({1: 4, 2: 7, 3: 9}, "add")
    assert posted == [6, 6, 8]
    assert value == 9  # (4+7+9) mod 11


def test_group_mul_frozen():
    posted, value = toy_round({1: 3, 2: 4, 3: 5}, "mul")
    assert posted == [4, 5, 3]
    assert value == 5  # (3*4*5) mod 11


def test_posting_zero_posts_the_pure_mask():
    keys = toy_keys()
    posted, _ = toy_round({1: 0, 2: 7, 3: 9}, "add")
    lam = 3  # weight of id 1 in {1,2,3}
    assert posted[0] == keys[1].shares[3] * lam % 11


def test_mask_exponent_errors():
    keys = toy_keys()
    with pytest.raises(GroupTooSmall):
        arith.mask_exponent(TOY, keys[1], (1, 2))
    with pytest.raises(KeyMissing):
        arith.mask_exponent(TOY, arith.ArithEncKey(id=9, shares={3: 1}), (1, 2, 3))
    with pytest.raises(KeyMissing):
        arith.mask_exponent(TOY, arith.ArithEncKey(id=1, shares={4: 1}), (1, 2, 3))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_masked_round_gives_the_plain_sum_or_product(data):
    # under the toy keys' masks, which cancel over (1, 2, 3): each kind's
    # plain sum or product mod p, one message per kind from every member
    # but the completer, which never posts
    group, keys, p = (1, 2, 3), toy_keys(), TOY.p
    op = data.draw(st.sampled_from(["add", "mul"]), label="op")
    completer = data.draw(st.sampled_from([None, *group]), label="completer")
    if op == "add":
        masks = {i: arith.mask_exponent(TOY, keys[i], group) for i in group}
    else:
        masks = arith.mul_masks(TOY, [keys[i] for i in group], group)
    xs = st.fixed_dictionaries({i: st.integers(0, 3 * p) for i in group})
    values = {f"enc-{op}:{k}": v for k, v in enumerate(data.draw(st.lists(xs, min_size=1)))}
    bus = Bus(group)
    got = arith.masked_round(bus, p, op, values, masks, completer)
    reduce = sum if op == "add" else math.prod
    assert got == [reduce(row.values()) % p for row in values.values()]
    (sent,) = bus.rounds
    senders = [i for i in group if i != completer]
    assert sorted((m.kind, m.sender) for m in sent) == sorted(
        (kind, i) for kind in values for i in senders
    )


@pytest.mark.parametrize("completer", [None, 1])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_masked_round_without_values_is_one_empty_round(op, completer):
    bus = Bus((1, 2, 3))
    assert arith.masked_round(bus, TOY.p, op, {}, {}, completer) == []
    assert bus.rounds == [[]]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_mask_sums_and_exponent_soundness(plain_arith_system):
    system, _ = plain_arith_system
    params = system.params
    m = params.key_modulus
    rnd = random.Random(11)
    ids = sorted(system.enc_keys)
    for _ in range(50):
        size = rnd.randint(params.n_min, len(ids))
        group = sorted(rnd.sample(ids, size))
        weights = arith.lagrange_weights(group)
        total = sum(system.enc_keys[i].shares[size] * weights[i] for i in group)
        assert total % m == 0
        assert pow(params.g, total % (params.p - 1), params.p) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiplicative_masks_cancel(arith_system, data):
    # g^{mask_i} from the fixed-base walk, over any admissible group of
    # the system with an authority, multiply to 1 mod p
    system, _ = arith_system
    params = system.params
    ids = sorted(system.enc_keys)
    members = st.lists(st.sampled_from(ids), min_size=params.n_min, max_size=len(ids), unique=True)
    group = tuple(sorted(data.draw(members, label="group")))
    masks = arith.mul_masks(params, [system.enc_keys[i] for i in group], group)
    assert math.prod(masks.values()) % params.p == 1


def test_mul_masks_is_mul_mask_of_every_key(arith_system, op_counts, monkeypatch):
    # one fixed-base batch for the group; a key without the group's size
    # anywhere in it is refused before any walk
    system, _ = arith_system
    params = system.params
    p = params.p
    group = tuple(sorted(system.enc_keys))
    keys = [system.enc_keys[i] for i in group]
    with op_counts:
        masks = arith.mul_masks(params, keys, group)
    assert masks == {
        i: arith.mul_masks(params, [system.enc_keys[i]], group)[i] for i in group
    }
    assert op_counts.walk_calls == {(params.g, p, p - 1): 1}

    def no_walk(*args):
        raise AssertionError("walked before every key was checked")

    monkeypatch.setattr(arith, "fixed_base_pows", no_walk)
    with pytest.raises(KeyMissing):
        arith.mul_masks(params, [*keys[:-1], arith.ArithEncKey(id=group[-1], shares={})], group)


def test_end_to_end_random_sweep(plain_arith_system):
    system, _ = plain_arith_system
    params = system.params
    rnd = random.Random(12)
    ids = sorted(system.enc_keys)
    for _ in range(40):
        size = rnd.randint(params.n_min, len(ids))
        group = tuple(sorted(rnd.sample(ids, size)))
        xs = {i: rnd.randrange(params.p) for i in group}
        total, _ = netsim.run_arith_group_aggregation(system, group, xs, "add")
        assert total == sum(xs.values()) % params.p
        product, _ = netsim.run_arith_group_aggregation(system, group, xs, "mul")
        expected = 1
        for v in xs.values():
            expected = expected * v % params.p
        assert product == expected


def test_key_json_roundtrip(small_system):
    key = small_system.enc_keys[1]
    doc = json.loads(json.dumps(key.to_json()))
    assert arith.ArithEncKey.from_json(doc) == key


def test_key_from_json_names_a_bad_field():
    good = {"id": 2, "shares": {"3": "1f", "4": "a"}}
    cases = [
        ({}, "id"),
        ({"shares": good["shares"]}, "id"),
        ({**good, "id": "two"}, "id"),
        ({**good, "id": [2]}, "id"),
        ({"id": 2}, "shares"),
        ({**good, "shares": ["1f"]}, "shares"),
        ({**good, "shares": {"3": 31}}, "shares"),
        ({**good, "shares": {"3": "zz"}}, "shares"),
        ({**good, "shares": {"three": "1f"}}, "shares"),
    ]
    assert arith.ArithEncKey.from_json(good) == arith.ArithEncKey(id=2, shares={3: 31, 4: 10})
    for doc, name in cases:
        with pytest.raises(BadField, match=f"'{name}'"):
            arith.ArithEncKey.from_json(doc)
