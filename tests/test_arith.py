import json
import math
import random
from fractions import Fraction

import pytest

from pda_kit import arith, netsim
from pda_kit.bus import Bus
from pda_kit.errors import (
    ExtractionFailed,
    GroupTooSmall,
    IncompleteGroup,
    KeyMissing,
    MixedKinds,
    NonInvertibleBroadcast,
    PartyMissing,
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


def test_initialize_party_missing():
    params = arith.setup(16, 4, 3, Rng(1))
    bus = Bus(range(1, 5))
    with pytest.raises(PartyMissing):
        arith.initialize(bus, params, Rng("init"), ids=range(1, 5), dropouts={2})


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
    with pytest.raises(ExtractionFailed):
        arith.keygen(Bus(range(1, 5)), params, Rng("k"), masters)


def test_keygen_degree_subset():
    params = arith.setup(16, 5, 3, Rng(10))
    bus = Bus(range(1, 6))
    masters = arith.initialize(bus, params, Rng("i"), ids=range(1, 6))
    keys = arith.keygen(Bus(range(1, 6)), params, Rng("k"), masters, degrees=[4])
    assert all(sorted(k.shares) == [4] for k in keys.values())


# ---------------------------------------------------------------------------
# encrypt / decrypt on the frozen toy
# ---------------------------------------------------------------------------

TOY = arith.ArithParams(p=11, g=2, n=3, n_min=3)


def toy_keys():
    # hidden polynomial 3x + 5x^2 over Z_110
    return {
        i: arith.ArithEncKey(id=i, shares={3: (3 * i + 5 * i * i) % 110})
        for i in (1, 2, 3)
    }


def test_encrypt_add_frozen():
    keys = toy_keys()
    xs = {1: 4, 2: 7, 3: 9}
    cts = [arith.encrypt_add(TOY, keys[i], (1, 2, 3), xs[i]) for i in (1, 2, 3)]
    assert [ct.value for ct in cts] == [6, 6, 8]
    assert arith.decrypt(TOY, cts) == 9  # (4+7+9) mod 11


def test_encrypt_mul_frozen():
    keys = toy_keys()
    xs = {1: 3, 2: 4, 3: 5}
    cts = [arith.encrypt_mul(TOY, keys[i], (1, 2, 3), xs[i]) for i in (1, 2, 3)]
    assert [ct.value for ct in cts] == [4, 5, 3]
    assert arith.decrypt(TOY, cts) == 5  # (3*4*5) mod 11


def test_encrypt_zero_is_pure_mask():
    keys = toy_keys()
    ct = arith.encrypt_add(TOY, keys[1], (1, 2, 3), 0)
    lam = 3  # weight of id 1 in {1,2,3}
    assert ct.value == keys[1].shares[3] * lam % 11


def test_encrypt_errors():
    keys = toy_keys()
    with pytest.raises(GroupTooSmall):
        arith.encrypt_add(TOY, keys[1], (1, 2), 4)
    with pytest.raises(KeyMissing):
        arith.encrypt_add(TOY, arith.ArithEncKey(id=9, shares={3: 1}), (1, 2, 3), 4)
    with pytest.raises(KeyMissing):
        arith.encrypt_add(
            TOY, arith.ArithEncKey(id=1, shares={4: 1}), (1, 2, 3), 4
        )


def test_decrypt_errors():
    keys = toy_keys()
    add1 = arith.encrypt_add(TOY, keys[1], (1, 2, 3), 4)
    mul2 = arith.encrypt_mul(TOY, keys[2], (1, 2, 3), 4)
    with pytest.raises(MixedKinds):
        arith.decrypt(TOY, [add1, mul2])
    with pytest.raises(IncompleteGroup):
        arith.decrypt(TOY, [add1, add1])
    with pytest.raises(IncompleteGroup):
        arith.decrypt(TOY, [])


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
        weights = arith.lagrange_weights(group).weights
        total = sum(system.enc_keys[i].shares[size] * weights[i] for i in group)
        assert total % m == 0
        assert pow(params.g, total % (params.p - 1), params.p) == 1


def test_end_to_end_random_sweep(plain_arith_system):
    system, _ = plain_arith_system
    params = system.params
    rnd = random.Random(12)
    ids = sorted(system.enc_keys)
    for _ in range(40):
        size = rnd.randint(params.n_min, len(ids))
        group = tuple(sorted(rnd.sample(ids, size)))
        xs = {i: rnd.randrange(params.p) for i in group}
        adds = [arith.encrypt_add(params, system.enc_keys[i], group, xs[i]) for i in group]
        assert arith.decrypt(params, adds) == sum(xs.values()) % params.p
        muls = [arith.encrypt_mul(params, system.enc_keys[i], group, xs[i]) for i in group]
        expected = 1
        for v in xs.values():
            expected = expected * v % params.p
        assert arith.decrypt(params, muls) == expected


def test_key_json_roundtrip(small_system):
    key = small_system.enc_keys[1]
    doc = json.loads(json.dumps(key.to_json()))
    assert arith.ArithEncKey.from_json(doc) == key
