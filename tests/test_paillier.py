import math
import random

import pytest

from pda_kit import paillier
from pda_kit.errors import InvalidCiphertext, MessageTooLarge
from pda_kit.rng import Rng


@pytest.fixture(scope="module")
def toy_keys():
    return paillier.keygen(48, Rng("pail48"))


def test_from_primes_frozen():
    keys = paillier.from_primes(11, 13)
    assert keys.n == 143
    assert keys.lam == 60  # lcm(10, 12)


def test_encrypt_zero_unit_randomizer():
    keys = paillier.from_primes(11, 13)
    assert paillier.encrypt(keys.public(), 0, r=1) == 1
    assert paillier.decrypt(keys, 1) == 0


def test_homomorphic_add_toy_15():
    keys = paillier.from_primes(3, 5)  # n = 15
    pk = keys.public()
    rng = Rng("h15")
    c = paillier.encrypt(pk, 2, rng) * paillier.encrypt(pk, 3, rng) % pk.nsq
    assert paillier.decrypt(keys, c) == 5


def test_scalar_toy_143():
    keys = paillier.from_primes(11, 13)
    pk = keys.public()
    c = paillier.scale(pk, paillier.encrypt(pk, 2, Rng("s143")), 7)
    assert paillier.decrypt(keys, c) == 14


def test_roundtrip_sweep(toy_keys):
    pk = toy_keys.public()
    rng = Rng("round")
    rnd = random.Random(1)
    for _ in range(1000):
        m = rnd.randrange(toy_keys.n)
        assert paillier.decrypt(toy_keys, paillier.encrypt(pk, m, rng)) == m


def test_homomorphic_properties_sweep(toy_keys):
    pk = toy_keys.public()
    rng = Rng("hom")
    rnd = random.Random(2)
    for _ in range(100):
        m1 = rnd.randrange(toy_keys.n // 2)
        m2 = rnd.randrange(toy_keys.n // 2)
        c = paillier.encrypt(pk, m1, rng) * paillier.encrypt(pk, m2, rng) % pk.nsq
        assert paillier.decrypt(toy_keys, c) == m1 + m2
        a = rnd.randrange(1, 1000)
        c2 = paillier.scale(pk, paillier.encrypt(pk, m1, rng), a)
        assert paillier.decrypt(toy_keys, c2) == m1 * a % toy_keys.n


def test_rerandomization_invariance(toy_keys):
    pk = toy_keys.public()
    rng = Rng("rerand")
    rnd = random.Random(3)
    for _ in range(50):
        m = rnd.randrange(toy_keys.n)
        c = paillier.encrypt(pk, m, rng)
        s = rng.unit(pk.n)
        assert paillier.decrypt(toy_keys, c * pow(s, pk.n, pk.nsq) % pk.nsq) == m


def test_unit_blinding_roundtrip(toy_keys):
    # multiplying by K and then K^-1 restores the plaintext: basis of term blinding
    pk = toy_keys.public()
    rng = Rng("blind")
    m = 1234 % toy_keys.n
    c = paillier.encrypt(pk, m, rng)
    k = rng.unit(pk.nsq)
    blinded = c * k % pk.nsq
    restored = blinded * pow(k, -1, pk.nsq) % pk.nsq
    assert paillier.decrypt(toy_keys, restored) == m


def test_message_too_large(toy_keys):
    with pytest.raises(MessageTooLarge):
        paillier.encrypt(toy_keys.public(), toy_keys.n, Rng("x"))


def test_invalid_ciphertext(toy_keys):
    with pytest.raises(InvalidCiphertext):
        paillier.decrypt(toy_keys, toy_keys.n)  # shares a factor with n


def test_keygen_bits_and_gcd():
    keys = paillier.keygen(40, Rng("k40"))
    assert keys.n.bit_length() == 40
    assert math.gcd(keys.lam, keys.n) == 1


def test_required_bits():
    n = (1 << 64) - 59  # 64 bits
    assert paillier.required_bits(n, 8) == 3 * 64 + 3 + 2
    assert paillier.required_bits(n, 1) == 3 * 64 + 0 + 2
    assert paillier.required_bits(n, 5) == 3 * 64 + 3 + 2


def test_json_roundtrip(toy_keys):
    doc = paillier.to_json(toy_keys)
    assert set(doc) == {"n_a", "lambda", "mu"}
    back = paillier.from_json(doc)
    assert back == toy_keys
    pub = paillier.to_json(toy_keys, private=False)
    assert set(pub) == {"n_a"}
    assert paillier.from_json(pub) == toy_keys.public()
