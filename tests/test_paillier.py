import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pda_kit import paillier
from pda_kit.errors import InvalidCiphertext, InvalidKey, MessageTooLarge
from pda_kit.rng import Rng


@pytest.fixture(scope="module")
def toy_keys():
    return paillier.keygen(48, Rng("pail48"))


def lambda_decrypt(keys, ct):
    """The textbook decryption L(c^lambda mod n^2) * mu mod n, as a reference."""
    return (pow(ct, keys.lam, keys.nsq) - 1) // keys.n * keys.mu % keys.n


def test_from_primes_frozen():
    keys = paillier.from_primes(11, 13)
    assert keys.n == 143
    assert keys.lam == 60  # lcm(10, 12)
    assert (keys.p, keys.q) == (11, 13)
    assert paillier.from_primes(13, 11) == keys


def test_encrypt_zero_unit_randomizer():
    keys = paillier.from_primes(11, 13)
    assert paillier.decrypt(keys, 1) == 0


def test_homomorphic_add_toy_15():
    keys = paillier.from_primes(3, 5)  # n = 15
    pk = keys.public()
    rng = Rng("h15")
    c2, c3 = paillier.encrypt_many(pk, [2, 3], rng)
    c = c2 * c3 % pk.nsq
    assert paillier.decrypt(keys, c) == 5


def test_scalar_toy_143():
    keys = paillier.from_primes(11, 13)
    pk = keys.public()
    (c,) = paillier.scale_many(pk, [(paillier.encrypt_many(pk, [2], Rng("s143"))[0], 7)])
    assert paillier.decrypt(keys, c) == 14


def test_roundtrip_sweep(toy_keys):
    pk = toy_keys.public()
    rng = Rng("round")
    rnd = random.Random(1)
    for _ in range(1000):
        m = rnd.randrange(toy_keys.n)
        assert paillier.decrypt(toy_keys, paillier.encrypt_many(pk, [m], rng)[0]) == m


def test_homomorphic_properties_sweep(toy_keys):
    pk = toy_keys.public()
    rng = Rng("hom")
    rnd = random.Random(2)
    for _ in range(100):
        m1 = rnd.randrange(toy_keys.n // 2)
        m2 = rnd.randrange(toy_keys.n // 2)
        c1, c2 = paillier.encrypt_many(pk, [m1, m2], rng)
        c = c1 * c2 % pk.nsq
        assert paillier.decrypt(toy_keys, c) == m1 + m2
        a = rnd.randrange(1, 1000)
        (c2,) = paillier.scale_many(pk, [(paillier.encrypt_many(pk, [m1], rng)[0], a)])
        assert paillier.decrypt(toy_keys, c2) == m1 * a % toy_keys.n


def test_rerandomization_invariance(toy_keys):
    pk = toy_keys.public()
    rng = Rng("rerand")
    rnd = random.Random(3)
    for _ in range(50):
        m = rnd.randrange(toy_keys.n)
        (c,) = paillier.encrypt_many(pk, [m], rng)
        s = rng.unit(pk.n)
        assert paillier.decrypt(toy_keys, c * pow(s, pk.n, pk.nsq) % pk.nsq) == m


def test_unit_blinding_roundtrip(toy_keys):
    # multiplying by K and then K^-1 restores the plaintext: basis of term blinding
    pk = toy_keys.public()
    rng = Rng("blind")
    m = 1234 % toy_keys.n
    (c,) = paillier.encrypt_many(pk, [m], rng)
    k = rng.unit(pk.nsq)
    blinded = c * k % pk.nsq
    restored = blinded * pow(k, -1, pk.nsq) % pk.nsq
    assert paillier.decrypt(toy_keys, restored) == m


def test_message_too_large(toy_keys):
    with pytest.raises(MessageTooLarge):
        paillier.encrypt_many(toy_keys.public(), [toy_keys.n], Rng("x"))


def test_invalid_ciphertext(toy_keys):
    with pytest.raises(InvalidCiphertext):
        paillier.decrypt(toy_keys, toy_keys.n)  # shares a factor with n


def test_keygen_bits_and_gcd():
    keys = paillier.keygen(40, Rng("k40"))
    assert keys.n.bit_length() == 40
    assert math.gcd(keys.lam, keys.n) == 1
    assert keys.p < keys.q and keys.p * keys.q == keys.n
    assert keys.lam == math.lcm(keys.p - 1, keys.q - 1)


def test_required_bits():
    n = (1 << 64) - 59  # 64 bits
    assert paillier.required_bits(n, 8) == 2 * 64 + 3 + 1
    assert paillier.required_bits(n, 1) == 2 * 64 + 0 + 1
    assert paillier.required_bits(n, 5) == 2 * 64 + 3 + 1


def test_json_roundtrip(toy_keys):
    doc = paillier.to_json(toy_keys)
    assert set(doc) == {"n_a", "lambda", "mu"}
    back = paillier.from_json(doc)
    assert back == toy_keys


@pytest.mark.parametrize(
    "field, change",
    [("mu", lambda v: v + 1), ("lambda", lambda v: v + 1), ("mu", lambda v: 0)],
    ids=["mu-plus-one", "lambda-plus-one", "mu-zero"],
)
def test_from_json_refuses_mu_that_does_not_invert_lambda(toy_keys, field, change):
    doc = paillier.to_json(toy_keys)
    doc[field] = format(change(int(doc[field], 16)), "x")
    with pytest.raises(InvalidKey):
        paillier.from_json(doc)


def test_from_json_refuses_lambda_sharing_a_factor_with_n():
    keys = paillier.from_primes(11, 13)
    for lam in (60 * 11, 13):
        doc = {**paillier.to_json(keys), "lambda": format(lam, "x")}
        for mu in range(keys.n):
            doc["mu"] = format(mu, "x")
            with pytest.raises(InvalidKey):
                paillier.from_json(doc)


def test_from_json_refuses_lambda_that_does_not_split_n():
    # mu * lambda = 1 passes the inverse check, but 1 is no multiple of
    # lcm(p-1, q-1): the lambda formula would decrypt E(5) to noise
    keys = paillier.keygen(64, Rng("split64"))
    doc = {"n_a": format(keys.n, "x"), "lambda": "1", "mu": "1"}
    bogus = paillier.AggKeyPair(n=keys.n, lam=1, mu=1, p=keys.p, q=keys.q)
    assert lambda_decrypt(bogus, paillier.encrypt_many(keys.public(), [5], Rng("e5"))[0]) != 5
    with pytest.raises(InvalidKey, match="lambda"):
        paillier.from_json(doc)


@pytest.mark.parametrize(
    "lam",
    [lambda k: k.p - 1, lambda k: (k.q - 1) * 2, lambda k: k.lam // 2, lambda k: k.n - 1],
    ids=["p-1", "2(q-1)", "half-lambda", "n-1"],
)
def test_from_json_refuses_lambda_that_is_not_a_carmichael_multiple(lam):
    keys = paillier.keygen(64, Rng("split64"))
    bad = lam(keys)
    mu = pow(bad, -1, keys.n)
    doc = {"n_a": format(keys.n, "x"), "lambda": format(bad, "x"), "mu": format(mu, "x")}
    with pytest.raises(InvalidKey):
        paillier.from_json(doc)


@pytest.mark.parametrize("n_a", ["0", "1", "-f"])
def test_from_json_refuses_modulus_below_two(n_a):
    for doc in ({"n_a": n_a}, {"n_a": n_a, "lambda": "1", "mu": "1"}):
        with pytest.raises(InvalidKey):
            paillier.from_json(doc)


def test_from_json_refuses_square_modulus():
    # 2 divides n = 4, so the split returns p = q = 2 before any chain
    with pytest.raises(InvalidKey):
        paillier.from_json({"n_a": "4", "lambda": "1", "mu": "1"})


def test_from_json_refuses_prime_modulus():
    n = (1 << 61) - 1
    mu = pow(n - 1, -1, n)
    doc = {"n_a": format(n, "x"), "lambda": format(n - 1, "x"), "mu": format(mu, "x")}
    with pytest.raises(InvalidKey, match="split"):
        paillier.from_json(doc)


SMALL_PRIMES = [p for p in range(3, 600) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _check_key(keys, data):
    back = paillier.from_json(paillier.to_json(keys))
    assert back == keys
    assert (back.p, back.q) == (keys.p, keys.q) and back.p < back.q
    nsq = keys.nsq
    drawn = data.draw(st.lists(st.integers(1, nsq - 1), max_size=8), label="cts")
    for ct in [1, nsq - 1, nsq - 2, nsq - keys.n - 1, *drawn]:
        if math.gcd(ct, keys.n) == 1:
            assert paillier.decrypt(back, ct) == lambda_decrypt(keys, ct)


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(24, 160), seed=st.integers(0, 2**32), data=st.data())
def test_crt_decrypt_matches_lambda_formula(bits, seed, data):
    # both primes exceed 2000, so from_json splits n by Miller's chain
    _check_key(paillier.keygen(bits, Rng(seed)), data)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(SMALL_PRIMES), q=st.sampled_from(SMALL_PRIMES), data=st.data())
def test_crt_decrypt_matches_lambda_formula_small_primes(p, q, data):
    assume(p != q and math.gcd(math.lcm(p - 1, q - 1), p * q) == 1)
    _check_key(paillier.from_primes(p, q), data)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def keyring(toy_keys):
    # at 1,040 bits n^2, p^2 and q^2 all reach numtheory's spread floor
    return {48: toy_keys, 1040: paillier.keygen(1040, Rng("pail1040"))}


def rng_state(rng):
    return rng._key, rng._counter, rng._buffer


@pytest.mark.parametrize("bits", [48, 1040])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_encrypt_many_is_a_loop_of_encrypt(keyring, bits, data):
    # the same ciphertexts and the same draws as encrypting one at a time,
    # each (1 + m n) r^n mod n^2 with r the next unit drawn
    keys = keyring[bits]
    pk = keys.public()
    ms = data.draw(st.lists(st.integers(0, pk.n - 1), max_size=5), label="ms")
    seed = data.draw(st.binary(max_size=8), label="seed")
    batch_rng, loop_rng, ref_rng = Rng(seed), Rng(seed), Rng(seed)
    cts = paillier.encrypt_many(pk, ms, batch_rng)
    assert cts == [paillier.encrypt_many(pk, [m], loop_rng)[0] for m in ms]
    assert rng_state(batch_rng) == rng_state(loop_rng)
    ref = [(1 + m * pk.n) * pow(ref_rng.unit(pk.n), pk.n, pk.nsq) % pk.nsq for m in ms]
    assert cts == ref
    assert [paillier.decrypt(keys, ct) for ct in cts] == ms


@pytest.mark.parametrize("bad", [-1, "n"])
@pytest.mark.parametrize("at", [0, 2])
def test_encrypt_many_refuses_before_any_draw(toy_keys, bad, at):
    pk = toy_keys.public()
    ms = [1, 2, 3]
    ms[at] = pk.n if bad == "n" else bad
    rng = Rng("refuse")
    before = rng_state(rng)
    with pytest.raises(MessageTooLarge):
        paillier.encrypt_many(pk, ms, rng)
    assert rng_state(rng) == before


@pytest.mark.parametrize("bits", [48, 1040])
def test_scale_many_is_a_loop_of_scale(keyring, bits):
    pk = keyring[bits].public()
    rnd = random.Random(bits)
    terms = [(rnd.randrange(1, pk.nsq), rnd.randrange(pk.n * pk.n)) for _ in range(5)]
    scaled = paillier.scale_many(pk, terms)
    assert scaled == [paillier.scale_many(pk, [term])[0] for term in terms]
    assert scaled == [pow(ct, k, pk.nsq) for ct, k in terms]
    with pytest.raises(ValueError):
        paillier.scale_many(pk, [*terms, (terms[0][0], -1)])
