import random

import pytest

from pda_kit.errors import (
    DuplicateId,
    NotInSubgroup,
    NotInvertible,
    StrictChainNotFound,
)
from pda_kit.numtheory import (
    CorrelatedModuli,
    cunningham_step,
    dlog_one_plus_m,
    gen_correlated_moduli,
    gen_safe_prime,
    hash_to_subgroup,
    is_probable_prime,
    lagrange_weights,
    lift_correlated_prime,
    mod_inv,
)
from pda_kit.rng import Rng


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# modular helpers
# ---------------------------------------------------------------------------

def test_mod_inv_known():
    assert mod_inv(8, 23) == 3  # 8*3 = 24 = 1 mod 23


def test_mod_inv_non_unit():
    with pytest.raises(NotInvertible):
        mod_inv(6, 110)  # gcd = 2


# ---------------------------------------------------------------------------
# primality and safe primes
# ---------------------------------------------------------------------------

def test_is_probable_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 2003, 2011, 65537}
    for n in range(2, 200):
        assert is_probable_prime(n) == trial_division_prime(n)
    for n in primes:
        assert is_probable_prime(n)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2047)


@pytest.mark.parametrize("bits", [6, 8, 12])
def test_gen_safe_prime_invariants(bits):
    pair = gen_safe_prime(bits, Rng(f"sp:{bits}"))
    assert pair.p == 2 * pair.p_prime + 1
    assert pair.p.bit_length() == bits
    assert trial_division_prime(pair.p)
    assert trial_division_prime(pair.p_prime)


def test_gen_safe_prime_deterministic():
    a = gen_safe_prime(15, Rng(99))
    b = gen_safe_prime(15, Rng(99))
    assert a == b


def test_gen_safe_prime_example_values_are_valid():
    # 227 = 2*113 + 1 and 47 = 2*23 + 1 are valid outputs of the search
    assert trial_division_prime(227) and trial_division_prime(113)
    assert trial_division_prime(47) and trial_division_prime(23)


# ---------------------------------------------------------------------------
# correlated moduli
# ---------------------------------------------------------------------------

def test_lift_correlated_prime_from_23():
    # a=2 gives 93 = 3*31 (composite), a=3 gives 139 (prime); 23 | 138
    a, p = lift_correlated_prime(23)
    assert (a, p) == (3, 139)
    assert not trial_division_prime(93)
    assert trial_division_prime(139)
    assert (p - 1) % 23 == 0


def test_cunningham_step():
    assert cunningham_step(11) == 23  # 11 = 2*5+1 safe, 23 prime
    assert cunningham_step(47) is None  # 95 = 5*19


def _check_moduli(mod: CorrelatedModuli, kappa: int):
    for f in (mod.p, mod.q, mod.p_tilde, mod.q_tilde):
        assert is_probable_prime(f)
    assert mod.p_tilde != mod.q_tilde and mod.p != mod.q
    assert mod.p_tilde.bit_length() == kappa
    assert mod.q_tilde.bit_length() == kappa
    assert (mod.p - 1) % mod.p_tilde == 0
    assert (mod.q - 1) % mod.q_tilde == 0
    phi = (mod.p - 1) * (mod.q - 1)
    assert phi % mod.n_tilde == 0
    assert mod.k_cofactor == phi // mod.n_tilde
    # p~ and q~ are themselves safe primes
    assert is_probable_prime((mod.p_tilde - 1) // 2)
    assert is_probable_prime((mod.q_tilde - 1) // 2)


@pytest.mark.parametrize("kappa", [6, 8, 16])
def test_gen_correlated_moduli_relaxed(kappa):
    mod = gen_correlated_moduli(kappa, Rng(f"cm:{kappa}"))
    _check_moduli(mod, kappa)


def test_gen_correlated_moduli_strict():
    mod = gen_correlated_moduli(10, Rng("strict10"), strict_safe=True)
    _check_moduli(mod, 10)
    assert mod.p == 2 * mod.p_tilde + 1
    assert mod.q == 2 * mod.q_tilde + 1
    assert mod.k_cofactor == 4


def test_gen_correlated_moduli_strict_budget_exhausts():
    # no 6-bit chain p~ -> 2p~+1 exists (safe primes 47 and 59 both fail)
    with pytest.raises(StrictChainNotFound):
        gen_correlated_moduli(6, Rng("strict6"), strict_safe=True, budget=64)


# ---------------------------------------------------------------------------
# Lagrange weights
# ---------------------------------------------------------------------------

def test_lagrange_weights_frozen():
    w = lagrange_weights([1, 2, 3])
    assert w.scale == 1
    assert w.weights == {1: 3, 2: -3, 3: 1}

    w2 = lagrange_weights([2, 4, 5])
    assert w2.scale == 3
    assert w2.weights == {2: 10, 4: -15, 5: 8}


def test_lagrange_weights_duplicate():
    with pytest.raises(DuplicateId):
        lagrange_weights([1, 2, 2])


def test_lagrange_pair_identity():
    # degree-1 polynomial q(x)=x has q(0)=0: a*lam_a + b*lam_b = 0
    rnd = random.Random(7)
    for _ in range(50):
        a, b = rnd.sample(range(1, 65), 2)
        w = lagrange_weights([a, b])
        assert a * w.weights[a] + b * w.weights[b] == 0


def test_lagrange_zero_constant_cancellation_sweep():
    # random zero-constant polynomials over random moduli
    rnd = random.Random(20_240_601)
    for _ in range(200):
        size = rnd.randint(2, 12)
        ids = rnd.sample(range(1, 65), size)
        modulus = rnd.randint(2, 1 << 64)
        coeffs = [rnd.randrange(modulus) for _ in range(size - 1)]

        def q(x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = (acc + c) * x % modulus
            return acc

        w = lagrange_weights(ids)
        total = sum(w.weights[i] * q(i) for i in ids)
        assert total % modulus == 0


# ---------------------------------------------------------------------------
# subgroup dlog
# ---------------------------------------------------------------------------

def test_dlog_frozen():
    assert dlog_one_plus_m(36, 7) == 5  # (1+7)^5 = 1 + 5*7 mod 49
    assert dlog_one_plus_m(16, 5) == 3
    assert dlog_one_plus_m(1, 12345) == 0


def test_dlog_rejects_non_subgroup():
    with pytest.raises(NotInSubgroup):
        dlog_one_plus_m(37, 7)
    with pytest.raises(ValueError):
        dlog_one_plus_m(50, 7)  # >= M^2


def test_dlog_roundtrip_sweep():
    rnd = random.Random(3)
    for _ in range(200):
        m = rnd.randint(2, 1 << 32)
        x = rnd.randrange(m)
        y = pow(1 + m, x, m * m)
        assert dlog_one_plus_m(y, m) == x


# ---------------------------------------------------------------------------
# hash to subgroup
# ---------------------------------------------------------------------------

def test_hash_deterministic():
    a = hash_to_subgroup(12345, 16, 55, 5, seed=b"x")
    b = hash_to_subgroup(12345, 16, 55, 5, seed=b"x")
    assert a == b
    assert a != hash_to_subgroup(12346, 16, 55, 5, seed=b"x")


def test_hash_lands_in_toy_subgroup():
    # 16 has order 5 mod 55; phi(55) = 40, 5 | 40
    subgroup = {pow(16, k, 55) for k in range(5)}
    assert subgroup == {1, 16, 26, 31, 36}
    for t in range(20):
        assert hash_to_subgroup(t, 16, 55, 5) in subgroup


def test_hash_is_root_of_unity_on_real_params():
    mod = gen_correlated_moduli(8, Rng("h8"))
    g = Rng("g8").unit(mod.n)
    h = pow(g, mod.k_cofactor, mod.n)
    for t in (0, 1, 99, 12_345_678):
        out = hash_to_subgroup(t, h, mod.n, mod.n_tilde, seed=b"s")
        assert pow(out, mod.n_tilde, mod.n) == 1
