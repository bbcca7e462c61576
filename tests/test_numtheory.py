import builtins
import errno
import math
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child, fork_every_ceremony
from pda_kit import numtheory
from pda_kit.bus import Bus
from pda_kit.errors import (
    DuplicateId,
    ExtractionFailed,
    NotInSubgroup,
    NotInvertible,
)
from pda_kit.numtheory import (
    CorrelatedModuli,
    dlog_one_plus_m,
    evaluate_packed,
    fixed_base_pows,
    gen_correlated_moduli,
    gen_safe_prime,
    hash_to_subgroup,
    is_probable_prime,
    lagrange_weights,
    lift_correlated_prime,
    mod_inv,
    ring_exchange,
    share_exchange,
    slot_exponent,
    unit_power,
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


# Modulus width -> exponent-bound width of the three mask shapes (h mod N
# below N~ at kappa=48, g mod p below p-1 at 512 bits, h mod N below N~ at
# kappa=512) and of one shape wider than any mask.  Only the first is
# narrow enough for the vector walk; a batch of any other goes to `pows`.
SHAPES = {104: 96, 512: 512, 1041: 1024, 2100: 2048}


def mask_shape(bits: int) -> tuple[int, int, int]:
    rnd = random.Random(bits)
    modulus = rnd.getrandbits(bits) | 1 << (bits - 1) | 1
    bound_bits = SHAPES[bits]
    bound = rnd.getrandbits(bound_bits) | 1 << (bound_bits - 1)
    return rnd.randrange(2, modulus), modulus, bound


def limb_lookups() -> int:
    info = numtheory._limb_comb.cache_info()
    return info.hits + info.misses


def vector_batch(es: list[int]) -> list[int]:
    """es, then zeros up to 512 exponents: a batch as wide as a round's,
    whose filler costs the reference pows nothing at any width."""
    return [*es, *[0] * (512 - len(es))]


def check_batch(base: int, es: list[int], modulus: int, bound: int) -> None:
    """fixed_base_pows gives pow's values, by the vector walk exactly when
    the batch is not empty and the (odd) modulus is below the ceiling."""
    before = limb_lookups()
    assert fixed_base_pows(base, es, modulus, bound) == [pow(base, e, modulus) for e in es]
    walked = bool(es) and modulus < numtheory._VECTOR_CEILING
    assert (limb_lookups() > before) == walked


@pytest.mark.parametrize("bits", sorted(SHAPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_base_pow_matches_pow(bits, data):
    # one exponent, walked below the ceiling and sent to `pows` above it
    base, modulus, bound = mask_shape(bits)
    e = data.draw(st.integers(0, bound - 1), label="e")
    check_batch(base, [e], modulus, bound)


@pytest.mark.parametrize("bits", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fixed_base_pow_extreme_digits(bits, data):
    # in a batch of 512 exponents, a few whose every byte below
    # the bound's top byte is 0 or 255: the vector walk's first and last
    # entry of each row
    base, modulus, bound = mask_shape(bits)
    digits = (SHAPES[bits] - 1) // 8
    full = st.lists(st.integers(0, (1 << digits) - 1), min_size=1, max_size=3)
    es = [sum(255 << 8 * j for j in range(digits) if f >> j & 1) for f in data.draw(full, label="full")]
    check_batch(base, vector_batch(es), modulus, bound)


@pytest.mark.parametrize("bits", sorted(SHAPES))
def test_fixed_base_pow_edges(bits):
    # 0, 1, either side of the bound's top bit and bound - 1 in a batch of
    # 512 exponents; one exponent out of range refuses the batch
    base, modulus, bound = mask_shape(bits)
    top = 1 << SHAPES[bits] - 1  # bound's top bit
    check_batch(base, vector_batch([0, 1, top - 1, top, bound - top, bound - 1]), modulus, bound)
    for e in (-1, bound, bound + 1):
        with pytest.raises(ValueError):
            fixed_base_pows(base, vector_batch([e]), modulus, bound)


def test_fixed_base_pow_small_and_unreduced():
    # bound 1 admits only e = 0, and modulus 1 gives pow's 0; an empty
    # batch builds no limb table; a base at or above the modulus gives
    # pow's values in a vector batch too
    assert fixed_base_pows(7, [0], 11, 1) == [1]
    check_batch(7, [], 11, 5)
    assert fixed_base_pows(7, [0], 1, 5) == [pow(7, 0, 1)] == [0]
    for modulus in (11, mask_shape(104)[1]):
        for base in (modulus, modulus + 2, 5 * modulus + 123, (1 << 300) + 1):
            es = list(range(512))
            check_batch(base, es, modulus, len(es))


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(1, 40),
    modulus=st.integers(1, 1 << 80),
    base=st.integers(0, 1 << 90),
    data=st.data(),
)
def test_fixed_base_pow_tiny_bounds(bound, modulus, base, data):
    e = data.draw(st.integers(0, bound - 1), label="e")
    assert fixed_base_pows(base, [e], modulus, bound) == [pow(base, e, modulus)]


@pytest.mark.parametrize("bits", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fixed_base_pows_matches_pow(bits, data):
    # a batch, empty or not, of zeros, exponents of one byte (far shorter
    # than the bound's width) and exponents of any width
    base, modulus, bound = mask_shape(bits)
    exponent = st.one_of(st.just(0), st.integers(0, 255), st.integers(0, bound - 1))
    es = data.draw(st.lists(exponent, max_size=6), label="es")
    assert fixed_base_pows(base, es, modulus, bound) == [pow(base, e, modulus) for e in es]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fixed_base_pows_checks_the_batch_before_any_walk(data):
    # one exponent out of range anywhere in a batch for `pows` or for the
    # vector walk: ValueError, and neither route is reached
    base, modulus, bound = mask_shape(104)
    es = data.draw(st.lists(st.integers(0, bound - 1), max_size=5), label="es")
    bad = data.draw(st.sampled_from([-1, bound, bound + 1, 2 * bound]), label="bad")
    es.insert(data.draw(st.integers(0, len(es)), label="at"), bad)

    def no_walk(*args):
        raise AssertionError("computed before the range check")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numtheory, "pows", no_walk)
        patch.setattr(numtheory, "_vector_walk", no_walk)
        for batch in (es, vector_batch(es)):
            with pytest.raises(ValueError, match="exponent outside"):
                fixed_base_pows(base, batch, modulus, bound)


ROUTING_CASES = {
    # name: modulus; every modulus but one is odd
    "479-bit": (1 << 478) + 2 * 479 + 1,
    "480-bit": (1 << 479) + 2 * 480 + 1,
    "even": (1 << 106) + 2,
    "1": 1,
    "ceiling": numtheory._VECTOR_CEILING + 1,
}


@pytest.mark.parametrize("library", [True, False], ids=["libcrypto", "builtin"])
@pytest.mark.parametrize("case", sorted(ROUTING_CASES))
def test_batches_off_the_vector_walk_go_to_pows(library, case):
    # a 479-bit and a 480-bit modulus, an even modulus, modulus 1 and an
    # odd modulus at the ceiling: whether or not libcrypto loaded, the
    # whole batch is one `pows` call, equal to the builtin pow, and no limb
    # table is looked up
    if library and numtheory._libcrypto is None:
        pytest.skip("libcrypto did not load")
    modulus = ROUTING_CASES[case]
    rnd = random.Random(case)
    bound = 1 << 96
    es = vector_batch([0, bound - 1, *(rnd.randrange(bound) for _ in range(6))])
    base = rnd.randrange(modulus + 5)
    calls = []
    inner = numtheory.pows

    def recording(items):
        calls.append(len(items))
        return inner(items)

    with pytest.MonkeyPatch.context() as patch:
        if not library:
            patch.setattr(numtheory, "_libcrypto", None)
        patch.setattr(numtheory, "pows", recording)
        before = limb_lookups()
        assert fixed_base_pows(base, es, modulus, bound) == [builtins.pow(base, e, modulus) for e in es]
    assert limb_lookups() == before
    assert calls == [len(es)]


def test_limb_table_size():
    # ceil(bits/8) rows of 256 entries of L limbs at 8 bytes each: 98 KB
    # at the kappa=48 shape (a 104-bit modulus, 96-bit bound, L = 4);
    # row 0 holds base^d, row j base^{d * 2^{8j}} * R in Montgomery form
    base, modulus, _ = mask_shape(104)
    table, limbs, _ = numtheory._limb_comb(base, modulus, SHAPES[104])
    assert table.shape == (12, 4, 256)
    assert table.nbytes == 12 * 256 * 4 * 8 == 98_304
    r = 1 << 27 * 4

    def entry(j: int, d: int) -> int:
        return sum(int(limb) << 27 * i for i, limb in enumerate(table[j, :, d]))

    assert sum(int(limb) << 27 * i for i, limb in enumerate(limbs[:, 0])) == modulus
    for j, d in [(0, 0), (0, 1), (0, 255), (1, 0), (5, 77), (11, 255)]:
        want = pow(base, d << 8 * j, modulus)
        assert entry(j, d) == (want if j == 0 else want * r % modulus)


# The vector walk's modulus widths: from 2 bits (3, the least odd modulus
# above 1) to the ceiling, with every whole count of 27-bit limbs and the
# widths one bit on either side, where the limb count changes.  Odd moduli
# up to 2^16 are drawn on their own too: arith params read from a file
# may have p = 5 or 7.
VECTOR_CEILING_BITS = numtheory._VECTOR_CEILING.bit_length() - 1
VECTOR_BITS = sorted(
    {2, 3, VECTOR_CEILING_BITS}
    | {b for k in range(1, 8) for b in (27 * k - 1, 27 * k, 27 * k + 1) if b <= VECTOR_CEILING_BITS}
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vector_walk_matches_pow(data):
    # a batch of 1 to 3 exponents or of 512 takes the vector walk (its
    # limb table is looked up) and gives pow's values, for odd moduli of
    # every width below the ceiling, bases 0, 1, m - 1, unreduced ones and
    # any other, and exponents 0 and bound - 1 among random ones
    bits = data.draw(st.sampled_from(VECTOR_BITS) | st.integers(2, VECTOR_CEILING_BITS), label="bits")
    top = data.draw(st.booleans(), label="top")  # the widest modulus of its width
    low = (1 << bits) - 1 if top else 1 << bits - 1
    widths = st.integers(low, (1 << bits) - 1)
    modulus = data.draw(widths | st.integers(3, 1 << 16), label="modulus") | 1
    base = data.draw(
        st.sampled_from([0, 1, modulus - 1])
        | st.integers(modulus, 3 * modulus)
        | st.integers(0, modulus - 1),
        label="base",
    )
    bound = data.draw(st.integers(1, 1 << data.draw(st.integers(0, 200), label="width")), label="bound")
    size = data.draw(st.sampled_from([1, 2, 3, 512]), label="size")
    es = [0, bound - 1, *data.draw(st.lists(st.integers(0, bound - 1), max_size=8), label="es")]
    rnd = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    es += [rnd.randrange(bound) for _ in range(size - len(es))]
    es = es[-size:]
    before = limb_lookups()
    assert fixed_base_pows(base, es, modulus, bound) == [pow(base, e, modulus) for e in es]
    assert limb_lookups() > before


@pytest.mark.parametrize("bits", VECTOR_BITS)
def test_vector_walk_at_every_limb_count(bits):
    # a modulus just below a limb boundary leaves the last Montgomery
    # product at or above the modulus for about a quarter of the
    # exponents, so the final subtraction is exercised at 27k - 1 bits
    rnd = random.Random(bits)
    modulus = rnd.getrandbits(bits) | 1 << bits - 1 | 1
    base, bound = rnd.randrange(modulus), 1 << 96
    es = [0, bound - 1, *(rnd.randrange(bound) for _ in range(510))]
    before = limb_lookups()
    assert fixed_base_pows(base, es, modulus, bound) == [pow(base, e, modulus) for e in es]
    assert limb_lookups() > before


@pytest.mark.parametrize(
    "modulus",
    [1, 2, 4, 6, (1 << 106) + 2, (1 << 190) - 2, numtheory._VECTOR_CEILING + 1, (1 << 300) + 1],
    ids=["1", "2", "4", "6", "even-107", "even-190", "ceiling+1", "odd-301"],
)
def test_even_moduli_one_and_wide_moduli_walk_per_exponent(modulus):
    # Montgomery products need an odd modulus above 1, and the vector
    # walk stops at the ceiling: such a batch, however large, goes to
    # `pows` and builds no limb table
    bound = 1 << 96
    rnd = random.Random(modulus)
    es = [0, bound - 1, *(rnd.randrange(bound) for _ in range(510))]
    base = rnd.randrange(modulus + 5)
    before = limb_lookups()
    assert fixed_base_pows(base, es, modulus, bound) == [pow(base, e, modulus) for e in es]
    assert limb_lookups() == before


@pytest.mark.parametrize(
    "modulus, base",
    [(9, 3), (3**40, 3), (5**30 * 7, 35), (3**100, 6)],
    ids=["9", "3^40", "5^30*7", "3^100"],
)
def test_vector_walk_of_a_base_sharing_a_factor_with_the_modulus(modulus, base):
    # base^e is 0 mod the modulus from some e on, which the walk's last
    # Montgomery product can leave as the modulus itself
    es = list(range(512))
    assert fixed_base_pows(base, es, modulus, len(es)) == [pow(base, e, modulus) for e in es]


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


def _primes_below(limit: int) -> list[int]:
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


PRIMES_BELOW_2_16 = _primes_below(1 << 16)
PRIME_SET = frozenset(PRIMES_BELOW_2_16)


def test_is_probable_prime_below_2_16_is_trial_division():
    assert [n for n in range(1 << 16) if is_probable_prime(n)] == PRIMES_BELOW_2_16
    assert {0, 1, 4, 65535}.isdisjoint(PRIME_SET) and {2, 1999, 2003, 65521} <= PRIME_SET


# primes below this bound are sieved out of a candidate n >= 2^16
SIEVE_DEPTH = 2000


def free_below(n: int, bound: int) -> bool:
    """n has no prime factor below `bound` other than itself (trial division)."""
    return all(n % p or n == p for p in PRIMES_BELOW_2_16 if p < bound)


def sieve_oracle(n: int, pair: bool) -> bool:
    if n < 1 << 16:
        return n in PRIME_SET and (not pair or sieve_oracle(2 * n + 1, False))
    return all(free_below(x, SIEVE_DEPTH) for x in ((n, 2 * n + 1) if pair else (n,)))


# primes at both edges of the sieve: its gcds end below 2000, its trial
# division below 2^16
EDGE_PRIMES = [p for p in PRIMES_BELOW_2_16 if 1900 < p < 2100 or 64_000 < p] + [
    65537, 65539, 65543, 65551, 65557, 65563, 65579,
]
# known large primes: Mersenne exponents 61, 89, 107, 127, 521, 607 and
# 2^130 - 5, 2^255 - 19 and 2^448 - 2^224 - 1
LARGE_PRIMES = [(1 << e) - 1 for e in (61, 89, 107, 127, 521, 607)] + [
    (1 << 130) - 5, (1 << 255) - 19, (1 << 448) - (1 << 224) - 1,
]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, (1 << 20) - 1), pair=st.booleans())
def test_sieve_agrees_with_trial_division(n, pair):
    assert numtheory._sieved(n, pair) == sieve_oracle(n, pair)


@settings(max_examples=150, deadline=None)
@given(ell=st.sampled_from(EDGE_PRIMES), m=st.sampled_from(LARGE_PRIMES), pair=st.booleans())
def test_sieve_at_its_edges(ell, m, pair):
    # ell is the least prime factor of ell * m, and with pair of 2q + 1
    n = ell * m
    if pair:
        n = (n - 1) // 2
    assert numtheory._sieved(n, pair) == sieve_oracle(n, pair)
    if not pair and m.bit_length() > 500:
        assert numtheory._sieved(n) == (ell > SIEVE_DEPTH)


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1 << 16, 1 << 600))
def test_pair_sieve_is_the_sieve_of_both_members(q):
    assert numtheory._sieved(q, True) == (
        free_below(q, SIEVE_DEPTH) and free_below(2 * q + 1, SIEVE_DEPTH)
    )


def test_sieve_leaves_a_factor_above_2000_to_miller_rabin():
    n = 2003 * ((1 << 521) - 1)
    assert numtheory._sieved(n)
    assert not is_probable_prime(n)


@pytest.mark.parametrize("bits", [6, 8, 12])
def test_gen_safe_prime_invariants(bits):
    p = gen_safe_prime(bits, Rng(f"sp:{bits}"))
    p_prime = (p - 1) // 2
    assert p == 2 * p_prime + 1
    assert p.bit_length() == bits
    assert trial_division_prime(p)
    assert trial_division_prime(p_prime)


def test_gen_safe_prime_deterministic():
    a = gen_safe_prime(15, Rng(99))
    b = gen_safe_prime(15, Rng(99))
    assert a == b


def test_gen_safe_prime_example_values_are_valid():
    # 227 = 2*113 + 1 and 47 = 2*23 + 1 are valid outputs of the search
    assert trial_division_prime(227) and trial_division_prime(113)
    assert trial_division_prime(47) and trial_division_prime(23)


@pytest.mark.parametrize(
    "bits, rounds",
    [(1043, 4), (1044, 4)]
    + [(bits, 8) for bits in range(511, 521)]
    + [(48, 64), (104, 64), (108, 64), (206, 64)],
)
def test_search_rounds_by_width(bits, rounds):
    # 1043/1044: the pda_agg_k512 Paillier primes; 511-520: safe-prime q
    # at kappa=512; 108: the regress_n64 Paillier primes
    assert numtheory._search_rounds(bits) == rounds


def test_search_rounds_meet_the_dlp_bound():
    def log2_bound(k, t):
        return 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))

    for k in range(21, 3000):
        t = numtheory._search_rounds(k)
        if k < 207:
            assert t == numtheory.MILLER_RABIN_ROUNDS
            assert all(log2_bound(k, u) >= -100 for u in range(3, k // 9 + 1))
        else:
            assert 3 <= t <= k // 9
            assert log2_bound(k, t) < -100
            assert t == 3 or log2_bound(k, t - 1) >= -100


POCKLINGTON_LIMIT = 200_000


@pytest.fixture(scope="module")
def least_factor():
    spf = list(range(POCKLINGTON_LIMIT))
    for i in range(2, int(POCKLINGTON_LIMIT**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, POCKLINGTON_LIMIT, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _large_factor(cand, spf):
    """The prime F | cand - 1 with F^2 > cand, if there is one (there is at most one)."""
    rest = cand - 1
    while rest > 1:
        f = spf[rest]
        if f * f > cand:
            return f
        rest //= f
    return None


def test_pocklington_agrees_with_trial_division(least_factor):
    checked = 0
    for cand in range(3, POCKLINGTON_LIMIT):
        f = _large_factor(cand, least_factor)
        if f is not None:
            assert numtheory._pocklington(cand, f) == trial_division_prime(cand), cand
            checked += 1
    assert checked > 50_000


def test_pocklington_rejects_pseudoprimes_and_carmichael_numbers(least_factor):
    def factors(n):
        out = []
        while n > 1:
            out.append(least_factor[n])
            n //= least_factor[n]
        return out

    def carmichael(n):
        fs = factors(n)
        squarefree = len(set(fs)) == len(fs)
        return len(fs) > 1 and squarefree and all((n - 1) % (f - 1) == 0 for f in fs)

    fooling = [
        n
        for n in range(9, POCKLINGTON_LIMIT, 2)
        if least_factor[n] != n and (pow(2, n - 1, n) == 1 or carmichael(n))
    ]
    assert {341, 561, 1105, 1729, 2047} <= set(fooling)
    tested = 0
    for n in fooling:
        f = _large_factor(n, least_factor)
        if f is not None:
            assert not numtheory._pocklington(n, f), n
            tested += 1
    assert tested > 0


@pytest.mark.parametrize(
    "cand, factor",
    [(31, 5), (61, 5), (227, 15), (23, 7), (139, 13), (1, 1), (11, 0)],
    ids=["square-below-31", "square-below-61", "square-below-and-no-divisor",
         "no-divisor-23", "no-divisor-139", "one", "zero"],
)
def test_pocklington_refuses_factor_outside_its_hypothesis(cand, factor):
    with pytest.raises(ValueError):
        numtheory._pocklington(cand, factor)


def test_pocklington_rejects_on_a_proper_factor():
    # 561 = 3 * 11 * 17 passes Fermat to base 2, and 560 = 35 * 16 with
    # gcd(2^16 - 1, 561) = 51, a proper factor
    assert not numtheory._pocklington(561, 35)


def test_arith_params_load_runs_full_rounds(monkeypatch):
    from pda_kit import arith

    params = arith.setup(64, 5, 3, Rng("load-rounds"))
    yielded = []
    bases = numtheory._mr_bases

    def counting_bases(n, rounds):
        for a in bases(n, rounds):
            yielded.append(n)
            yield a

    monkeypatch.setattr(numtheory, "_mr_bases", counting_bases)
    arith.ArithParams.from_json(params.to_json())
    p = params.p
    rounds = numtheory.MILLER_RABIN_ROUNDS
    assert yielded == [p] * rounds + [(p - 1) // 2] * rounds


# ---------------------------------------------------------------------------
# correlated moduli
# ---------------------------------------------------------------------------

def test_lift_correlated_prime_from_23():
    # a=2 gives 93 = 3*31 (composite), a=3 gives 139 (prime); 23 | 138
    p = lift_correlated_prime(23)
    assert (p, (p - 1) // (2 * 23)) == (139, 3)
    assert not trial_division_prime(93)
    assert trial_division_prime(139)
    assert (p - 1) % 23 == 0


def test_every_safe_prime_of_6_to_14_bits_lifts_below_its_square():
    # gen_correlated_moduli draws p~ of kappa >= 6 bits; the lift proves p
    # from p~ by Pocklington, which needs p < p~^2
    safe = [
        p
        for p in range(2**5 + 1, 2**14, 2)
        if trial_division_prime(p) and trial_division_prime((p - 1) // 2)
    ]
    assert len(safe) == 166
    for p_tilde in safe:
        p = lift_correlated_prime(p_tilde)
        assert p < p_tilde * p_tilde and (p - 1) % (2 * p_tilde) == 0
        assert trial_division_prime(p)


def test_lift_correlated_prime_refuses_a_lift_past_the_square():
    # a=2 gives 21, which the sieve rejects; a=3 gives 31, above 5^2, where
    # Pocklington's proof from 5 does not apply
    with pytest.raises(ValueError):
        lift_correlated_prime(5)


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


# ---------------------------------------------------------------------------
# Lagrange weights
# ---------------------------------------------------------------------------

def test_lagrange_weights_frozen():
    # the weights are scale * L_{i,P}(0), scale the lcm of the denominators
    for ids, scale, expected in [
        ((1, 2, 3), 1, {1: 3, 2: -3, 3: 1}),
        ((2, 4, 5), 3, {2: 10, 4: -15, 5: 8}),
    ]:
        exact = {i: fraction_lagrange_at_zero(ids, i) for i in ids}
        assert math.lcm(*(v.denominator for v in exact.values())) == scale
        w = lagrange_weights(ids)
        assert w == expected == {i: v * scale for i, v in exact.items()}


def test_lagrange_weights_duplicate():
    with pytest.raises(DuplicateId):
        lagrange_weights([1, 2, 2])


def test_lagrange_pair_identity():
    # degree-1 polynomial q(x)=x has q(0)=0: a*lam_a + b*lam_b = 0
    rnd = random.Random(7)
    for _ in range(50):
        a, b = rnd.sample(range(1, 65), 2)
        w = lagrange_weights([a, b])
        assert a * w[a] + b * w[b] == 0


def fraction_lagrange_at_zero(ids, i):
    """Oracle: L_{i,P}(0) = prod_{j != i} j / (j - i) as one exact fraction."""
    num = den = 1
    for j in ids:
        if j != i:
            num *= j
            den *= j - i
    return Fraction(num, den)


def test_lagrange_zero_constant_cancellation_sweep():
    # random zero-constant polynomials over random moduli, on unsorted groups
    rnd = random.Random(20_240_601)
    for trial in range(200):
        size = rnd.randint(2, 12 if trial % 4 else 40)
        ids = rnd.sample(range(1, 65), size)
        modulus = rnd.randint(2, 1 << 64)
        coeffs = [rnd.randrange(modulus) for _ in range(size - 1)]

        def q(x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = (acc + c) * x % modulus
            return acc

        w = lagrange_weights(ids)
        total = sum(w[i] * q(i) for i in ids)
        assert total % modulus == 0

        exact = {i: fraction_lagrange_at_zero(ids, i) for i in ids}
        scale = math.lcm(*(v.denominator for v in exact.values()))
        assert dict(w) == {i: v * scale for i, v in exact.items()}
        assert tuple(w) == tuple(sorted(ids))
        # one shared mapping per group, which refuses writes
        assert lagrange_weights(reversed(ids)) is w
        with pytest.raises(TypeError):
            w[ids[0]] = 0
        assert w[ids[0]] == exact[ids[0]] * scale


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
        assert hash_to_subgroup(t, 16, 55, 5, b"") in subgroup


def test_slot_exponent_is_deterministic():
    rnd = random.Random(8)
    n_tilde = rnd.getrandbits(96) | 1 << 95
    for _ in range(100):
        t = rnd.getrandbits(rnd.choice((8, 40, 80)))
        assert slot_exponent(t, n_tilde, b"seed") == slot_exponent(t, n_tilde, b"seed")
    with pytest.raises(ValueError):
        slot_exponent(-1, n_tilde, b"seed")


def test_hash_is_root_of_unity_on_real_params():
    mod = gen_correlated_moduli(8, Rng("h8"))
    g = Rng("g8").unit(mod.n)
    h = pow(g, mod.k_cofactor, mod.n)
    for t in (0, 1, 99, 12_345_678):
        out = hash_to_subgroup(t, h, mod.n, mod.n_tilde, seed=b"s")
        assert pow(out, mod.n_tilde, mod.n) == 1


# ---------------------------------------------------------------------------
# key ceremonies: packed share evaluation, CRT powers
# ---------------------------------------------------------------------------

def horner(coeffs, x: int, modulus: int) -> int:
    """Reference: q(x) = sum_t coeffs[t-1] x^t mod modulus, one reduction a step."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc + c) * x % modulus
    return acc


def moduli(min_bits: int, max_bits: int):
    return st.integers(min_bits, max_bits).flatmap(
        lambda b: st.integers(1 << (b - 1), (1 << b) - 1)
    )


# positive IDs in ascending order, consecutive ones up to 2^16 apart
id_sets = st.lists(st.integers(1, 1 << 16), min_size=1, max_size=10).map(
    lambda gaps: [sum(gaps[: k + 1]) for k in range(len(gaps))]
)


@settings(max_examples=80, deadline=None)
@given(modulus=moduli(8, 1100), ids=id_sets, data=st.data())
def test_evaluate_packed_matches_horner(modulus, ids, data):
    # coefficients may lie outside [0, M): the packed form reduces them first
    coefficient = st.integers(-2 * modulus, 2 * modulus)
    polys = [
        data.draw(st.lists(coefficient, min_size=1, max_size=40), label=f"poly {j}")
        for j in range(len(ids))
    ]
    values = evaluate_packed(polys, ids, modulus)
    assert values == [[horner(q, x, modulus) for q in polys] for x in ids]


@pytest.mark.parametrize("bits", [8, 96, 1100])
def test_evaluate_packed_worst_case_slots(bits):
    # every coefficient M-1 at the widest points fills each slot to its bound
    modulus = (1 << bits) - 1
    ids = [1, 2, (1 << 16) - 1, 1 << 16]
    polys = [[modulus - 1] * 40 for _ in ids]
    assert evaluate_packed(polys, ids, modulus) == [
        [horner(q, x, modulus) for q in polys] for x in ids
    ]
    with pytest.raises(ValueError):
        evaluate_packed(polys, [-1], modulus)


@settings(max_examples=40, deadline=None)
@given(modulus=moduli(8, 256), ids=id_sets.filter(lambda ids: len(ids) >= 2), data=st.data())
def test_share_exchange_points_sum_the_polynomials(modulus, ids, data):
    m2 = modulus * modulus
    unit = st.integers(1, m2 - 1).filter(lambda b: math.gcd(b, modulus) == 1)
    blinds = {j: data.draw(unit, label=f"blind {j}") for j in ids[:-1]}
    blinds[ids[-1]] = mod_inv(math.prod(blinds.values()), m2)  # blinds multiply to 1
    degrees = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    coeffs = {
        (j, d): data.draw(st.lists(st.integers(0, modulus - 1), min_size=d, max_size=d))
        for j in ids
        for d in degrees
    }
    bus = Bus(ids)
    points = share_exchange(bus, modulus, blinds, degrees, lambda j, d: coeffs[j, d], "share")
    for d, messages in zip(degrees, bus.rounds):
        assert len(messages) == len(ids) * (len(ids) - 1)
        for msg in messages:
            q = horner(coeffs[msg.sender, d], msg.to, modulus)
            assert msg.kind == f"share:{d}"
            assert msg.body == (blinds[msg.sender] * pow(1 + modulus, q, m2) % m2,)
    assert points == {
        i: {d: sum(horner(coeffs[j, d], i, modulus) for j in ids) % modulus for d in degrees}
        for i in ids
    }


def own_share(blind, coeffs, i, modulus):
    """Party i's factor of its own product, which never reaches the bus."""
    m2 = modulus * modulus
    return blind * pow(1 + modulus, horner(coeffs, i, modulus), m2) % m2


@settings(max_examples=40, deadline=None)
@given(modulus=moduli(8, 256), ids=id_sets.filter(lambda ids: len(ids) >= 2), data=st.data())
def test_share_exchange_point_is_the_dlog_of_the_inbox_product(modulus, ids, data):
    # the lows multiply to 1 mod M but not mod M^2, so the extracted base is
    # not 0 and each point carries it
    m2 = modulus * modulus
    unit = st.integers(1, modulus - 1).filter(lambda a: math.gcd(a, modulus) == 1)
    lows = [data.draw(unit, label=f"low {j}") for j in ids[:-1]]
    lows.append(mod_inv(math.prod(lows), modulus))
    assume(dlog_one_plus_m(math.prod(lows) % m2, modulus) != 0)
    blinds = {
        j: low + modulus * data.draw(st.integers(0, 2 * modulus), label=f"high {j}")
        for j, low in zip(ids, lows)
    }
    degrees = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    coeffs = {
        (j, d): data.draw(st.lists(st.integers(0, modulus - 1), min_size=d, max_size=d))
        for j in ids
        for d in degrees
    }
    bus = Bus(ids)
    points = share_exchange(bus, modulus, blinds, degrees, lambda j, d: coeffs[j, d], "share")
    for d, messages in zip(degrees, bus.rounds):
        product = {i: own_share(blinds[i], coeffs[i, d], i, modulus) for i in ids}
        for msg in messages:
            product[msg.to] = product[msg.to] * msg.body[0] % m2
        assert {i: points[i][d] for i in ids} == {
            i: dlog_one_plus_m(product[i], modulus) for i in ids
        }


@settings(max_examples=40, deadline=None)
@given(modulus=moduli(8, 256), ids=id_sets.filter(lambda ids: len(ids) >= 2), data=st.data())
def test_share_exchange_refuses_lows_not_multiplying_to_1(modulus, ids, data):
    m2 = modulus * modulus
    blinds = {j: data.draw(st.integers(0, m2 - 1), label=f"blind {j}") for j in ids}
    assume(math.prod(blinds.values()) % modulus != 1)
    degrees = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    bus = Bus(ids)
    with pytest.raises(ExtractionFailed, match=r"^share blinds do not multiply to 1 mod M$"):
        share_exchange(bus, modulus, blinds, degrees, lambda j, d: [1] * d, "share")
    # refused before the first degree's round opened
    assert bus.round_no == 0


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("degrees", [[2], [1, 2, 4]])
def test_share_exchange_takes_one_dlog_and_n_inverses(monkeypatch, n, degrees):
    modulus = (1 << 61) - 1
    m2 = modulus * modulus
    ids = list(range(1, n + 1))
    rng = Rng(f"share-counts:{n}")
    blinds = {j: rng.fork(f"blind:{j}").unit(m2) for j in ids[:-1]}
    blinds[ids[-1]] = mod_inv(math.prod(blinds.values()), m2)
    calls = {"dlog": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(numtheory, "dlog_one_plus_m", counted("dlog", dlog_one_plus_m))
    monkeypatch.setattr(numtheory, "mod_inv", counted("inv", mod_inv))
    share_exchange(Bus(ids), modulus, blinds, degrees, lambda j, d: [j] * d, "share")
    assert calls == {"dlog": 1, "inv": n}


def blinds_to_one(modulus: int, ids: list[int]) -> dict[int, int]:
    """Seeded blinds of `ids`, units mod modulus^2, whose product is 1."""
    m2 = modulus * modulus
    rng = Rng(f"blinds:{modulus}:{ids}")
    blinds = {j: rng.fork(f"blind:{j}").unit(m2) for j in ids[:-1]}
    blinds[ids[-1]] = mod_inv(math.prod(blinds.values()), m2)
    return blinds


def test_a_draw_failing_in_a_worker_fails_the_call_before_its_round(forked, capfd):
    # degree 3 is worker 1's: it stops there without a word, and the
    # degree computed here raises the draw's own error, with no other
    # exception attached
    modulus, ids = (1 << 61) - 1, [1, 2, 3, 4]

    def coefficients(j, d):
        if d == 3:
            raise ValueError(f"party {j} drew nothing at degree {d}")
        return [j] * d

    bus = Bus(ids)
    with pytest.raises(ValueError, match=r"^party 1 drew nothing at degree 3$") as info:
        share_exchange(bus, modulus, blinds_to_one(modulus, ids), [2, 3, 4], coefficients, "s")
    assert info.value.__context__ is None
    assert forked == []  # degree 2 came from worker 0
    assert [{m.kind for m in messages} for messages in bus.rounds] == [{"s:2"}]
    assert_no_child()
    assert capfd.readouterr() == ("", "")


def test_a_worker_that_dies_leaves_its_degrees_to_the_caller(request):
    # the worker of degrees 3 and 5 exits at 3 without a word: both are
    # computed in this process, and points and transcript are the inline ones
    modulus, ids, degrees = (1 << 61) - 1, [1, 2, 3, 4, 5], [2, 3, 4, 5]
    blinds, caller = blinds_to_one(modulus, ids), os.getpid()

    def coefficients(j, d):
        if d == 3 and os.getpid() != caller:
            os._exit(1)
        return [j + d] * d

    inline_bus = Bus(ids)
    inline = share_exchange(inline_bus, modulus, blinds, degrees, coefficients, "s")
    here = request.getfixturevalue("forked")
    bus = Bus(ids)
    points = share_exchange(bus, modulus, blinds, degrees, coefficients, "s")
    assert here == [len(ids), len(ids)]
    assert points == inline
    assert bus.transcript_jsonl() == inline_bus.transcript_jsonl()
    assert_no_child()


def four_party_points() -> dict[int, dict[int, int]]:
    modulus, ids = (1 << 61) - 1, [1, 2, 3, 4]
    blinds = blinds_to_one(modulus, ids)
    return share_exchange(Bus(ids), modulus, blinds, [2, 3], lambda j, d: [j] * d, "s")


def forked_four_party_points() -> tuple[dict[int, dict[int, int]], list[int]]:
    """`four_party_points` with every ceremony forked, and the degrees
    evaluated in this process; it leaves no child."""
    with pytest.MonkeyPatch.context() as patch:
        here = fork_every_ceremony(patch)
        points = four_party_points()
    assert_no_child()
    return points, here


def test_a_pool_worker_forks_its_own_ceremony():
    # a pool's worker is a daemon, and forks its workers as any process does
    inline = four_party_points()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        points, here = pool.apply_async(forked_four_party_points).get(timeout=60)
    assert here == []  # in the pool's worker, both degrees came from its own workers
    assert points == inline


def test_a_worker_that_cannot_start_leaves_its_degrees_to_the_caller(monkeypatch):
    # the second fork fails as at the process limit: worker 0 computes
    # degree 2, and degree 3, worker 1's, is computed here
    inline = four_party_points()
    here = fork_every_ceremony(monkeypatch)
    fork, calls = os.fork, []

    def second_fails():
        calls.append(os.getpid())
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    assert four_party_points() == inline
    assert len(calls) == 2
    assert here == [4]
    assert_no_child()


def test_a_value_that_cannot_be_pickled_is_computed_here(monkeypatch):
    # worker 1 cannot pickle item 3's value, after writing out more of it
    # than a pipe holds: this process computes it and that worker's later
    # items, and every value arrives in order
    monkeypatch.setattr(numtheory, "_cores", lambda: 2)
    caller, here = os.getpid(), []

    def local():  # a local function pickles in no process
        pass

    def compute(item):
        if os.getpid() == caller:
            here.append(item)
        return [item] * 100_000 + ([local] if item == 3 else [])

    with numtheory._forked(compute, range(8), True) as values:
        assert list(values) == [[i] * 100_000 + ([local] if i == 3 else []) for i in range(8)]
    assert here == [3, 5, 7]
    assert_no_child()


def test_a_forked_keygen_writes_no_line_twice(tmp_path):
    # a worker never flushes the stdio buffers it inherited: a line printed
    # but not yet flushed before a forked keygen is written once, by the
    # caller, even where each worker ends by itself before it is killed;
    # and forking loads no `multiprocessing`
    probe = (
        "import os, sys\n"
        "from pda_kit import netsim, numtheory\n"
        "numtheory._FORK_FLOOR, numtheory._cores = 0, lambda: 2\n"
        "fork, kill, forks = os.fork, os.kill, []\n"
        "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
        "def ended_then_killed(pid, sig):\n"
        "    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)\n"
        "    kill(pid, sig)\n"
        "os.kill = ended_then_killed\n"
        "print('before')\n"
        "netsim.build_pda_system(16, 6, 3, 'unflushed', m_max=6)\n"
        "assert forks and 'multiprocessing' not in sys.modules\n"
        "print('done')\n"
    )
    src = os.path.dirname(os.path.dirname(numtheory.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)  # so that the probe's stdout, a pipe, is block-buffered
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "before\ndone\n"


# A 512-bit safe prime, from gen_safe_prime(512, Rng("crt-test")).
SAFE_PRIME_512 = int(
    "ff2c4352e2573eaddf176a74e53140592f3d9826ea9cac75849f67bb86645bc"
    "b744abcfedaaa27b4d919dc32028a6ba46abba0394f866fa1b4cf86479580bad7",
    16,
)


def master_ring(p: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The arith master modulus p^2(p-1)^2 = p^2 * 2^2 * q^2 and its factors."""
    q = (p - 1) // 2
    return (p * (p - 1)) ** 2, ((p, 2), (2, 2), (q, 2))


CRT_PRIMES = [5, 7, 11, 23, 47, 1019, SAFE_PRIME_512]  # at p = 5, q = 2 repeats the 2


def test_crt_primes_are_safe():
    assert all(is_probable_prime(p) and is_probable_prime((p - 1) // 2) for p in CRT_PRIMES)


def prime_id(p: int) -> str:
    return str(p) if p < 1 << 16 else f"{p.bit_length()}-bit"


@pytest.mark.parametrize("p", CRT_PRIMES, ids=prime_id)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unit_power_matches_pow(p, data):
    modulus, factors = master_ring(p)
    u = data.draw(st.integers(1, modulus - 1).filter(lambda u: math.gcd(u, modulus) == 1))
    e = data.draw(st.integers(0, modulus - 1), label="e")  # [0, m^2), m = p(p-1)
    assert unit_power(modulus, factors)(u, e) == pow(u, e, modulus)


def test_unit_power_refuses_factors_of_another_modulus():
    modulus, factors = master_ring(23)
    for wrong in (((23, 2), (2, 2)), ((23, 2), (2, 2), (11, 1)), factors + ((3, 1),)):
        with pytest.raises(ValueError):
            unit_power(modulus, wrong)


@pytest.mark.parametrize("p", [23, 1019])
def test_ring_exchange_on_factored_ring_matches_plain(p):
    modulus, factors = master_ring(p)
    rnd = random.Random(p)
    exponents = {i: rnd.randrange(1, modulus) for i in (2, 5, 9, 14)}
    generator = next(g for g in range(3, modulus) if math.gcd(g, modulus) == 1)
    plain, crt = Bus(exponents), Bus(exponents)
    masks = ring_exchange(plain, modulus, generator, exponents)
    assert ring_exchange(crt, modulus, generator, exponents, factors=factors) == masks
    assert crt.transcript_jsonl() == plain.transcript_jsonl()
    assert math.prod(masks.values()) % modulus == 1


@pytest.mark.parametrize("p", [23, SAFE_PRIME_512], ids=prime_id)
def test_ring_exchange_refuses_non_unit_generator(p):
    modulus, factors = master_ring(p)
    for generator in (p, 2, (p - 1) // 2, 0):
        for kwargs in ({}, {"factors": factors}):
            bus = Bus((1, 2, 3))
            with pytest.raises(NotInvertible):
                ring_exchange(bus, modulus, generator, {1: 3, 2: 4, 3: 6}, **kwargs)
            assert bus.rounds == []


def test_ring_exchange_refuses_negative_hops():
    bus = Bus((1, 2, 3, 4))
    with pytest.raises(ValueError, match="hops"):
        ring_exchange(bus, 23, 5, {1: 3, 2: 4, 3: 6, 4: 7}, hops=-1)
    assert bus.round_no == 0
