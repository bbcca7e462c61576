"""Prime searches in blocks of one seekable draw stream.

`Rng.skip` reaches any stream position without the bytes before it, and
`numtheory._first_odd` screens blocks of successive draws on copies of
the stream, in forked workers from `_SAFE_SEARCH_FLOOR` bits for a safe
prime and `_PRIME_SEARCH_FLOOR` bits for a plain one.  Whatever the
route, a search must accept the draw a loop of `odd_with_top_bit` calls
would, and leave the stream where that loop leaves it.
"""

import copy
import os

import pytest

from conftest import assert_no_child
from pda_kit import numtheory, paillier
from pda_kit.rng import Rng


def state(rng: Rng) -> tuple:
    return rng._key, rng._counter, rng._buffer


@pytest.mark.parametrize("offset", range(41))
def test_skip_leaves_the_stream_where_take_does(offset):
    for n in range(101):
        taken, skipped = Rng("skip"), Rng("skip")
        taken.take(offset)
        skipped.take(offset)
        taken.take(n)
        skipped.skip(n)
        assert state(skipped) == state(taken)
        assert skipped.take(70) == taken.take(70)


def test_a_copy_moves_on_its_own():
    rng = Rng("copy")
    rng.take(5)
    twin = copy.copy(rng)
    assert twin.take(40) == rng.take(40)
    twin.skip(3)
    assert state(twin) != state(rng)


def test_odds_with_top_bit_are_successive_single_draws():
    for bits in range(2, 1101):
        batch, single = Rng(f"odds:{bits}"), Rng(f"odds:{bits}")
        drawn = batch.odds_with_top_bit(bits, 3)
        assert drawn == [single.odd_with_top_bit(bits) for _ in range(3)]
        assert state(batch) == state(single)
        assert all(v.bit_length() == bits and v & 1 for v in drawn)


def test_a_draw_is_the_top_bits_of_its_own_bytes():
    # the candidate format: top bit and low bit set over getrandbits(bits - 1)
    for bits in (2, 3, 9, 64, 65, 511, 1043):
        rng, ref = Rng(f"format:{bits}"), Rng(f"format:{bits}")
        for _ in range(4):
            assert rng.odd_with_top_bit(bits) == (1 << bits - 1) | ref.getrandbits(bits - 1) | 1


def loop_safe_prime(bits: int, rng: Rng) -> int:
    """gen_safe_prime as one loop of single draws."""
    rounds = numtheory._search_rounds(bits - 1)
    while True:
        q = rng.odd_with_top_bit(bits - 1)
        if (
            numtheory._sieved(q, pair=True)
            and numtheory._miller_rabin(q, 1)
            and numtheory._pocklington(2 * q + 1, q)
            and numtheory.is_probable_prime(q, rounds)
        ):
            return 2 * q + 1


def loop_prime(bits: int, rng: Rng) -> int:
    """numtheory.gen_prime as one loop of single draws."""
    rounds = numtheory._search_rounds(bits)
    while True:
        cand = rng.odd_with_top_bit(bits)
        if numtheory.is_probable_prime(cand, rounds):
            return cand


def mid_block(label: str, offset: int) -> Rng:
    """A stream moved on by `offset` bytes, which is no multiple of 32."""
    assert offset % 32
    rng = Rng(label)
    rng.take(offset)
    return rng


def one_core(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(numtheory, "_cores", lambda: 1)


def forked_searches(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(numtheory, "_cores", lambda: 2)
    patch.setattr(numtheory, "_SAFE_SEARCH_FLOOR", 0)
    patch.setattr(numtheory, "_PRIME_SEARCH_FLOOR", 0)


SEARCH_ROUTES = {"one-core": one_core, "forked": forked_searches}


@pytest.mark.parametrize("route", sorted(SEARCH_ROUTES))
@pytest.mark.parametrize("bits", [16, 48, 128, 256, 512])
def test_a_safe_prime_search_is_the_loop_of_draws(monkeypatch, route, bits):
    offset = 3 + bits % 29
    expected = mid_block(f"search:safe:{bits}", offset)
    p = loop_safe_prime(bits, expected)
    SEARCH_ROUTES[route](monkeypatch)
    rng = mid_block(f"search:safe:{bits}", offset)
    assert numtheory.gen_safe_prime(bits, rng) == p
    assert rng.take(64) == expected.take(64)
    assert_no_child()


@pytest.mark.parametrize("route", sorted(SEARCH_ROUTES))
@pytest.mark.parametrize("bits", [33, 111, 512])
def test_a_prime_search_is_the_loop_of_draws(monkeypatch, route, bits):
    expected = mid_block(f"search:prime:{bits}", 7)
    p = loop_prime(bits, expected)
    SEARCH_ROUTES[route](monkeypatch)
    rng = mid_block(f"search:prime:{bits}", 7)
    assert numtheory.gen_prime(bits, rng) == p
    assert rng.take(64) == expected.take(64)


@pytest.mark.parametrize("bits", [64, 215, 512, 1024])
def test_an_aggregator_key_is_the_same_forked_and_on_one_core(monkeypatch, bits):
    keys, after = {}, {}
    for route in sorted(SEARCH_ROUTES):
        with monkeypatch.context() as patch:
            SEARCH_ROUTES[route](patch)
            rng = mid_block(f"search:keygen:{bits}", 11)
            keys[route] = paillier.keygen(bits, rng)
            after[route] = rng.take(64)
    assert keys["forked"] == keys["one-core"]
    assert after["forked"] == after["one-core"]
    assert_no_child()


def test_a_worker_that_dies_leaves_its_blocks_to_the_caller(monkeypatch):
    # the worker of the odd blocks exits at block 1 without a word: this
    # process screens every odd block itself, and the prime is the same
    bits, offset = 128, 5
    expected = mid_block("search:dies", offset)
    p = loop_safe_prime(bits, expected)
    size, block = (bits - 1 + 6) // 8, numtheory._SEARCH_BLOCK
    second = mid_block("search:dies", offset)
    second.skip(block * size)
    doomed = set(second.odds_with_top_bit(bits - 1, block))
    caller, sieve, here = os.getpid(), numtheory._sieved, []

    def sieved(n, pair=False):
        if os.getpid() != caller and n in doomed:
            os._exit(1)
        if os.getpid() == caller:
            here.append(n)
        return sieve(n, pair)

    forked_searches(monkeypatch)
    monkeypatch.setattr(numtheory, "_sieved", sieved)
    rng = mid_block("search:dies", offset)
    assert numtheory.gen_safe_prime(bits, rng) == p
    assert rng.take(64) == expected.take(64)
    assert doomed <= set(here)  # block 1 was screened here
    assert_no_child()


def test_a_screen_that_raises_in_a_worker_raises_here(monkeypatch):
    forked_searches(monkeypatch)

    def screen(cand):
        raise ArithmeticError(f"screen refused {cand.bit_length()} bits")

    with pytest.raises(ArithmeticError, match="screen refused 300 bits"):
        numtheory._first_odd(Rng("search:raises"), 300, screen, True)
    assert_no_child()


def test_only_searches_from_their_floors_may_fork(monkeypatch):
    # the kappa=48 set-up and its Paillier primes, and Paillier primes of
    # up to 1,023 bits, stay in this process; the kappa=512 safe primes and
    # 1,043-bit Paillier primes may fork
    routes = []
    inner = numtheory._forked

    def recording(compute, items, fork, spare=0):
        routes.append(fork)
        return inner(compute, items, fork, spare)

    monkeypatch.setattr(numtheory, "_forked", recording)
    monkeypatch.setattr(numtheory, "_cores", lambda: 1)  # searched here either way
    numtheory.gen_safe_prime(48, Rng("search:floor"))
    numtheory.gen_prime(111, Rng("search:floor"))
    numtheory.gen_prime(numtheory._PRIME_SEARCH_FLOOR - 1, Rng("search:floor"))
    assert routes == [False, False, False]
    assert numtheory._SAFE_SEARCH_FLOOR <= 512 and numtheory._PRIME_SEARCH_FLOOR <= 1043
    routes.clear()
    numtheory.gen_safe_prime(512, Rng("search:floor"))
    numtheory.gen_prime(1043, Rng("search:floor"))
    assert routes[0] and routes[-1]
