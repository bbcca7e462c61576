"""numtheory.pows: a batch of pow calls, spread over the cores when wide.

A batch runs on min(len, cores) threads only when libcrypto loaded and
every item is a library call modulo at least 1,024 bits; otherwise it is
the serial loop.  Either way its results and exceptions are the
builtin's, and no thread outlives the call.
"""

import builtins
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pda_kit import numtheory

SPREAD_FLOOR = 1 << 1023  # the narrowest modulus a spread batch may hold


def widths(lo: int, hi: int):
    """Integers of exactly b bits, for b in [lo, hi]."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def outcome(fn, *args):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def builtin_pows(items):
    return [builtins.pow(b, e, m) for b, e, m in items]


@pytest.fixture
def libcrypto():
    lib = numtheory._libcrypto
    if lib is None:
        pytest.skip("libcrypto did not load")
    return lib


class Starts:
    """The threads started while entered, with `os.sched_getaffinity`
    reporting `cores` cores (the machine's own when None)."""

    def __init__(self, cores: int | None = None):
        self.cores = cores
        self.count = 0
        self._patch = pytest.MonkeyPatch()

    def __enter__(self) -> "Starts":
        start = threading.Thread.start

        def counting_start(thread):
            self.count += 1
            start(thread)

        self._patch.setattr(threading.Thread, "start", counting_start)
        if self.cores is not None:
            self._patch.setattr(os, "sched_getaffinity", lambda pid: set(range(self.cores)))
        self.active = threading.active_count()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.undo()
        assert threading.active_count() == self.active, "a thread outlived the call"


def batch(n: int, mod_bits: int, exp_bits: int, seed) -> list[tuple[int, int, int]]:
    """n items of exp_bits-bit exponents modulo one mod_bits-bit odd modulus."""
    rnd = random.Random(seed)
    mod = rnd.getrandbits(mod_bits) | 1 << (mod_bits - 1) | 1
    return [(rnd.randrange(mod), rnd.getrandbits(exp_bits) | 1 << (exp_bits - 1), mod) for _ in range(n)]


narrow = st.tuples(widths(1, 200), widths(1, 200), widths(2, 200))
wide = widths(1024, 1100).flatmap(
    lambda m: st.tuples(st.integers(0, 2 * m), widths(64, 1100), st.just(m))
)


@pytest.mark.parametrize("cores", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pows_is_the_builtin_in_order(cores, data):
    kind = data.draw(st.sampled_from(["narrow", "wide", "mixed"]), label="kind")
    item = {"narrow": narrow, "wide": wide, "mixed": st.one_of(narrow, wide)}[kind]
    items = data.draw(st.lists(item, max_size=6), label="items")
    with Starts(cores):
        assert numtheory.pows(items) == builtin_pows(items)


BAD = [
    pytest.param((6, -1, 9), id="negative-exponent-non-invertible"),
    pytest.param((2, 3, False), id="bool-modulus"),
    pytest.param((2, 3, 0), id="zero-modulus"),
    pytest.param((2, 3, 7.0), id="float-modulus"),
    pytest.param((2.0, 3, 7), id="float-base"),
]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("at", [0, 1, 3])
def test_pows_raises_the_builtins_exception(bad, at):
    items = batch(3, 1041, 1024, seed=7)
    items[at:at] = [bad]
    expected = outcome(builtin_pows, items)
    assert isinstance(expected, type) and issubclass(expected, Exception)
    with Starts(2) as starts:
        assert outcome(numtheory.pows, items) is expected
    assert starts.count == 0  # not every item is a library call


def test_pows_of_bools_and_inverses_are_the_builtins():
    items = [(True, 5, 7), (3, True, 7), (3, -1, 7), (-3, 2, 7), (3, 0, 1)]
    assert numtheory.pows(items) == builtin_pows(items)


@pytest.mark.parametrize("cores", [None, 2, 3, 8])
def test_wide_batch_starts_cores_minus_one_threads(libcrypto, cores):
    # shaped like Paillier encryptions at kappa=512
    items = batch(4, 4172, 2086, seed=cores or 0)
    expected = [numtheory.pow(*item) for item in items]
    with Starts(cores) as starts:
        assert numtheory.pows(items) == expected
    assert starts.count == min(len(items), len(os.sched_getaffinity(0)) if cores is None else cores) - 1


def test_every_thread_takes_its_own_items(libcrypto, monkeypatch):
    # with 3 cores the caller takes items 0, 3, 6 and each worker its own
    # stride; every item is computed once, each by one of three threads
    items = batch(7, 2086, 1043, seed=3)
    seen = {}
    inner = numtheory.pow

    def recording(base, exp, mod=None):
        seen[items.index((base, exp, mod))] = threading.current_thread()
        return inner(base, exp, mod)

    monkeypatch.setattr(numtheory, "pow", recording)
    with Starts(3):
        assert numtheory.pows(items) == [inner(*item) for item in items]
    assert sorted(seen) == list(range(7))
    caller, first, second = seen[0], seen[1], seen[2]
    assert caller is threading.current_thread()
    assert len({caller, first, second}) == 3
    assert [seen[i] for i in range(7)] == [caller, first, second] * 2 + [caller]


def test_a_workers_exception_is_raised_in_the_caller(libcrypto, monkeypatch):
    # with 2 cores the worker takes items 1 and 3
    items = batch(4, 2086, 1043, seed=4)
    inner = numtheory.pow

    class Boom(Exception):
        pass

    def failing(base, exp, mod=None):
        if (base, exp, mod) == items[1]:
            raise Boom
        return inner(base, exp, mod)

    monkeypatch.setattr(numtheory, "pow", failing)
    with Starts(2) as starts:
        with pytest.raises(Boom):
            numtheory.pows(items)
    assert starts.count == 1


@pytest.mark.parametrize(
    "case",
    ["one-core", "no-libcrypto", "below-floor", "one-narrow-item", "one-item", "short-exponent"],
)
def test_pows_starts_no_thread(libcrypto, monkeypatch, case):
    items = batch(4, 2086, 1043, seed=case)
    mod = items[0][2]
    cores = 4
    if case == "one-core":
        cores = 1
    elif case == "no-libcrypto":
        monkeypatch.setattr(numtheory, "_libcrypto", None)
    elif case == "below-floor":
        mod = SPREAD_FLOOR - 1
        items = [(b, e, mod) for b, e, _ in items]
    elif case == "one-narrow-item":
        items[2] = (5, 1 << 70, (1 << 200) + 1)
    elif case == "one-item":
        items = items[:1]
    elif case == "short-exponent":
        items[3] = (items[3][0], (1 << 63) - 1, mod)
    with Starts(cores) as starts:
        assert numtheory.pows(items) == builtin_pows(items)
    assert starts.count == 0


def test_many_threads_with_a_short_switch_interval(libcrypto, op_counts):
    # more threads than cores, switching as often as the interpreter
    # allows: every slot still holds its own item's power, and every call
    # is counted once
    items = batch(16, 1280, 1280, seed="stress")
    expected = [numtheory.pow(*item) for item in items]
    mod = items[0][2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            op_counts.pows.clear()
            with Starts(8) as starts, op_counts:
                assert numtheory.pows(items) == expected
            assert starts.count == 7
            assert op_counts.pows == {mod: len(items)}
    finally:
        sys.setswitchinterval(interval)


def test_threads_share_held_moduli_while_they_are_evicted(libcrypto):
    # eight threads over 40 moduli, more than the cache holds, switching as
    # often as the interpreter allows: entries are evicted while another
    # thread's call still uses them, and every value is still the builtin's
    rnd = random.Random("evict")
    moduli = [rnd.getrandbits(1024) | 1 << 1023 | 1 for _ in range(40)]
    items = [(rnd.randrange(m), rnd.getrandbits(64) | 1 << 63, m) for m in rnd.choices(moduli, k=320)]
    expected = builtin_pows(items)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with Starts(8) as starts:
                assert numtheory.pows(items) == expected
            assert starts.count == 7
            assert numtheory._held.cache_info().currsize <= 16
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [2, 3])
def test_scratch_sets_are_no_more_than_the_threads(libcrypto, monkeypatch, cores):
    # each call pops a scratch set or makes one, and pushes it back
    scratch = []
    monkeypatch.setattr(numtheory, "_scratch", scratch)
    items = batch(12, 1041, 1024, seed=cores)
    with Starts(cores):
        assert numtheory.pows(items) == builtin_pows(items)
    assert 1 <= len(scratch) <= cores
