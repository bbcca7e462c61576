"""numtheory.pow: the builtin's results, by libcrypto's BN_mod_exp_mont when wide.

A call goes to the library only with plain-int operands, an exponent of
at least 64 bits and an odd modulus above 1, whose Montgomery context is
held across calls; everything else, and any failure of the library,
goes to `builtins.pow`.
"""

import builtins
import ctypes
import ctypes.util
import math
import operator
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pda_kit import numtheory, paillier
from pda_kit.rng import Rng

EXP_FLOOR = 1 << 63  # the narrowest exponent the library gets: 64 bits
SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")  # opened before find_library is asked


def widths(lo: int, hi: int):
    """Integers of exactly b bits, for b in [lo, hi]."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def outcome(fn, *args):
    """(type, value) of fn's result, or the type of the exception it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc)
    return type(value), value


moduli = st.one_of(
    st.sampled_from([0, 1, 2, 3, -1, -2, -3, 1 << 63, (1 << 63) + 1, (1 << 64) - 1]),
    widths(2, 160),  # odd and even, narrow and wide
    widths(2, 160).map(operator.neg),
    st.booleans(),
)
exponents = st.one_of(
    st.sampled_from([0, 1, -1, 2, EXP_FLOOR - 1, EXP_FLOOR, 2 * EXP_FLOOR - 1]),
    widths(1, 4200),
    widths(1, 200).map(operator.neg),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(mod=moduli, exp=exponents, data=st.data())
def test_pow_is_the_builtin(mod, exp, data):
    span = abs(int(mod)) + 1
    base = data.draw(
        st.one_of(
            st.sampled_from([0, 1, -1, 2, True, False]),
            st.integers(-3 * span, 3 * span),  # negative, and at least the modulus
            st.integers(-(1 << 300), 1 << 300),
        )
    )
    assert outcome(numtheory.pow, base, exp, mod) == outcome(builtins.pow, base, exp, mod)


@settings(max_examples=100, deadline=None)
@given(mod=widths(2, 300), data=st.data())
def test_pow_inverts_a_unit(mod, data):
    base = data.draw(st.integers(-2 * mod, 2 * mod))
    assume(math.gcd(base, mod) == 1)
    assert numtheory.pow(base, -1, mod) == builtins.pow(base, -1, mod)


@pytest.mark.parametrize("mod_bits, exp_bits", [(512, 512), (1041, 1024), (2086, 1043), (4172, 1040)])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_pow_is_the_builtin_at_protocol_widths(mod_bits, exp_bits, data):
    mod = data.draw(widths(mod_bits, mod_bits)) | 1
    exp = data.draw(widths(exp_bits, exp_bits))
    base = data.draw(st.integers(-2 * mod, 2 * mod))
    assert numtheory.pow(base, exp, mod) == builtins.pow(base, exp, mod)


def limb_modulus(limbs: int) -> int:
    """An odd modulus of exactly `limbs` 64-bit limbs, its top bit placed
    by the limb count."""
    rnd = random.Random(limbs)
    bits = 64 * limbs - rnd.randrange(64)
    return rnd.getrandbits(bits) | 1 << (bits - 1) | 1


@pytest.mark.parametrize("limbs", range(1, 81))
def test_pow_is_the_builtin_at_every_limb_count(limbs):
    # the library holds a modulus of 7, 13 to 15, 21 to 23, 26, 27 or
    # from 29 limbs up as an odd multiple filling a multiple of 8 limbs,
    # and reduces each result; the edge bases give the edge results 0, 1
    # and m - 1 (the builtin computes them cheaply), and a random base a
    # value at each width
    mod = limb_modulus(limbs)
    rnd = random.Random(-limbs)
    for exp_bits in (64, max(64, mod.bit_length() // 2), mod.bit_length()):
        exp = rnd.getrandbits(exp_bits) | 1 << (exp_bits - 1)
        for base in (0, 1, mod - 1):
            assert numtheory.pow(base, exp, mod) == builtins.pow(base, exp, mod), (base, exp_bits)
    base = mod + rnd.randrange(mod)  # above the modulus
    exp = rnd.getrandbits(64) | 1 << 63
    assert numtheory.pow(base, exp, mod) == builtins.pow(base, exp, mod)


@settings(max_examples=40, deadline=None)
@given(mod=widths(2, 5000), exp=widths(64, 1100), data=st.data())
def test_pow_is_the_builtin_modulo_any_odd_width(mod, exp, data):
    mod |= 1
    base = data.draw(st.integers(0, 3 * mod))
    assert numtheory.pow(base, exp, mod) == builtins.pow(base, exp, mod)


def test_pow_keeps_the_builtin_signature():
    assert numtheory.pow(base=3, exp=(1 << 63) + 1, mod=(1 << 95) + 1) == builtins.pow(
        3, (1 << 63) + 1, (1 << 95) + 1
    )
    assert numtheory.pow(2, 10) == 1024
    assert numtheory.pow(2.0, 0.5) == builtins.pow(2.0, 0.5)
    with pytest.raises(TypeError):
        numtheory.pow(2.0, 1 << 63, 1 << 95)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

class Symbols:
    """A stand-in library that exports every name except `missing`."""

    def __init__(self, missing=None):
        self.missing = missing

    def __getattr__(self, name):
        if name == self.missing:
            raise AttributeError(name)
        symbol = types.SimpleNamespace()
        setattr(self, name, symbol)
        return symbol


def test_no_libcrypto_found_leaves_the_backend_off(monkeypatch):
    opened = []

    def cdll(name, *args, **kwargs):
        if name in SONAMES:
            raise OSError(f"{name}: cannot open shared object file")
        opened.append(name)

    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert numtheory._load_libcrypto() is None
    assert opened == []  # CDLL(None) would open the main program


def test_a_soname_that_opens_spares_find_library(tmp_path):
    # find_library imports subprocess and runs `ldconfig -p`; where the
    # soname of OpenSSL 3 or 1.1 opens, a fresh interpreter importing
    # numtheory loads libcrypto without importing ctypes.util at all
    opens = []
    for name in SONAMES:
        try:
            opens.append(ctypes.CDLL(name))
        except OSError:
            pass
    if not opens:
        pytest.skip("neither libcrypto soname opens here")
    probe = (
        "import sys\n"
        "from pda_kit import numtheory\n"
        "print(numtheory._libcrypto is not None,"
        " 'ctypes.util' in sys.modules, 'subprocess' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(numtheory.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False", "False"]


def test_libcrypto_before_openssl_1_1_leaves_the_backend_off(monkeypatch):
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libcrypto.so.1.0.0")
    monkeypatch.setattr(ctypes, "CDLL", lambda path: Symbols(missing="BN_bn2binpad"))
    assert numtheory._load_libcrypto() is None
    complete = Symbols()
    monkeypatch.setattr(ctypes, "CDLL", lambda path: complete)
    assert numtheory._load_libcrypto() is complete


def test_libcrypto_that_fails_to_open_leaves_the_backend_off(monkeypatch):
    def refuse(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libcrypto.so.3")
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert numtheory._load_libcrypto() is None


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

@pytest.fixture
def libcrypto():
    lib = numtheory._libcrypto
    if lib is None:
        pytest.skip("libcrypto did not load")
    return lib


def replacing(lib, name, fn):
    """`lib` with its symbol `name` replaced by `fn`."""

    class Patched:
        def __getattr__(self, attr):
            return getattr(lib, attr)

    patched = Patched()
    setattr(patched, name, fn)
    return patched


def counting(calls, fn):
    def count(*args):
        calls.append(args)
        return fn(*args)

    return count


@pytest.fixture
def bn_calls(monkeypatch, libcrypto):
    """The BN_mod_exp_mont calls `numtheory.pow` makes while the test runs."""
    calls = []
    patched = replacing(libcrypto, "BN_mod_exp_mont", counting(calls, libcrypto.BN_mod_exp_mont))
    monkeypatch.setattr(numtheory, "_libcrypto", patched)
    return calls


def test_encrypt_makes_one_library_call(bn_calls):
    keys = paillier.keygen(512, Rng("pow:encrypt"))
    bn_calls.clear()
    (ct,) = paillier.encrypt_many(keys.public(), [12345], Rng("pow:encrypt:r"))
    assert len(bn_calls) == 1
    assert paillier.decrypt(keys, ct) == 12345


WIDE = 1 << 1000 | 1


@pytest.mark.parametrize(
    "base, exp, mod, routed",
    [
        pytest.param(3, EXP_FLOOR, WIDE, True, id="at-the-exponent-floor"),
        pytest.param(-3, EXP_FLOOR, 1 << 95, False, id="negative-base-even-modulus"),
        pytest.param(0, EXP_FLOOR, WIDE, True, id="zero-base"),
        pytest.param(3, EXP_FLOOR - 1, WIDE, False, id="63-bit-exponent"),
        pytest.param(3, WIDE, (1 << 95) - 1, True, id="95-bit-modulus"),
        pytest.param(3, EXP_FLOOR, (1 << 63) + 1, True, id="64-bit-modulus"),
        pytest.param(3, WIDE, 1, False, id="modulus-1"),
        pytest.param(3, WIDE, 1 << 79, False, id="even-80-bit-modulus"),
        pytest.param(3, WIDE, -WIDE, False, id="negative-modulus"),
        pytest.param(3, -WIDE, WIDE, False, id="negative-exponent"),
        pytest.param(True, WIDE, WIDE, False, id="bool-base"),
        pytest.param(3, WIDE, float(WIDE), False, id="float-modulus"),
    ],
)
def test_only_wide_plain_int_calls_reach_the_library(bn_calls, base, exp, mod, routed):
    assert outcome(numtheory.pow, base, exp, mod) == outcome(builtins.pow, base, exp, mod)
    assert len(bn_calls) == routed


def bn_value(lib, bn) -> int:
    """A BIGNUM's value, read back from the library."""
    out = ctypes.create_string_buffer(1024)
    assert lib.BN_bn2binpad(bn, out, len(out)) == len(out)
    return int.from_bytes(out.raw, "big")


def limb_count(x: int) -> int:
    return -(-x.bit_length() // 64)


# an exact modulus (1,001 bits, 16 limbs) and a padded one (4,172 bits,
# 66 limbs, held as 72), each with its exponent
FALLBACKS = [
    pytest.param((1 << 1000) + 7, (1 << 1000) + 5, 16, id="exact-1001-bits"),
    pytest.param((1 << 4171) + 7, (1 << 2085) + 5, 72, id="padded-4172-bits"),
]


@pytest.mark.parametrize("mod, exp, held_limbs", FALLBACKS)
def test_failed_library_call_falls_back_to_the_builtin(monkeypatch, libcrypto, mod, exp, held_limbs):
    moduli = []

    def fail(r, b, e, m, ctx, mont):
        moduli.append(bn_value(libcrypto, m))
        return 0

    failing = replacing(libcrypto, "BN_mod_exp_mont", fail)
    monkeypatch.setattr(numtheory, "_libcrypto", failing)
    assert numtheory.pow(5, exp, mod) == builtins.pow(5, exp, mod)
    (held,) = moduli
    assert held % mod == 0 and limb_count(held) == held_limbs


@pytest.mark.parametrize("mod, exp, held_limbs", FALLBACKS)
def test_failed_montgomery_context_falls_back_to_the_builtin(monkeypatch, libcrypto, mod, exp, held_limbs):
    # a modulus the library could not hold is not cached: the next call
    # tries again, and no call reaches BN_mod_exp_mont
    sets, exps = [], []

    def refuse(mont, m, ctx):
        sets.append(bn_value(libcrypto, m))
        return 0

    failing = replacing(libcrypto, "BN_MONT_CTX_set", refuse)
    failing.BN_mod_exp_mont = counting(exps, libcrypto.BN_mod_exp_mont)
    monkeypatch.setattr(numtheory, "_libcrypto", failing)
    held = numtheory._held.cache_info().currsize
    for _ in range(2):
        assert numtheory.pow(5, exp, mod) == builtins.pow(5, exp, mod)
    assert (len(sets), exps) == (2, [])
    assert all(m % mod == 0 and limb_count(m) == held_limbs for m in sets)
    assert numtheory._held.cache_info().currsize == held


@pytest.mark.parametrize(
    "limbs, held_limbs",
    [(4, 4), (7, 8), (13, 16), (16, 16), (17, 17), (20, 20), (32, 32), (33, 40), (36, 40), (49, 56), (66, 72)],
)
def test_moduli_pad_to_a_multiple_of_eight_limbs_where_that_pays(libcrypto, limbs, held_limbs):
    # 7 limbs is regress_n64's n^2, 33 and 66 pda_agg_k512's p^2 and n^2;
    # 4, 16, 17 and 32 limbs hold every other workload modulus, and 20
    # limbs already runs OpenSSL's mul4x kernel, so it is not widened by
    # a fifth
    mod = limb_modulus(limbs)
    held = numtheory._held(libcrypto, mod)
    value = bn_value(libcrypto, held.bn)
    if held_limbs == limbs:
        assert held.size == (mod.bit_length() + 7) // 8
        assert value == mod
    else:
        assert held.size == 8 * held_limbs
        assert limb_count(value) == held_limbs
        assert value % mod == 0 and value & 1
    assert numtheory._held(libcrypto, mod) is held  # keyed by the modulus itself


def odd_moduli(count: int, bits: int) -> list[int]:
    return [(1 << bits - 1) + 2 * i + 1 for i in range(count)]


def test_cycling_more_moduli_than_the_cache_holds(libcrypto):
    bound = numtheory._held.cache_info().maxsize
    assert bound == 16
    exp = EXP_FLOOR + 12345
    for mod in odd_moduli(3 * bound, 442) * 2:
        assert numtheory.pow(7, exp, mod) == builtins.pow(7, exp, mod)
        assert numtheory._held.cache_info().currsize <= bound


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux's statm")
def test_routed_calls_leak_no_memory(libcrypto):
    def rss() -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    # every other call is on one held modulus; the rest cycle through one
    # modulus more than the cache has left, so each of them evicts an
    # entry and holds a new one
    exp = EXP_FLOOR + 1
    kept, *cycled = odd_moduli(numtheory._held.cache_info().maxsize + 2, 96)
    expected = {mod: builtins.pow(3, exp, mod) for mod in (kept, *cycled)}

    def modulus(i: int) -> int:
        return cycled[i // 2 % len(cycled)] if i % 2 else kept

    for i in range(1000):
        numtheory.pow(3, exp, modulus(i))
    before = rss()
    for i in range(100_000):
        assert numtheory.pow(3, exp, modulus(i)) == expected[modulus(i)]
    # one scratch set or held entry a call that was never freed would be
    # tens of MB
    assert rss() - before < 4 << 20
