"""Modular big-integer substrate shared by both aggregation schemes.

Covers probabilistic prime generation (safe primes and correlated
semiprimes; a wide search screens blocks of draws on every core),
fixed-base exponentiation (a batch modulo a narrow odd modulus walks a
cached comb of the base's powers for every exponent at once in numpy
limb arrays; any other batch is one `pows` call), denominator-cleared Lagrange weights (built once per
group), the (1+M)-subgroup discrete log, the public slot exponent a_t
of the hash H(t) = h^{a_t} into the hidden subgroup, and the two key
ceremonies both schemes run on the bus: the ring exchange (by CRT on a
ring whose factorization is public) and the blinded (1+M)-power share
exchange (every share of a degree from one packed evaluation).  The
schemes differ only in the ring (p^2(p-1)^2 or N~^2) and in what they
feed these ceremonies.
All values are plain Python ints; modular results are reduced into
[0, modulus).

The module's `pow` is the builtin's, except that a wide modular
exponentiation goes to OpenSSL's BN_mod_exp_mont on a held Montgomery
context (`_held`) through ctypes when libcrypto loads; `paillier` and
`pda` import it.  `pows` takes a batch of independent exponentiations
and spreads wide library calls over the process's cores.  Results are
the builtin's, so transcripts do not depend on whether the library
loaded or on the cores, only timings do.
"""

from __future__ import annotations

import builtins
import contextlib
import copy
import ctypes
import functools
import hashlib
import math
import os
import sys
import threading
import weakref
from dataclasses import dataclass
from itertools import takewhile, zip_longest
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bus import Bus
from .errors import (
    DuplicateId,
    ExtractionFailed,
    NonInvertibleBroadcast,
    NotInSubgroup,
    NotInvertible,
    RingTooSmall,
)
from .rng import Rng

# Primality policy.  A number read from disk, or handed to
# `is_probable_prime` by a caller, may have been chosen to fool the test,
# so it gets MILLER_RABIN_ROUNDS rounds: error below 4^-64 for any input.
# A fresh uniform odd candidate of a prime search gets `_search_rounds`
# rounds, the fewest for which the average-case bound of Damgard,
# Landrock and Pomerance (Math. Comp. 61, 1993) is below 2^-100, as
# FIPS 186-5 Appendix B.3 allows.  A candidate built as F*c + 1 from a
# prime F > sqrt(candidate) gets Pocklington's proof (`_pocklington`),
# which is exactly as strong as F's own test.  Before any of these, each
# candidate is sieved once (`_sieved`) by the primes below 2000.  A
# safe-prime candidate q is sieved together with 2q + 1 from one residue
# of q (Wiener, IACR ePrint 2003/186).  The sieve rejects only composites,
# so it changes no answer, only how many exponentiations reach one.
MILLER_RABIN_ROUNDS = 64


def _primes_below(limit: int) -> Iterable[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return (i for i, f in enumerate(flags) if f)


SMALL_PRIMES = list(_primes_below(2000))

# The sieve.  First the primes up to 47, whose product fits a 64-bit
# word, so that most composites fall to a one-word gcd of a residue; then
# one gcd against the product of the other primes below 2000.  Every n
# below 2^16 is instead tested by trial division, which is exact.  A
# deeper sieve, one gcd per octave [2^(j-1), 2^j) up to 2^16, paid for
# itself while each Miller-Rabin round it saved was a builtin pow; with
# libcrypto's BN_mod_exp it costs more than it saves.  Median seconds a
# call, octaves -> two gcds, paired and alternating in one process (16
# seeds loaded, 6 off), CPython 3.11, OpenSSL 3, 2-core x86-64:
#   call                     libcrypto loaded       libcrypto off
#   pda.setup(512, ...)      0.643 -> 0.497 (15/16)  0.911 -> 1.190 (0/6)
#   arith.setup(512, ...)    0.339 -> 0.284 (16/16)  0.433 -> 0.547 (0/6)
#   paillier.keygen(2086)    0.157 -> 0.156 (7/16)   0.858 -> 1.106 (0/6)
# (n/m: the two gcds were faster on n of m seeds.)  So without libcrypto
# a 512-bit search is about 30 % slower; no workload runs that path.
# A single gcd against every prime below 2000, with no word stage, is
# about 3 times slower: arith.setup(512, ...) took 0.46 s for 0.15 s
# (median of 12 seeds).
_WORD_PRIMORIAL = math.prod(p for p in SMALL_PRIMES if p <= 47)
_SIEVE_PRODUCT = math.prod(p for p in SMALL_PRIMES if p > 47)
_TRIAL_BOUND = 1 << 16


# ---------------------------------------------------------------------------
# modular helpers
# ---------------------------------------------------------------------------

# Wide modular exponentiation.  CPython's pow reduces each step by long
# division; OpenSSL's BN_mod_exp_mont uses Montgomery multiplication for
# an odd modulus, but a call through ctypes costs 15 to 25 us of
# conversion and allocation.  Per call, in us, builtin / BN_mod_exp, for
# a random odd modulus and an exponent of the given width; CPython 3.11,
# OpenSSL 3, x86-64 Xeon:
#   modulus bits   exponent 8   exponent 32   exponent 64   exponent = modulus
#        64         1.9 / 22     10 / 23       17 / 36       21 / 32
#        96         2.7 / 23     14 / 24       24 / 25       38 / 29
#       128         3.8 / 25     17 / 15       26 / 19       46 / 25
#       256         5.8 / 16     27 / 23       44 / 19       173 / 35
#       448                                                  616 / 109
#       512                                                  970 / 95
#      1024          49 / 25    202 / 32      346 / 43       4,795 / 381
#      4172         453 / 155  2,083 / 405   4,342 / 736    249,316 / 39,165
# So the library gets an exponent of at least 64 bits modulo at least 96
# bits, where the two tie at the corner and BN wins by up to 14 times
# beyond it; pda-kit's short exponents are data exponents of a few bits
# modulo N, where the builtin wins.  Those calls also rebuilt the
# modulus's Montgomery context (R^2 mod m and m') and a BN_CTX each time.
# `_held` keeps the context of the 16 moduli used last and `_scratch` a
# call's BN_CTX and operands, which cuts a call (us, per-call / held):
# 442-bit modulus, 221-bit exponent (regress_n64's encryptions) 34 / 29;
# 104-bit exponent (its scales) 24 / 17; 512 / 511 bits 59 / 53; 96 / 64
# bits 13.5 / 6.9; from 1,041 bits nothing.  No workload's call lies near
# a floor, so both stay.  An even modulus (BN_mod_exp_mont refuses it;
# pda-kit's are odd), a negative exponent, a bool, an int subclass or any
# other type, a modulus that is not positive, a library that did not
# load or a failed call go to the builtin.
_BN_MOD_FLOOR = 1 << 95  # moduli of at least 96 bits
_BN_EXP_FLOOR = 1 << 63  # exponents of at least 64 bits


def _load_libcrypto() -> ctypes.CDLL | None:
    """libcrypto with the ten BN calls `pow` makes typed; None where it is
    not found, predates OpenSSL 1.1 (no BN_bn2binpad) or lacks one."""
    for soname in ("libcrypto.so.3", "libcrypto.so.1.1", None):
        if soname is None:  # last: find_library imports subprocess and runs `ldconfig -p`
            from ctypes.util import find_library
            soname = find_library("crypto")
            if soname is None:
                return None  # CDLL(None) would open the main program
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(soname)
            break
    else:
        return None
    try:
        bn = ctx = mont = ctypes.c_void_p
        for name, restype, argtypes in (
            ("BN_bin2bn", bn, (ctypes.c_char_p, ctypes.c_int, bn)),
            ("BN_bn2binpad", ctypes.c_int, (bn, ctypes.c_char_p, ctypes.c_int)),
            ("BN_new", bn, ()),
            ("BN_free", None, (bn,)),
            ("BN_CTX_new", ctx, ()),
            ("BN_CTX_free", None, (ctx,)),
            ("BN_MONT_CTX_new", mont, ()),
            ("BN_MONT_CTX_set", ctypes.c_int, (mont, bn, ctx)),
            ("BN_MONT_CTX_free", None, (mont,)),
            ("BN_mod_exp_mont", ctypes.c_int, (bn, bn, bn, bn, ctx, mont)),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except AttributeError:
        return None
    return lib


_libcrypto = _load_libcrypto()


def _routed(base, exp, mod) -> bool:
    """Whether `pow` hands (base, exp, mod) to the library, if it loaded."""
    return (
        type(exp) is int
        and exp >= _BN_EXP_FLOOR
        and type(mod) is int
        and mod >= _BN_MOD_FLOOR
        and mod & 1 == 1
        and type(base) is int
    )


def pow(base, exp, mod=None):
    """builtins.pow(base, exp, mod), by BN_mod_exp_mont where that is faster."""
    lib = _libcrypto
    if lib is not None and _routed(base, exp, mod):
        value = _mont_exp(lib, base % mod, exp, mod)
        if value is not None:
            return value
    return builtins.pow(base, exp, mod)


class _Held:
    """An odd modulus's BIGNUM and Montgomery context, which calls on any
    thread share read-only (as OpenSSL's RSA does), freed with the last
    reference: an entry evicted while a call holds it lives until then."""

    def __init__(self, lib: ctypes.CDLL, mod: int):
        self.size = (mod.bit_length() + 7) // 8
        self.bn = lib.BN_bin2bn(mod.to_bytes(self.size, "big"), self.size, None)
        self.mont, ctx = lib.BN_MONT_CTX_new(), lib.BN_CTX_new()
        # a failed allocation is None (NULL), which every free ignores
        weakref.finalize(self, lib.BN_free, self.bn)
        weakref.finalize(self, lib.BN_MONT_CTX_free, self.mont)
        ok = None not in (self.bn, self.mont, ctx) and lib.BN_MONT_CTX_set(self.mont, self.bn, ctx)
        lib.BN_CTX_free(ctx)
        if not ok:
            raise MemoryError("libcrypto could not hold the modulus")


_held = functools.lru_cache(maxsize=16)(_Held)
_scratch: list[tuple[int, int, int, int]] = []  # free (BN_CTX, result, base, exponent)


def _mont_exp(lib: ctypes.CDLL, base: int, exp: int, mod: int) -> int | None:
    """base^exp mod an odd `mod` by BN_mod_exp_mont for 0 <= base < mod, on
    its held context; None if it fails.  ctypes releases the interpreter
    lock during each library call, so a call pops a scratch set (or makes
    one) and pushes it back: `_scratch` holds at most one per caller."""
    try:
        held = _held(lib, mod)
    except MemoryError:
        return None
    try:
        scratch = _scratch.pop()
    except IndexError:
        scratch = (lib.BN_CTX_new(), lib.BN_new(), lib.BN_new(), lib.BN_new())
    ctx, r, b, e = scratch
    operands = [(x.to_bytes((x.bit_length() + 7) // 8, "big"), bn) for x, bn in ((base, b), (exp, e))]
    try:
        out = ctypes.create_string_buffer(held.size)
        ok = None not in scratch and None not in (lib.BN_bin2bn(x, len(x), bn) for x, bn in operands)
        if ok and lib.BN_mod_exp_mont(r, b, e, held.bn, ctx, held.mont):
            if lib.BN_bn2binpad(r, out, held.size) == held.size:
                return int.from_bytes(out.raw, "big")
        return None
    finally:
        if None not in scratch:
            _scratch.append(scratch)
        else:
            lib.BN_CTX_free(ctx)
            for bn in (r, b, e):
                lib.BN_free(bn)


# Spreading a batch.  ctypes releases the interpreter lock during each
# library call, so independent BN_mod_exp_mont calls run on as many cores
# as the process may use.  A thread costs 100 to 200 us to start and join.
# Median us of a batch, serial / spread on 2 cores, for random odd moduli
# and exponents as wide as the modulus or as a Paillier one (CPython
# 3.11, OpenSSL 3, x86-64 Xeon shared with other work; the first two rows
# on held contexts, at a quieter time):
#   modulus / exponent bits   2 calls          4 calls          8 calls
#        768 / 768            333 / 526        666 / 518      1,378 / 1,048
#       1041 / 1024         1,120 / 874      2,232 / 1,605    4,265 / 2,643
#       1280 / 1280         2,516 / 1,526    4,200 / 2,846    7,062 / 4,703
#       2086 / 1043         6,142 / 3,984   11,324 / 7,768
#       4172 / 2086        41,804 / 27,942  84,045 / 55,984
# At 768 bits two calls lose and four win; from 1,041 bits every batch
# wins, so a batch is spread only when every call goes to the library
# modulo at least 1,024 bits: the framework's masks at kappa=512 (h mod a
# 1041-bit N, m a user), its Paillier encryptions and scales (mod a
# 4172-bit n^2) and the two CRT halves of a decryption (2086 bits).
_SPREAD_FLOOR = 1 << 1023  # moduli of at least 1,024 bits


def _cores() -> int:
    """The cores this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def pows(items: Sequence[tuple[int, int, int]]) -> list[int]:
    """[pow(b, e, m) for b, e, m in items], in order.

    When libcrypto loaded and every item is a library call modulo at
    least 1,024 bits, the batch runs on min(len(items), cores) threads:
    the caller takes items 0, k, 2k, ..., worker j items j, j + k, ...,
    each writing its own slots, and the workers are joined before this
    returns; a worker's exception is raised here.  Every thread calls
    the module's `pow`, so a patched `pow` sees every item.
    """
    spread = (
        len(items) > 1
        and _libcrypto is not None
        and all(_routed(b, e, m) and m >= _SPREAD_FLOOR for b, e, m in items)
    )
    k = min(len(items), _cores()) if spread else 1
    if k < 2:
        return [pow(b, e, m) for b, e, m in items]
    out = [0] * len(items)
    failed = []

    def share(start: int) -> None:
        for i in range(start, len(items), k):
            out[i] = pow(*items[i])

    def worker(start: int) -> None:
        try:
            share(start)
        except BaseException as exc:
            failed.append(exc)

    workers = []
    try:
        for start in range(1, k):
            thread = threading.Thread(target=worker, args=(start,))
            thread.start()
            workers.append(thread)
        share(0)
    finally:
        for thread in workers:
            thread.join()
    if failed:
        raise failed[0]
    return out


def mod_inv(a: int, modulus: int) -> int:
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise NotInvertible(f"gcd({a % modulus}, {modulus}) != 1") from exc


def fixed_base_pows(
    base: int, exponents: Sequence[int], modulus: int, bound: int
) -> list[int]:
    """[pow(base, e, modulus) for e in exponents], each 0 <= e < bound.

    Every exponent is range-checked before any is computed.  A non-empty
    batch modulo an odd modulus above 1 and below _VECTOR_CEILING walks
    all its exponents at once (`_vector_walk`); every other batch is one
    `pows` call.
    """
    if exponents and not (0 <= min(exponents) and max(exponents) < bound):
        raise ValueError(f"exponent outside [0, {bound})")
    if exponents and modulus & 1 and 1 < modulus < _VECTOR_CEILING:
        return _vector_walk(base, exponents, modulus, max(1, (bound - 1).bit_length()))
    return pows([(base, e, modulus) for e in exponents])


# The vector walk (Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92;
# Lim and Lee, CRYPTO '94).  A radix-2^8 comb holds one row of 256 powers
# of the base per byte of the exponent bound, and a batch walks its rows
# once for all its exponents: each number is L limbs of 27 bits in an
# int64 array with one column per exponent, and each row costs one
# gather of the digits' entries and one Montgomery product (Montgomery,
# "Modular multiplication without trial division", Math. Comp. 1985), a
# few dozen numpy calls in all, instead of one exponentiation per
# exponent.  A zero digit multiplies by the row's entry for 1 instead of
# being skipped.  Median us a mask, vector walk / `pows`, for a random
# odd modulus and an exponent bound 8 bits narrower (11 at 107 bits, the
# kappa=48 N and N~), by batch size; CPython 3.11, numpy 2.4, OpenSSL 3,
# 2 cores of an x86-64 Xeon shared with other work:
#   modulus bits   batch of 64     256          512          1,024        4,096
#        64        7.0 / 22     2.2 / 19     1.6 / 18     1.2 / 19     0.9 / 20
#       107         18 / 29     6.7 / 30     4.1 / 27     2.8 / 30     2.3 / 28
#       160         38 / 33      14 / 32     8.4 / 32     6.7 / 34     4.3 / 35
#       192         64 / 34      23 / 33      15 / 33      11 / 34     8.2 / 35
#       256        108 / 53      41 / 47      28 / 53      23 / 45      16 / 44
# A table, cached, takes 4 ms to build at 107 bits and 28 ms at 256.
# Small batches, walk with the table cached / walk building it / `pows`
# (`pows` on held contexts, the builtin below 96 bits; same machine,
# median of 3 runs):
#   modulus bits   batch of 1         4              16            64             4,096
#        64        193 / 1,400 / 14   49 / 350 / 13  13 / 88 / 13  3.7 / 22 / 13  0.6 / 1 / 14
#       107        470 / 2,900 / 9    112 / 750 / 9  29 / 200 / 9  8.1 / 46 / 9   1.1 / 2 / 9
# `pows` wins below 16 to 64 exponents, but no workload makes such a
# batch below the ceiling: a kappa=48 round walks 4,096 masks, and the
# kappa=512 masks and the arith scheme's 512-bit p lie above it.  So
# every non-empty batch modulo an odd modulus below _VECTOR_CEILING takes
# the vector walk, and every other batch is one `pows` call and builds no
# table.  No workload's batch lies near the ceiling, so a change to it
# needs a new row.
_LIMB = 27
_LIMB_MASK = (1 << _LIMB) - 1
_VECTOR_CEILING = 1 << 191  # moduli of at least 192 bits go to `pows`


@functools.lru_cache(maxsize=8)
def _limb_comb(base: int, modulus: int, bits: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The radix-2^8 comb of `base` for bits-bit exponents modulo an odd
    modulus > 1, as limbs: (table, limbs of the modulus as a column,
    -modulus^-1 mod 2^27).

    table[j, :, d] holds the L limbs of base^{d * 2^{8j}} mod modulus,
    d < 256, row 0 as it is and every later row times R = 2^(27L) mod
    modulus, its Montgomery form, so that each Montgomery product by a
    later row's entry keeps the plain value.  L is the least count with
    2 * modulus < R.  The table takes ceil(bits/8) * 256 * L * 8 bytes:
    98 KB at the kappa=48 shape (12 rows of 4 limbs).
    """
    size = (modulus.bit_length() + _LIMB) // _LIMB
    # A Montgomery product's limb column sums L products of two limbs and
    # L products of a limb of q and one of the modulus, each below 2^54,
    # and a carry below 2L * 2^27: below 2L * 2^54, which int64 holds.
    assert 2 * size << 2 * _LIMB < 1 << 63, "limb columns would overflow int64"
    rows = []
    step = base % modulus  # base^{2^{8j}} for the row being built
    for _ in range(-(-bits // 8)):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * step % modulus)
        rows.append(row)
        step = row[-1] * step % modulus
    r = 1 << _LIMB * size
    values = [rows[0], *([x * r % modulus for x in row] for row in rows[1:])]
    table = np.array(
        [[[x >> _LIMB * i & _LIMB_MASK for x in row] for i in range(size)] for row in values],
        np.int64,
    )
    limbs = np.array([[modulus >> _LIMB * i & _LIMB_MASK] for i in range(size)], np.int64)
    return table, limbs, -pow(modulus, -1, 1 << _LIMB) % (1 << _LIMB)


def _vector_walk(base: int, exponents: Sequence[int], modulus: int, bits: int) -> list[int]:
    """[pow(base, e, modulus) for e in exponents] for an odd modulus > 1
    and bits-bit exponents, every exponent walked at once.

    Digit j of an exponent is its byte j, little-endian.  The
    accumulator starts at row 0's plain entry and stays below twice the
    modulus through each Montgomery product by a later row's entry; one
    conditional subtraction of the modulus ends the walk.
    """
    table, m, m_prime = _limb_comb(base, modulus, bits)
    width = (bits + 7) // 8
    raw = np.frombuffer(b"".join(e.to_bytes(width, "little") for e in exponents), np.uint8)
    digits = np.ascontiguousarray(raw.reshape(len(exponents), width).T)
    acc = table[0][:, digits[0]]
    for row, d in zip(table[1:], digits[1:]):
        acc = _mont_mul(acc, row[:, d], m, m_prime)
    diff = acc - m
    _carry(diff)
    acc = np.where(diff[-1] >= 0, diff, acc)
    return _limbs_to_ints(acc)


def _mont_mul(a: np.ndarray, b: np.ndarray, m: np.ndarray, m_prime: int) -> np.ndarray:
    """a * b / R mod m, below 2m, for a < 2m and b < m: arrays of limbs
    (rows, least significant first) by numbers (columns)."""
    size = len(m)
    t = np.zeros((2 * size, a.shape[1]), np.int64)
    for i in range(size):
        t[i : i + size] += a[i] * b
    for i in range(size):
        q = (t[i] & _LIMB_MASK) * m_prime & _LIMB_MASK
        t[i : i + size] += q * m
        t[i + 1] += t[i] >> _LIMB
    out = t[size:]
    _carry(out)
    return out


def _carry(limbs: np.ndarray) -> None:
    """Reduce every limb but the top one to 27 bits, in place; a borrow
    (negative limb) moves up as -1."""
    for k in range(len(limbs) - 1):
        limbs[k + 1] += limbs[k] >> _LIMB
        limbs[k] &= _LIMB_MASK


def _limbs_to_ints(limbs: np.ndarray) -> list[int]:
    """The ints whose 27-bit limbs are the columns of `limbs`: limbs are
    paired into 54-bit words in numpy, and the words joined in Python."""
    words = [limbs[i] | limbs[i + 1] << _LIMB for i in range(0, len(limbs) - 1, 2)]
    if len(limbs) % 2:
        words.append(limbs[-1])
    out = words.pop().tolist()
    for word in reversed(words):
        out = [high << 2 * _LIMB | low for high, low in zip(out, word.tolist())]
    return out


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def _mr_bases(n: int, rounds: int) -> Iterable[int]:
    # Bases derived from the candidate itself keep the test deterministic
    # across runs without threading an rng through every call site.
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    stream = hashlib.shake_256(b"pda-kit/mr/v1:" + seed).digest(rounds * 8)
    span = n - 3
    for i in range(rounds):
        chunk = int.from_bytes(stream[i * 8 : (i + 1) * 8], "big")
        yield 2 + chunk % span


def _small_prime(n: int) -> bool:
    """Primality of n < 2^16 by trial division."""
    return n > 1 and all(n % p for p in takewhile(lambda p: p * p <= n, SMALL_PRIMES))


def _sieved(n: int, pair: bool = False) -> bool:
    """Whether n, and with `pair` also 2n + 1, has no prime factor below
    2000 other than itself; below 2^16, whether n is prime.

    One residue r = n mod 2*3*...*47 tests n and 2n + 1 together through
    gcd(r (2r + 1), 2*3*...*47).
    """
    if n < _TRIAL_BOUND:
        return _small_prime(n) and (not pair or _sieved(2 * n + 1))
    r = n % _WORD_PRIMORIAL
    if math.gcd(r * (2 * r + 1) if pair else r, _WORD_PRIMORIAL) != 1:
        return False
    return math.gcd(n * (2 * n + 1) if pair else n, _SIEVE_PRODUCT) == 1


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Sieve, then `rounds` Miller-Rabin rounds."""
    return _sieved(n) and (n < _TRIAL_BOUND or _miller_rabin(n, rounds))


def _miller_rabin(n: int, rounds: int) -> bool:
    """`rounds` Miller-Rabin rounds on an odd n >= 5, with no sieve."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _mr_bases(n, rounds):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _search_rounds(bits: int) -> int:
    """Miller-Rabin rounds for a uniformly random odd `bits`-bit candidate.

    The least t with 3 <= t <= bits/9 for which the DLP 1993 bound
    k^{3/2} 2^t t^{-1/2} 4^{2 - sqrt(tk)} (k = bits) is below 2^-100;
    MILLER_RABIN_ROUNDS where no such t exists (every width below 207).
    """
    k = bits
    for t in range(3, k // 9 + 1):
        log2_bound = 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))
        if log2_bound < -100:
            return t
    return MILLER_RABIN_ROUNDS


def _pocklington(cand: int, factor: int) -> bool:
    """Primality of cand, proven from a prime factor of cand - 1 above sqrt(cand).

    Pocklington: if b^{cand-1} = 1 and gcd(b^{(cand-1)/factor} - 1, cand)
    = 1 for some b, every prime divisor of cand is 1 mod factor, so
    exceeds sqrt(cand), and cand is prime.  The answer is right whenever
    `factor` is prime.
    """
    if factor * factor <= cand or (cand - 1) % factor:
        raise ValueError("factor must divide cand - 1 and exceed sqrt(cand)")
    cofactor = (cand - 1) // factor
    for b in range(2, cand):  # reaches cand's least prime factor, where Fermat fails
        if pow(b, cand - 1, cand) != 1:
            return False
        g = math.gcd(pow(b, cofactor, cand) - 1, cand)
        if g == 1:
            return True
        if g != cand:
            return False  # a proper factor
    return False


# Searching in blocks.  Draw i of a search is its i-th
# `odd_with_top_bit(bits)` of the stream, and block b holds draws b*B to
# b*B + B - 1, screened on its own copy of the stream moved on to its
# first draw (`Rng.skip`) and only up to its first hit.  A search that may
# fork hands its blocks to `_forked`; any other, or one on one core or in
# a daemon, runs them in order here.  Either way the search keeps the
# first hit in stream order, and inline the screen sees exactly the
# candidates a loop of draws would.  Median ms of one search, inline /
# forked with 2 workers, over 10 seeds, inline first on even seeds
# (CPython 3.11, OpenSSL 3, 2 cores of an x86-64 VM shared with others):
#   bits          128          256          384          512          768          1,043
#   safe prime    5.9 / 15.5   70.5 / 57.0  132 / 78.9   302 / 211
#   plain prime                                          3.3 / 15.9   9.3 / 20.4   63.9 / 56.1
# (forked was faster on 0, 7, 7 and 9 of the 10 seeds for a safe prime,
# and on 0, 1 and 6 for a plain one).  On the kappa=512 set-up's four
# searches, blocks of 128 draws took 3 to 4 % less than blocks of 64
# (medians of three runs of 8 or 16), and blocks of 256 were slower at
# 1,043 bits, where such a block holds about 38 exponentiations.
# Forking costs 8 to 10 ms.  A safe-prime search screens thousands of
# cheap candidates, and forked wins from about 256 bits; a plain prime
# search hundreds of costly ones, and forked wins only from about 1,000
# bits.  So each kind has its floor, of the prime's bits; the kappa=48
# searches (48-bit safe primes, 111-bit Paillier primes) lie below both,
# and the kappa=512 ones (512-bit safe primes, 1,043-bit Paillier
# primes) above.
_SEARCH_BLOCK = 128  # draws a block
_SAFE_SEARCH_FLOOR = 256  # safe-prime bits from which a search forks
_PRIME_SEARCH_FLOOR = 1024  # prime bits from which a plain prime search forks


def _first_odd(rng: Rng, bits: int, screen: Callable[[int], bool], fork: bool) -> int:
    """The first of rng's successive `odd_with_top_bit(bits)` draws that
    passes `screen`, with rng left just past it, as a loop of draws would
    leave it; the blocks go to `_forked` when `fork` holds."""
    size = (bits + 6) // 8  # bytes a draw

    def block(b: int) -> tuple[int, int] | None:
        stream = copy.copy(rng)
        stream.skip(b * _SEARCH_BLOCK * size)
        for k, cand in enumerate(stream.odds_with_top_bit(bits, _SEARCH_BLOCK)):
            if screen(cand):
                return b * _SEARCH_BLOCK + k, cand
        return None

    with _forked(block, range(sys.maxsize), fork) as blocks:
        index, cand = next(filter(None, blocks))
    rng.skip((index + 1) * size)
    return cand


def gen_safe_prime(bits: int, rng: Rng) -> int:
    """Search for a safe prime p = 2q + 1 of exactly `bits` bits, q prime.

    Candidates restart at a fresh random point every iteration to avoid
    the bias of increment-only scans.  Deterministic given the stream.
    q and p are sieved together, once, and q is screened with one
    Miller-Rabin round.  p is then proven prime from q by Pocklington,
    whose first step, a Fermat test, screens p.  These screens run in
    blocks (`_first_odd`).  Last, here, q gets the full test its width
    needs, which discards a proof that leaned on a composite q, and the
    search goes on from the next draw.  No step rejects a prime.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")
    rounds = _search_rounds(bits - 1)

    def screen(q: int) -> bool:
        return _sieved(q, pair=True) and _miller_rabin(q, 1) and _pocklington(2 * q + 1, q)

    while True:
        q = _first_odd(rng, bits - 1, screen, bits >= _SAFE_SEARCH_FLOOR)
        if is_probable_prime(q, rounds):
            return 2 * q + 1


# ---------------------------------------------------------------------------
# correlated semiprime moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedModuli:
    """Semiprimes N and N~ with N~ | phi(N).

    The prime factors are ephemeral: setup verifies the invariants with
    them and then drops this object, keeping only (N, N~, k_cofactor).
    """

    n: int
    n_tilde: int
    k_cofactor: int
    p: int
    q: int
    p_tilde: int
    q_tilde: int


def lift_correlated_prime(p_tilde: int) -> int:
    """The prime p = 2*a*p_tilde + 1 for the smallest a >= 2, proven from the
    prime p_tilde; ValueError if the search reaches p_tilde^2 first."""
    a = 2
    while True:
        cand = 2 * a * p_tilde + 1
        if _sieved(cand) and _pocklington(cand, p_tilde):
            return cand
        a += 1


def gen_correlated_moduli(kappa: int, rng: Rng) -> CorrelatedModuli:
    """Generate N = p*q and N~ = p~*q~ with p~ | p-1 and q~ | q-1.

    p~ and q~ are distinct safe primes of exactly `kappa` bits, and p is
    lifted as 2*a*p~ + 1 for the smallest a >= 2 making p prime.
    """
    if kappa < 6:
        raise ValueError("kappa below 6 bits cannot yield two distinct safe primes")
    p_tilde = gen_safe_prime(kappa, rng)
    q_tilde = gen_safe_prime(kappa, rng)
    while q_tilde == p_tilde:
        q_tilde = gen_safe_prime(kappa, rng)
    p = lift_correlated_prime(p_tilde)
    q = lift_correlated_prime(q_tilde)

    n = p * q
    n_tilde = p_tilde * q_tilde
    phi = (p - 1) * (q - 1)
    if phi % n_tilde:
        raise ArithmeticError("construction broke N~ | phi(N)")
    return CorrelatedModuli(
        n=n,
        n_tilde=n_tilde,
        k_cofactor=phi // n_tilde,
        p=p,
        q=q,
        p_tilde=p_tilde,
        q_tilde=q_tilde,
    )


# ---------------------------------------------------------------------------
# Lagrange weights
# ---------------------------------------------------------------------------

def lagrange_weights(participants: Iterable[int]) -> Mapping[int, int]:
    """Denominator-cleared integer Lagrange coefficients at x = 0 of the
    group P; `participants` is P in any order.

    weights[i] = scale * L_{i,P}(0) exactly, with scale the lcm of the
    coefficients' denominators, so for every polynomial q of degree
    <= |P|-1 with q(0) = 0 the weighted sum of its evaluations is
    scale * q(0) = 0 over the integers, hence 0 modulo anything.  One
    mapping is shared by every caller with the same group, so it is
    read-only.
    """
    return _lagrange_weights(tuple(sorted(participants)))


@functools.lru_cache(maxsize=128)
def _lagrange_weights(ids: tuple[int, ...]) -> Mapping[int, int]:
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"repeated IDs in {ids}")
    if len(ids) < 2:
        raise ValueError("need at least two participants")
    if any(i <= 0 for i in ids):
        raise ValueError("IDs must be positive")

    # L_{i,P}(0) = prod(-j) / prod(i - j) over j != i, put in lowest terms
    # by one gcd a weight.  Exact fractions, which reduce after every
    # factor, took 6 ms at 32 ids against 0.13 ms (CPython 3.11, x86-64),
    # and a group's first use pays that inside its first round.
    reduced: dict[int, tuple[int, int]] = {}
    for i in ids:
        num = den = 1
        for j in ids:
            if j != i:
                num *= -j
                den *= i - j
        common = math.gcd(num, den)
        reduced[i] = (num // common, den // common)
    scale = math.lcm(*[abs(den) for _, den in reduced.values()])
    return MappingProxyType({i: num * scale // den for i, (num, den) in reduced.items()})


# ---------------------------------------------------------------------------
# subgroup discrete log and hash-to-subgroup
# ---------------------------------------------------------------------------

def dlog_one_plus_m(y: int, m: int) -> int:
    """x in [0, M) with (1+M)^x = y (mod M^2), via (1+M)^x = 1 + xM."""
    if m <= 1:
        raise ValueError("modulus must exceed 1")
    if not 0 <= y < m * m:
        raise ValueError("y must lie below M^2")
    if y % m != 1:
        raise NotInSubgroup(f"value is not 1 mod {m}")
    return ((y - 1) // m) % m


_HASH_DOMAIN = b"pda-kit/hash-to-subgroup/v1"


def slot_exponent(t: int, n_tilde: int, seed: bytes) -> int:
    """Public exponent a_t = XOF(seed || t) mod N~ of the slot hash H(t) = h^{a_t}."""
    if t < 0:
        raise ValueError("time slots are non-negative")
    t_bytes = t.to_bytes(max(1, (t.bit_length() + 7) // 8), "big")
    material = (
        _HASH_DOMAIN
        + len(seed).to_bytes(2, "big")
        + seed
        + len(t_bytes).to_bytes(2, "big")
        + t_bytes
    )
    width = (n_tilde.bit_length() + 7) // 8 + 16
    return int.from_bytes(hashlib.shake_256(material).digest(width), "big") % n_tilde


def hash_to_subgroup(t: int, h: int, n: int, n_tilde: int, seed: bytes) -> int:
    """Deterministic H(t) = h^{a_t} mod N, with a_t = slot_exponent(t).

    Output lies in <h>; when h has order dividing N~ the result is an
    N~-th root of unity mod N, and H(t)^s = h^{a_t * s mod N~}.
    """
    return pow(h, slot_exponent(t, n_tilde, seed), n)


# ---------------------------------------------------------------------------
# key ceremonies shared by both schemes
# ---------------------------------------------------------------------------

def unit_power(modulus: int, factors: Sequence[tuple[int, int]] = ()) -> Callable[[int, int], int]:
    """(u, e) -> u^e mod modulus for units u, equal to pow(u, e, modulus).

    `factors` lists the modulus's prime factorization as (prime,
    exponent) pairs; a prime may repeat.  With them, u^e is one pow per
    prime power p^k, its exponent reduced mod phi(p^k), recombined by
    precomputed CRT coefficients (Quisquater and Couvreur, Electronics
    Letters 1982).  Without them it is the plain pow.
    """
    if not factors:
        return lambda u, e: pow(u, e, modulus)
    merged: dict[int, int] = {}
    for prime, k in factors:
        merged[prime] = merged.get(prime, 0) + k
    if math.prod(prime**k for prime, k in merged.items()) != modulus:
        raise ValueError("factors do not multiply to the modulus")
    parts = []  # (p^k, phi(p^k), CRT coefficient: 1 mod p^k, 0 mod the rest)
    for prime, k in merged.items():
        power = prime**k
        rest = modulus // power
        parts.append((power, power // prime * (prime - 1), rest * mod_inv(rest, power) % modulus))
    return lambda u, e: sum(pow(u % m, e % phi, m) * c for m, phi, c in parts) % modulus


def evaluate_packed(
    polys: Sequence[Sequence[int]], xs: Sequence[int], modulus: int
) -> list[list[int]]:
    """values[k][j] = q_j(xs[k]) mod modulus, with q_j(x) = sum_t polys[j][t-1] x^t.

    Kronecker substitution (Harvey, J. Symb. Comput. 2009): the t-th
    coefficients of all polynomials, reduced into [0, modulus), share
    one integer, polynomial j in slot j.  A slot holds |M| + D*bitlen(max
    x) + 1 bits, which bounds every sum_t c_t x^t, so Horner with the
    small scalar x never carries from one slot into the next.  One pass
    per point evaluates every polynomial, and each slot is reduced once.
    """
    if any(x < 0 for x in xs):
        raise ValueError("points must be non-negative")
    degree = max(map(len, polys), default=0)
    width = (modulus.bit_length() + degree * max(xs, default=0).bit_length() + 8) // 8
    span = len(polys) * width
    columns = [
        int.from_bytes(b"".join((c % modulus).to_bytes(width, "little") for c in column), "little")
        for column in zip_longest(*polys, fillvalue=0)
    ]
    columns.reverse()
    values = []
    for x in xs:
        acc = 0
        for column in columns:
            acc = (acc + column) * x
        packed = acc.to_bytes(span, "little")
        values.append(
            [int.from_bytes(packed[k : k + width], "little") % modulus for k in range(0, span, width)]
        )
    return values


def ring_exchange(
    bus: Bus,
    modulus: int,
    generator: int,
    exponents: Mapping[int, int],
    hops: int = 0,
    late: Mapping[int, Callable[[dict[int, int]], int]] | None = None,
    factors: Sequence[tuple[int, int]] = (),
) -> dict[int, int]:
    """Ring exchange yielding Y_i with prod Y_i = 1 mod `modulus`.

    Every party i of the ID-ordered ring broadcasts y_i = generator^{r_i}
    with r_i = exponents[i].  With hops=0, Y_i = (y_{i+1} * y_{i-1}^{-1})^{r_i}
    and the exponents telescope.  With hops=k the base
    y_{i+k+1} * y_{i-1}^{-1} is relayed through parties i+k, ..., i+1,
    each raising it to its own exponent, before party i applies r_i --
    one extra bus round per hop.

    A negative `hops` is refused with ValueError.  A ring of hops+2
    parties or fewer is refused with RingTooSmall: at hops+2 the base
    y_{i+hops+1} * y_{i-1}^{-1} is 1, so every Y_i would be 1 and blind
    nothing.

    Parties in `late` broadcast in a second round, the value their
    callback picks after seeing the first round's broadcasts.

    `factors` is the modulus's public prime-power factorization, if it
    has one; every power is then taken by CRT (see `unit_power`).  The
    generator must be a unit, else NotInvertible.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    ring = sorted(exponents)
    if len(ring) <= hops + 2:
        raise RingTooSmall(f"ring with {hops} relay hops needs more than {hops + 2} parties")
    if math.gcd(generator, modulus) != 1:
        raise NotInvertible(f"generator is not a unit mod {modulus}")
    power = unit_power(modulus, factors)
    late = late or {}

    early = [i for i in ring if i not in late]
    for i in early:
        bus.post(i, "ring-share", (power(generator, exponents[i]),))
    shape = bus.shape((i, None, "ring-share", 1) for i in early)
    y = {m.sender: m.body[0] for m in bus.deliver(shape)}

    if late:
        for i, pick in late.items():
            bus.post(i, "ring-share", (pick(dict(y)),))
        shape = bus.shape((i, None, "ring-share", 1) for i in late)
        y.update((m.sender, m.body[0]) for m in bus.deliver(shape))

    for i in ring:
        if math.gcd(y[i], modulus) != 1:
            raise NonInvertibleBroadcast(f"broadcast of party {i} is not a unit")

    def at(idx: int) -> int:
        return ring[idx % len(ring)]

    # Relay value destined for target i is held by party i+hop after each round.
    current = {
        i: y[at(idx + hops + 1)] * mod_inv(y[at(idx - 1)], modulus) % modulus
        for idx, i in enumerate(ring)
    }
    for hop in range(hops, 0, -1):
        for idx, target in enumerate(ring):
            value = power(current[target], exponents[at(idx + hop)])
            bus.post(at(idx + hop), "ring-relay", (target, value), to=at(idx + hop - 1))
        hands = ((at(idx + hop), at(idx + hop - 1), "ring-relay", 2) for idx in range(len(ring)))
        current.update(m.body for m in bus.deliver(bus.shape(hands)))  # (target, value) pairs

    return {i: power(current[i], exponents[i]) for i in ring}


# Median ms of one keygen's `share_exchange`, inline / forked with 2 workers
# on 2 cores (11 alternating runs, CPython 3.11, x86-64 VM shared with others):
#   n / messages     8 / 336      16 / 3,360    20 / 6,840    24 / 12,144
#   kappa=48 pda     4.2 / 16.6   31.4 / 46.9   59.0 / 44.3   103 / 69.0
#   kappa=512 arith  11.2 / 14.7  84.4 / 63.4   168 / 122     240 / 180
# The floor lies above both crossings and every toy system of the tests.
_FORK_FLOOR = 10_000  # messages a call, n(n-1) a degree


@contextlib.contextmanager
def _forked(compute: Callable, items: Sequence, fork: bool, spare: int = 0) -> Iterator[Iterator]:
    """Yields an iterator of compute(item) for each of `items`, in order.

    When `fork` holds, the process may use two or more cores, `os.fork`
    exists and the process is not a daemon (a daemon may start no
    process), the values come from forked workers, one per core but
    `spare` and at most one per item: worker w of K computes items w,
    w + K, ... and sends each through its own pipe, running ahead of
    the caller by what the pipe holds.  Otherwise each is computed when
    the iterator reaches it.  An item whose value does not arrive,
    because its worker failed or was killed, is computed in the caller
    at its turn, so errors are the inline ones.  Every worker is reaped
    when the block exits, however it exits.
    """
    forked = fork and _cores() > 1
    if forked:  # imported here, so that a process that never forks never loads it
        import multiprocessing
        forked = hasattr(os, "fork") and not multiprocessing.current_process().daemon
    count = min(_cores() - spare, len(items)) if forked else 0

    def work(share: Sequence, writer, reader) -> None:
        reader.close()  # the pipe breaks once the caller and every later worker are gone
        with contextlib.suppress(BaseException):  # even an interrupt: the caller computes the rest
            for item in share:
                writer.send(compute(item))

    def results() -> Iterator:
        for idx, item in enumerate(items):
            got = ()
            if count:
                with contextlib.suppress(EOFError, OSError):  # a stopped worker's item is done here
                    got = (workers[idx % count][1].recv(),)
            yield got[0] if got else compute(item)

    workers = []  # (process, reading end)
    try:
        for w in range(count):
            context = multiprocessing.get_context("fork")
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=work, args=(items[w::count], writer, reader))
            worker.start()
            workers.append((worker, reader))
            writer.close()  # the worker holds the only writing end, so its exit is an EOF here
        yield results()
    finally:
        for worker, reader in workers:
            reader.close()
            worker.terminate()
        for worker, _ in workers:  # joined after every signal, so they exit together
            worker.join()


def share_exchange(
    bus: Bus,
    modulus: int,
    blinds: Mapping[int, int],
    degrees: Sequence[int],
    coefficients: Callable[[int, int], Sequence[int]],
    kind: str,
) -> dict[int, dict[int, int]]:
    """Blinded (1+M)-power share exchange, one bus round per degree.

    For degree d each party j draws the coefficients c_1.. of a
    zero-constant polynomial q_j(x) = sum_t c_t x^t over Z_M
    (`coefficients(j, d)`) and sends party i the message
    blinds[j] * (1+M)^{q_j(i)} mod M^2, of kind "<kind>:<d>".  The
    blinds multiply to 1, so the product of party i's own factor and
    its inbox is (1+M)^{sum_j q_j(i)}, and the subgroup dlog gives i's
    point on the summed polynomial.  Returns party -> degree -> point.

    The n(n-1) evaluations of a degree come from one `evaluate_packed`
    call, n Horner passes in place of one per (sender, recipient) pair.
    Since blind * (1+M)^v = blind + M * (blind * v mod M) mod M^2, each
    sender's coefficients are scaled by its blind mod M before the
    evaluation, and a share is then one multiply-add and at most one
    subtraction of M^2.

    The product is never formed.  A share s = a + M*b with 0 <= a, b < M
    and a a unit mod M is a * (1 + M*b*a^-1) mod M^2, the identity behind
    Paillier's L function.  Every share from j has the same low part
    a_j = blinds[j] mod M, because j uses one blind for every recipient
    and every degree of the call.  So when prod_j a_j = 1 (mod M), the
    dlog of i's product is base + sum_j (s_ji // M) * a_j^-1 mod M, with
    base the dlog of prod_j a_j mod M^2: one dlog and n inversions a
    call, then one half-width product a share.  When prod_j a_j != 1
    (mod M), no party's product is a (1+M) power, and ExtractionFailed
    names `kind` before any round opens, so the bus stays empty.

    From `_FORK_FLOOR` messages a call on two or more cores, each degree's
    coefficient draws and evaluation run in forked workers, which never
    see the bus; a worker that fails leaves its degrees to this process.
    """
    ids = sorted(blinds)
    m2 = modulus * modulus
    points: dict[int, dict[int, int]] = {i: {} for i in ids}
    reduced = [blinds[j] % m2 for j in ids]
    lows = [blind % modulus for blind in reduced]
    try:
        base = dlog_one_plus_m(math.prod(lows) % m2, modulus)
    except NotInSubgroup as exc:
        raise ExtractionFailed(f"{kind} blinds do not multiply to 1 mod M") from exc
    inverses = {j: mod_inv(low, modulus) for j, low in zip(ids, lows)}
    shape = bus.shape((j, i, kind, 1) for j in ids for i in ids if i != j)

    def sender(d: int) -> list[list[int]]:
        # values[x][j] = blind_j * q_j(ids[x]) mod M
        polys = [[low * c for c in coefficients(j, d)] for j, low in zip(ids, lows)]
        return evaluate_packed(polys, ids, modulus)

    fork = len(ids) * (len(ids) - 1) * len(degrees) >= _FORK_FLOOR
    with _forked(sender, degrees, fork) as evaluated:
        for d, values in zip(degrees, evaluated):
            label = f"{kind}:{d}"
            own = {}
            for j, blind, row in zip(ids, reduced, zip(*values)):
                for i, v in zip(ids, row):
                    share = blind + modulus * v
                    if share >= m2:
                        share -= m2
                    if i != j:
                        bus.post(j, label, (share,), to=i)
                    else:
                        own[i] = share
            sums = {i: share // modulus * inverses[i] for i, share in own.items()}
            delivered = bus.deliver(shape._replace(kinds=shape.kinds and (label,)))  # () if one party
            for msg in delivered:
                sums[msg.to] += msg.body[0] // modulus * inverses[msg.sender]
            del delivered  # not held while the next degree's round is posted

            for i in ids:
                points[i][d] = (base + sums[i]) % modulus

    return points
