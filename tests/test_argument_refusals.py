"""Argument refusals of the library's building blocks.

Each case calls one function on an argument it must refuse and checks
the error and its message.  The ceremony drivers' refusals, with their
empty wire and unchanged registry, are in `test_refusals.py`.
"""

import pytest

from pda_kit import analytics, attacks, numtheory, paillier, pda
from pda_kit.errors import MissingEncoding, SingularSystem
from pda_kit.rng import Rng


def _query(m=2, length=2):
    return pda.PdaQuery(
        coeffs=(1,) * m,
        exponents={},
        participants=(1, 2, 3),
        window=pda.Window(0, length),
    )


def _user1(system, own, user2_cts):
    # user 1 of the group (1, 2, 3) with user 3's 2 encodings in its inbox
    return pda.encode_user1(
        system.params, system.agg_pk, _query(), own, {3: [1, 1]}, user2_cts, Rng("user1")
    )


def _empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return analytics.read_rows(path)


# name: (error, message, call(system, tmp_path)), the system `pda_system`'s
CASES = {
    "rng-seed-type": (TypeError, "unsupported seed type: float", lambda s, t: Rng(1.5)),
    "rng-randbelow-0": (ValueError, "bound must be positive", lambda s, t: Rng(1).randbelow(0)),
    "rng-empty-range": (ValueError, "empty range", lambda s, t: Rng(1).randrange(5, 5)),
    "rng-1-bit-odd": (
        ValueError, "need at least 2 bits", lambda s, t: Rng(1).odd_with_top_bit(1)
    ),
    "rng-unit-mod-1": (ValueError, "modulus must exceed 1", lambda s, t: Rng(1).unit(1)),
    "paillier-equal-factors": (
        ValueError, "factors must be distinct", lambda s, t: paillier.from_primes(5, 5)
    ),
    "paillier-lambda-shares-n": (
        ValueError, "shares a factor with n", lambda s, t: paillier.from_primes(3, 7)
    ),
    "paillier-5-bits": (
        ValueError, "below 6 bits", lambda s, t: paillier.keygen(5, Rng(1))
    ),
    "mod-inv-mod-1": (ValueError, "modulus must exceed 1", lambda s, t: numtheory.mod_inv(3, 1)),
    "lagrange-one-id": (
        ValueError, "at least two participants", lambda s, t: numtheory.lagrange_weights([5])
    ),
    "lagrange-id-0": (
        ValueError, "IDs must be positive", lambda s, t: numtheory.lagrange_weights([0, 1])
    ),
    "dlog-mod-1": (
        ValueError, "modulus must exceed 1", lambda s, t: numtheory.dlog_one_plus_m(0, 1)
    ),
    "encode-many-window": (
        ValueError,
        "one window slot per term",
        lambda s, t: pda.encode_many(s.params, [], _query(length=3), {}),
    ),
    "blinding-units-0": (
        ValueError, "at least one term", lambda s, t: pda.blinding_units(s.agg_pk, 0, Rng(1))
    ),
    "user1-short-user2": (
        MissingEncoding,
        "user 2: no 'encode-enc' message of 2 terms",
        lambda s, t: _user1(s, [1, 1], [1]),
    ),
    "user1-short-own": (
        MissingEncoding,
        "user 1: no own encoding of each of 2 terms",
        lambda s, t: _user1(s, [1], [1, 1]),
    ),
    "read-rows-empty": (ValueError, "empty CSV", lambda s, t: _empty_csv(t)),
    # points x = 1 and 4 of a degree-2 polynomial mod 15: after the first
    # column, the second pivot is 4^2 - 4 = 12, which shares 3 with 15
    "collusion-singular": (
        SingularSystem,
        "no invertible pivot",
        lambda s, t: attacks.collusion_attack(15, {1: 2, 4: 7}, 2, 9),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refused_argument(case, pda_system, tmp_path):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call(pda_system[0], tmp_path)


def test_zero_random_bits_are_0():
    assert Rng(1).getrandbits(0) == Rng(1).getrandbits(-3) == 0
