"""Exact counts of the modular exponentiations a prime search makes.

Every three-argument pow inside `numtheory` and `paillier` is counted at
fixed seeds, the way perfbench's tracer counts them.  The sieve decides
how many composites reach a Miller-Rabin screen, so a change to it moves
these counts, while `test_prime_pins.py` shows that the accepted primes
stay the same.  Before the staged sieve the same searches made 93, 93,
71 and 81 pows, and the keygen 129; before the full test of q skipped
the base its screen had already tried, the searches made 81, 90, 70
and 77; with the octave gcds from 2000 to 2^16, which cost more than
the BN_mod_exp rounds they saved, they made 80, 89, 69 and 76, and the
keygen 117.  When Pocklington's Fermat step took over the screen of
2q + 1, and q's full test ran all its rounds again, no count moved; the
512-bit searches were pinned before that change.
"""

import builtins

import pytest

from pda_kit import numtheory, paillier
from pda_kit.rng import Rng


@pytest.fixture
def pows(monkeypatch):
    """The count of modular pows in this process, which sees one core: a
    search's blocks then run here, not in forked workers whose counts
    die with them."""
    count = [0]
    native = builtins.pow

    def counting(base, exp, mod=None):
        if mod is not None:
            count[0] += 1
        return native(base, exp, mod)

    for module in (numtheory, paillier):
        monkeypatch.setattr(module, "pow", counting, raising=False)
    monkeypatch.setattr(numtheory, "_cores", lambda: 1)
    return count


SAFE_PRIME_128 = {0: 92, 1: 92, 2: 70, 3: 80}


@pytest.mark.parametrize("seed", sorted(SAFE_PRIME_128))
def test_safe_prime_search_pows(pows, seed):
    numtheory.gen_safe_prime(128, Rng(f"screens:safe:128:{seed}"))
    assert pows[0] == SAFE_PRIME_128[seed]


SAFE_PRIME_512 = {1: 86, 4: 148, 7: 184}


@pytest.mark.parametrize("seed", sorted(SAFE_PRIME_512))
def test_safe_prime_search_pows_at_512_bits(pows, seed):
    numtheory.gen_safe_prime(512, Rng(f"screens:safe:512:{seed}"))
    assert pows[0] == SAFE_PRIME_512[seed]


def test_aggregator_keygen_pows(pows):
    paillier.keygen(512, Rng("screens:aggregator:512"))
    assert pows[0] == 129
