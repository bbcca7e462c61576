"""The ten golden digests of `test_golden.py` with libcrypto switched off.

`numtheory.pow` sends wide exponentiations to libcrypto's
BN_mod_exp_mont, on the modulus's held Montgomery context, when the
library loads, so `test_golden.py` pins that path.  Here the
same tests and fixtures are collected again, under the same names in
this module, with the library handle set to None for the whole module,
so that every pow goes to the builtin and must give the same digests.
"""

import pytest

from pda_kit import numtheory
from test_golden import *  # noqa: F401,F403  the digest tests and their module fixtures


@pytest.fixture(scope="module", autouse=True)
def builtin_pow():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numtheory, "_libcrypto", None)
        yield
