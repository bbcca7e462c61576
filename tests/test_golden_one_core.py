"""The ten golden digests of `test_golden.py` on one core, every mask through `pows`.

As shipped, a fixed-base batch modulo a narrow odd modulus takes the
vector walk, and a process with two or more cores forks a plan's
workers and spreads wide `pows` batches over threads.  Here the same
tests and fixtures are collected again, under the same names in this
module, with one core and the vector walk's ceiling at 0 for the whole
module (`conftest.one_core_and_pows`), so that every computation runs
in this process, every mask is one `pows` item, and every digest must
be the same.
"""

import pytest

from conftest import one_core_and_pows
from test_golden import *  # noqa: F401,F403  the digest tests and their module fixtures


@pytest.fixture(scope="module", autouse=True)
def one_core():
    with pytest.MonkeyPatch.context() as patch:
        one_core_and_pows(patch)
        yield
