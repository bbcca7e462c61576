"""The ten golden digests of `test_golden.py` with every key ceremony forked.

`numtheory.share_exchange` computes each degree's coefficient draws and
packed evaluation in forked workers once a call sends `_FORK_FLOOR`
messages, which no toy system of `test_golden.py` reaches.  Here the
same tests and fixtures are collected again, under the same names in
this module, with the floor at 0 and two cores for the whole module, so
that every degree of the three golden key ceremonies comes through a
worker's pipe and must give the same keys and transcripts.
"""

import pytest

from conftest import fork_every_ceremony
from test_golden import *  # noqa: F401,F403  the digest tests and their module fixtures


@pytest.fixture(scope="module", autouse=True)
def forked_ceremonies():
    with pytest.MonkeyPatch.context() as patch:
        yield fork_every_ceremony(patch)


def test_every_key_degree_came_from_a_worker(forked_ceremonies, arith_golden, pda_golden):
    # the golden systems were built under the floor of 0: none of their
    # degrees was evaluated in this process
    assert forked_ceremonies == []
