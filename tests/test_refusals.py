"""Every refusal of every ceremony driver: the error, an empty wire and an
unchanged slot registry.

Each case runs one driver on inputs it must refuse.  Every bus the driver
could post to is recorded (`netsim.run_ceremony` makes its own, and the
arith model flows post to the caller's); after the refusal none may have
opened a round, and the registry must hold the windows it held before.
"""

import dataclasses
import math

import pytest

from pda_kit import analytics, models, netsim, pda
from pda_kit.bus import Bus
from pda_kit.errors import (
    DuplicateId,
    FixedPointOverflow,
    GroupBelowThreshold,
    GroupTooSmall,
    IncompleteGroup,
    InvalidQuery,
    KeyMissing,
    ResultOverflow,
    SlotReused,
)


class Wire:
    """The systems under test, a registry with one consumed window, and
    every bus made while a case runs."""

    def __init__(self, framework, authority, plain):
        self.framework, self.authority, self.plain = framework, authority, plain
        self.registry = pda.SlotRegistry([pda.Window(20, 4)])
        self.buses: list[Bus] = []

    def bus(self, parties) -> Bus:
        bus = Bus(parties)
        self.buses.append(bus)
        return bus


@pytest.fixture
def wire(monkeypatch, pda_system, arith_system, plain_arith_system):
    wire = Wire(pda_system[0], arith_system[0], plain_arith_system[0])
    monkeypatch.setattr(netsim, "Bus", wire.bus)
    return wire


def _without(mapping, *drop):
    return {k: v for k, v in mapping.items() if k not in drop}


def _rekey(keys, i, **changes):
    return {**keys, i: dataclasses.replace(keys[i], **changes)}


# ---------------------------------------------------------------------------
# framework: netsim.run_pda_aggregation
# ---------------------------------------------------------------------------

IDS = (1, 2, 3, 4)


def _query(ids=IDS, m=2, start=10, length=None, exponents=None):
    return pda.PdaQuery(
        coeffs=(1,) * m,
        exponents={i: {k: 1 for k in range(m)} for i in ids} if exponents is None else exponents,
        participants=ids,
        window=pda.Window(start, m if length is None else length),
    )


def _framework(wire, query=None, data=None, keys=None):
    system = wire.framework
    if keys is not None:
        system = dataclasses.replace(system, enc_keys=keys(system.enc_keys))
    query = query or _query()
    data = {i: [i, i + 1] for i in IDS} if data is None else data
    return netsim.run_pda_aggregation(system, query, data, seed=1, registry=wire.registry)


FRAMEWORK = {
    "window-length": (InvalidQuery, lambda w: _framework(w, _query(length=3))),
    "repeated-id": (DuplicateId, lambda w: _framework(w, _query(ids=(1, 2, 3, 3)))),
    "id-outside-1..n": (InvalidQuery, lambda w: _framework(w, _query(ids=(1, 2, 3, 7)))),
    "below-theta-min": (GroupBelowThreshold, lambda w: _framework(w, _query(ids=(1, 2)))),
    "exponent-of-outsider": (InvalidQuery, lambda w: _framework(w, _query(exponents={5: {0: 1}}))),
    "exponent-past-m": (InvalidQuery, lambda w: _framework(w, _query(exponents={1: {2: 1}}))),
    "negative-exponent": (InvalidQuery, lambda w: _framework(w, _query(exponents={1: {0: -1}}))),
    "no-key": (KeyMissing, lambda w: _framework(w, keys=lambda ks: _without(ks, 4))),
    "no-degree": (
        KeyMissing, lambda w: _framework(w, keys=lambda ks: _rekey(ks, 3, evaluations={}))
    ),
    "hardened-key": (
        GroupBelowThreshold, lambda w: _framework(w, keys=lambda ks: _rekey(ks, 3, hardened_k=3))
    ),
    "aggregator-key": (
        ResultOverflow, lambda w: _framework(w, _query(m=64), {i: [1] * 64 for i in IDS})
    ),
    "window-reused": (SlotReused, lambda w: _framework(w, _query(start=19))),
    "no-values": (IncompleteGroup, lambda w: _framework(w, data={i: [i, i] for i in (1, 2, 3)})),
    "one-value-short": (
        IncompleteGroup, lambda w: _framework(w, data={**{i: [i, i] for i in IDS}, 2: [2]})
    ),
}


# ---------------------------------------------------------------------------
# arith: netsim.run_arith_group_aggregation and the two model flows
# ---------------------------------------------------------------------------

def _group_sum(wire, group=IDS, values=None, keys=None, op="add"):
    system = wire.plain
    if keys is not None:
        system = dataclasses.replace(system, enc_keys=keys(system.enc_keys))
    values = {i: i + 1 for i in group} if values is None else values
    return netsim.run_arith_group_aggregation(system, group, values, op)


def term(coeff, powers):
    return models.PolyTerm(coeff=coeff, powers=tuple(powers.items()))


PARTICIPANTS = (1, 2, 3, 4, 5, 6)
# a multi-owner term, and single-owner terms of 3, 4 and 5 for the extra round
POLY = models.AggPolynomial(
    terms=(term(1, {1: 1, 2: 1}), term(1, {3: 2}), term(1, {4: 1}), term(1, {5: 1})),
    participants=PARTICIPANTS,
)


def _authority(wire, poly=POLY, data=None, keys=None):
    system = wire.authority
    enc_keys = system.enc_keys if keys is None else keys(system.enc_keys)
    data = {i: 3 * i + 1 for i in poly.participants} if data is None else data
    return models.authority_aggregate(
        wire.bus(system.ids), system.params, enc_keys, system.virtual_id, poly, data
    )


def _members(wire, poly=POLY, data=None, keys=None):
    system = wire.plain
    enc_keys = system.enc_keys if keys is None else keys(system.enc_keys)
    data = {i: 3 * i + 1 for i in poly.participants} if data is None else data
    return models.all_participants_aggregate(
        wire.bus(poly.participants), system.params, enc_keys, poly, data
    )


def _drop_share(size):
    return lambda ks: _rekey(ks, 2, shares=_without(ks[2].shares, size))


TWICE = models.AggPolynomial(terms=(models.PolyTerm(1, ((1, 1), (1, 2))),), participants=IDS)
OUTSIDER = models.AggPolynomial(terms=(term(1, {1: 1, 9: 1}),), participants=IDS)
ZERO_POWER = models.AggPolynomial(terms=(term(1, {1: 1, 2: 0}),), participants=IDS)
LONE = models.AggPolynomial(terms=(term(1, {1: 1}),), participants=(1,))
LONE_SIGMA = models.AggPolynomial(
    terms=(term(1, {1: 1, 2: 1}), term(1, {3: 2})), participants=PARTICIPANTS
)
# the authority system's virtual participant is 7
VIRTUAL = models.AggPolynomial(terms=(term(1, {1: 1, 2: 1, 7: 1}),), participants=(1, 2, 3, 7))
REPEATED = models.AggPolynomial(
    terms=(term(1, {1: 1}), term(1, {2: 1}), term(1, {3: 1})), participants=(1, 1, 2, 3)
)

ARITH = {
    "sum-op": (ValueError, lambda w: _group_sum(w, op="xor")),
    "sum-below-n-min": (GroupTooSmall, lambda w: _group_sum(w, group=(1, 2))),
    "sum-no-share": (KeyMissing, lambda w: _group_sum(w, keys=_drop_share(4))),
    "sum-no-key": (KeyMissing, lambda w: _group_sum(w, keys=lambda ks: _without(ks, 3))),
    "sum-no-value": (
        IncompleteGroup, lambda w: _group_sum(w, op="mul", values={1: 2, 2: 3, 4: 5})
    ),
    "authority-no-virtual-key": (
        KeyMissing, lambda w: _authority(w, keys=lambda ks: _without(ks, 7))
    ),
    "authority-virtual-participant": (DuplicateId, lambda w: _authority(w, VIRTUAL)),
}
for name, flow, size in (("authority", _authority, 7), ("members", _members, 6)):
    ARITH.update({
        f"{name}-named-twice": (ValueError, lambda w, f=flow: f(w, TWICE)),
        f"{name}-outsider": (ValueError, lambda w, f=flow: f(w, OUTSIDER)),
        f"{name}-repeated-participant": (DuplicateId, lambda w, f=flow: f(w, REPEATED)),
        f"{name}-zero-power": (ValueError, lambda w, f=flow: f(w, ZERO_POWER)),
        f"{name}-below-n-min": (GroupTooSmall, lambda w, f=flow: f(w, LONE)),
        f"{name}-sigma-below-n-min": (GroupTooSmall, lambda w, f=flow: f(w, LONE_SIGMA)),
        f"{name}-no-share": (KeyMissing, lambda w, f=flow, k=size: f(w, keys=_drop_share(k))),
        f"{name}-no-key": (KeyMissing, lambda w, f=flow: f(w, keys=lambda ks: _without(ks, 5))),
        f"{name}-no-value": (
            IncompleteGroup, lambda w, f=flow: f(w, data={i: 1 for i in (1, 2, 3, 5, 6)})
        ),
    })


# ---------------------------------------------------------------------------
# analytics.run_plan
# ---------------------------------------------------------------------------

def _plan(wire, x=2.0, window_start=0, rows=None, ids=IDS):
    # theta_min=1 leaves the group to the system's own checks
    plan = analytics.plan_mean_variance(ids, frac_bits=8, theta_min=1, window_start=window_start)
    rows = {i: {"x": x + i} for i in ids} if rows is None else rows
    return analytics.run_plan(wire.framework, plan, rows, seed=1, registry=wire.registry)


def _wide_square(wire):
    # x * 2^8 fits below N/2 at every step but x^2 * 2^16, the last step's
    # monomial, does not
    return _plan(wire, x=float(math.isqrt(wire.framework.params.N) >> 8))


PLAN = {
    "plan-overflow": (FixedPointOverflow, _wide_square),
    "plan-window-reused": (SlotReused, lambda w: _plan(w, window_start=18)),
    "plan-missing-row": (
        IncompleteGroup, lambda w: _plan(w, rows={i: {"x": i} for i in IDS[:-1]})
    ),
    "plan-missing-column": (
        IncompleteGroup, lambda w: _plan(w, rows={i: {"y": i} for i in IDS})
    ),
    # refused as the first ceremony's query is, on any number of cores
    "plan-one-member": (GroupBelowThreshold, lambda w: _plan(w, ids=[2])),
    "plan-id-zero": (InvalidQuery, lambda w: _plan(w, ids=[0, 1, 2, 3])),
}


@pytest.mark.parametrize(
    "error, refused",
    [pytest.param(*case, id=name) for name, case in {**FRAMEWORK, **ARITH, **PLAN}.items()],
)
def test_refused_ceremony_puts_nothing_on_the_wire(wire, error, refused):
    claimed = list(wire.registry.windows)
    with pytest.raises(error):
        refused(wire)
    for bus in wire.buses:
        assert bus.round_no == 0
        assert bus.transcript_jsonl() == ""
    assert wire.registry.windows == claimed


@pytest.mark.parametrize("run", [_framework, _group_sum, _authority, _members, _plan])
def test_unrefused_inputs_reach_the_wire(wire, run):
    # the inputs every case above changes by one field do run
    run(wire)
    assert wire.buses and all(bus.round_no > 0 for bus in wire.buses)
