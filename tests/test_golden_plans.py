"""`analytics.run_plan` pinned by SHA-256, on every route of `conftest.ROUTES`.

Each digest covers the `transcript_jsonl()` of every ceremony a plan
runs, in order, followed by the JSON of its output: every sum, the
post-processed values and each step's traffic.  Every plan runs as
shipped, with libcrypto off, with every key ceremony and plan forked
and on one core with every mask through `pows`, and must give the same
digest on all four.
"""

import pytest

from pda_kit import analytics, netsim, pda
from test_analytics import _recorded_buses
from test_golden import digest

GOLDEN_PLANS = {
    "regression": (
        "cf3c8124f57f3236052179e9d4888457"
        "f84a8aa8606d64f6f3c9716276633606"
    ),
    "mean_variance": (
        "2e082f666b62fd23be6f7d4ca7e1da29"
        "efa23daa979e3de843fdd37c68c3aa4c"
    ),
}


@pytest.fixture(scope="module")
def plan_system(route):
    return netsim.build_pda_system(24, 6, 3, seed="golden:plans", m_max=6)[0]


def plan_digest(system, plan, rows, seed, fitted=False) -> str:
    """The digest of one run of `plan`.  A regression's fitted intercept
    and coefficients come from `np.linalg.solve`, whose last bits may
    differ between LAPACK builds, so they enter at 12 significant digits."""
    with pytest.MonkeyPatch.context() as patch:
        buses = _recorded_buses(patch)
        out = analytics.run_plan(system, plan, rows, seed=seed, registry=pda.SlotRegistry())
    if fitted:
        out["intercept"] = format(out["intercept"], ".12g")
        out["coefficients"] = [format(v, ".12g") for v in out["coefficients"]]
    return digest("".join(bus.transcript_jsonl() for bus in buses), out)


def test_regression_plan_digest(plan_system):
    plan = analytics.plan_linear_regression(range(1, 7), ["a", "b"], 6, window_start=5)
    rows = {
        i: {"a": 1.5 * i - 4.0, "b": float((i * i) % 5) - 2.25, "y": 3.0 * i - 7.5 + (i % 2)}
        for i in range(1, 7)
    }
    got = plan_digest(plan_system, plan, rows, "golden:plan:regress", fitted=True)
    assert got == GOLDEN_PLANS["regression"]


def test_mean_variance_plan_digest(plan_system):
    plan = analytics.plan_mean_variance([2, 3, 4, 5, 6], 10, column="v")
    rows = {i: {"v": -2.5 * i + 3.125 * (i % 3)} for i in range(2, 7)}
    got = plan_digest(plan_system, plan, rows, "golden:plan:mean")
    assert got == GOLDEN_PLANS["mean_variance"]


def test_the_route_was_taken(route, plan_system):
    route.taken()
