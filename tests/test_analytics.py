import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pda_kit import analytics, netsim, numtheory, pda
from pda_kit.errors import (
    FixedPointOverflow,
    GroupTooSmall,
    MissingEncoding,
    SingularNormalEquations,
    SlotReused,
)


@pytest.fixture(scope="module")
def small_pda():
    return netsim.build_pda_system(kappa=24, n=5, theta_min=3, seed=808, m_max=8)[0]


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_encode_frozen():
    n = (1 << 31) - 1
    assert analytics.to_residue(analytics.to_scaled(1.5, 4), n) == 24
    assert analytics.to_residue(analytics.to_scaled(-0.25, 4), n) == n - 4
    assert analytics.fixed_decode(24, 1 << 4, n) == 1.5
    assert analytics.fixed_decode(n - 4, 1 << 4, n) == -0.25


def test_fixed_point_roundtrip_tolerance():
    n = (1 << 63) - 59
    rnd = random.Random(1)
    f = 16
    for _ in range(200):
        x = rnd.uniform(-1000, 1000)
        raw = analytics.to_residue(analytics.to_scaled(x, f), n)
        assert abs(analytics.fixed_decode(raw, 1 << f, n) - x) <= 2**-f


def test_fixed_point_product_scale():
    n = (1 << 63) - 59
    rnd = random.Random(2)
    f = 16
    for _ in range(100):
        a = rnd.uniform(-30, 30)
        b = rnd.uniform(-30, 30)
        raw = analytics.to_scaled(a, f) * analytics.to_scaled(b, f)
        got = analytics.fixed_decode(analytics.to_residue(raw, n), 1 << (2 * f), n)
        assert abs(got - a * b) <= 2 ** (-f + 1) * (abs(a) + abs(b))


def test_fixed_point_overflow():
    with pytest.raises(FixedPointOverflow):
        analytics.to_residue(analytics.to_scaled(10.0, 8), 100)


def _round_half_away(v: Fraction) -> int:
    whole = math.floor(abs(v) + Fraction(1, 2))
    return whole if v >= 0 else -whole


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    f=st.integers(min_value=0, max_value=2000),
)
def test_to_scaled_is_exact(x, f):
    assert analytics.to_scaled(x, f) == _round_half_away(Fraction(x) * 2**f)


def test_to_scaled_rounds_exactly_and_halves_away_from_zero():
    assert analytics.to_scaled(float(2**52 + 1), 0) == 2**52 + 1
    assert analytics.to_scaled(0.49999999999999994, 0) == 0
    assert analytics.to_scaled(-2.5, 0) == -3


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_to_scaled_refuses_a_non_finite_value(x):
    with pytest.raises(FixedPointOverflow):
        analytics.to_scaled(x, 16)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_plan_mean_variance_frozen(small_pda):
    plan = analytics.plan_mean_variance([1, 2, 3, 4, 5], frac_bits=12)
    rows = {1: {"x": 2.0}, 2: {"x": 4.0}, 3: {"x": 6.0}, 4: {"x": 2.0}, 5: {"x": 4.0}}
    out = analytics.run_plan(small_pda, plan, rows, seed=1, registry=pda.SlotRegistry())
    xs = [2.0, 4.0, 6.0, 2.0, 4.0]
    mean = sum(xs) / 5
    var = sum(v * v for v in xs) / 5 - mean * mean
    assert math.isclose(out["mean"], mean, abs_tol=1e-9)
    assert math.isclose(out["variance"], var, abs_tol=1e-6)


def test_plan_constant_data_zero_variance(small_pda):
    plan = analytics.plan_mean_variance([1, 2, 3, 4, 5], frac_bits=12)
    rows = {i: {"x": 7.25} for i in range(1, 6)}
    out = analytics.run_plan(small_pda, plan, rows, seed=2, registry=pda.SlotRegistry())
    assert math.isclose(out["variance"], 0.0, abs_tol=1e-6)


def test_plan_window_reuse_rejected(small_pda):
    plan = analytics.plan_mean_variance([1, 2, 3, 4, 5], frac_bits=12)
    rows = {i: {"x": 1.0} for i in range(1, 6)}
    registry = pda.SlotRegistry()
    analytics.run_plan(small_pda, plan, rows, seed=3, registry=registry)
    with pytest.raises(SlotReused):
        analytics.run_plan(small_pda, plan, rows, seed=4, registry=registry)


def test_plan_sum_overflow_rejected():
    # every value fits below N/2 but their sum does not; the protocol
    # would return the sum mod N, decoded as a small wrong number
    system, _ = netsim.build_pda_system(kappa=16, n=8, theta_min=3, seed=909, m_max=8)
    ids = sorted(system.enc_keys)
    x = system.params.N // 2 - 1
    step = analytics.PlanStep("sum_x", ("x",))
    plan = analytics.QueryPlan(tuple(ids), 0, [step], 0, lambda sums: {}, "sum of x")
    rows = {i: {"x": float(x)} for i in ids}
    registry = pda.SlotRegistry()
    with pytest.raises(FixedPointOverflow, match="sum_x"):
        analytics.run_plan(system, plan, rows, seed=5, registry=registry)
    assert registry.windows == []  # rejected before any window is claimed


def test_plan_overflow_at_last_step_runs_no_ceremony(monkeypatch):
    # sum_x fits, but sum_xx of the same values does not: the plan is
    # refused before its first step claims a window or runs a ceremony
    system, _ = netsim.build_pda_system(kappa=16, n=8, theta_min=3, seed=909, m_max=8)
    ids = sorted(system.enc_keys)
    frac_bits = 4
    x = math.isqrt(system.params.N // 2) >> frac_bits
    plan = analytics.plan_mean_variance(ids, frac_bits)
    rows = {i: {"x": float(x)} for i in ids}
    ceremonies = []
    monkeypatch.setattr(netsim, "run_ceremony", lambda *args: ceremonies.append(args))
    registry = pda.SlotRegistry()
    with pytest.raises(FixedPointOverflow, match="step sum_xx"):
        analytics.run_plan(system, plan, rows, seed=5, registry=registry)
    assert registry.windows == []
    assert ceremonies == []


def test_plan_windows_disjoint(small_pda):
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["a", "b"], 12)
    windows = [plan.query(j).window for j in range(len(plan.steps))]
    for i, w1 in enumerate(windows):
        for w2 in windows[i + 1 :]:
            assert not w1.overlaps(w2)
    # D = 3: D(D+1)/2 + D = 9 queries, in consecutive windows of |P| slots
    assert len(plan.steps) == 9
    assert windows == [pda.Window(5 * j, 5) for j in range(9)]


def test_randomized_inputs_match_plaintext(small_pda):
    # plans executed end to end track the plaintext analysis on random reals
    rnd = random.Random(99)
    f = 16
    for trial in range(3):
        xs = {i: {"x": rnd.uniform(-50, 50)} for i in range(1, 6)}
        plan = analytics.plan_mean_variance([1, 2, 3, 4, 5], frac_bits=f)
        out = analytics.run_plan(
            small_pda, plan, xs, seed=trial, registry=pda.SlotRegistry()
        )
        values = [xs[i]["x"] for i in range(1, 6)]
        mean = sum(values) / 5
        var = sum(v * v for v in values) / 5 - mean * mean
        assert abs(out["mean"] - mean) < 2 ** (-f + 1)
        assert abs(out["variance"] - var) < 2 ** (-f + 8)  # squares amplify quantization


def test_regression_exact_line(small_pda):
    f = 16
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], f)
    rows = {i: {"x": float(i), "y": 2.0 * i + 1.0} for i in range(1, 6)}
    out = analytics.run_plan(small_pda, plan, rows, seed=5, registry=pda.SlotRegistry())
    assert abs(out["coefficients"][0] - 2.0) < 2 ** (-f + 2)
    assert abs(out["intercept"] - 1.0) < 2 ** (-f + 2)


def test_message_lost_in_a_step_stops_the_plan_there(small_pda, dropping, monkeypatch):
    # step 0, A_0_0 = |P|, runs no ceremony; an 'encode' message lost in
    # step j's ceremony raises that step's MissingEncoding, prefixed with
    # its round, after steps 1..j claimed their windows and before any
    # later step claims one
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], 8)
    rows = {i: {"x": float(i), "y": 2.0 * i + 1.0} for i in range(1, 6)}
    j = 3
    inner = netsim._aggregation

    def step(system, query, data, seed, registry, encoded):
        if query.window == plan.query(j).window:
            dropping("encode", 4)
        return inner(system, query, data, seed, registry, encoded)

    monkeypatch.setattr(netsim, "_aggregation", step)
    registry = pda.SlotRegistry()
    with pytest.raises(MissingEncoding, match=r"^\[round 2\] user 4: no 'encode' message"):
        analytics.run_plan(small_pda, plan, rows, seed=5, registry=registry)
    assert registry.windows == [plan.query(i).window for i in range(1, j + 1)]


def _recorded_buses(monkeypatch) -> list:
    """The bus of every ceremony run through `netsim.run_ceremony`, in order."""
    buses = []
    inner = netsim.run_ceremony

    def recording(*args, **kwargs):
        result = inner(*args, **kwargs)
        buses.append(result.bus)
        return result

    monkeypatch.setattr(netsim, "run_ceremony", recording)
    return buses


def test_a_plan_meeting_a_consumed_window_claims_nothing(small_pda, forked, monkeypatch):
    # step 3's window is already consumed: the plan is refused naming that
    # step before its first ceremony and before any worker is forked, and
    # claims no window
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], 8)
    rows = {i: {"x": float(i), "y": 2.0 * i + 1.0} for i in range(1, 6)}
    buses = _recorded_buses(monkeypatch)
    entered = []
    monkeypatch.setattr(numtheory, "_forked", lambda *args, **kwargs: entered.append(args))
    registry = pda.SlotRegistry([plan.query(3).window])
    refusal = r"^step b_0: window \[15,20\) overlaps consumed \[15,20\)$"
    with pytest.raises(SlotReused, match=refusal):
        analytics.run_plan(small_pda, plan, rows, seed=5, registry=registry)
    assert registry.windows == [plan.query(3).window]
    assert buses == [] and entered == []


@pytest.mark.parametrize("fault", ["raise", "exit"])
def test_a_plan_worker_that_fails_leaves_its_step_to_the_caller(
    small_pda, fault, request, monkeypatch, capfd
):
    # forced to fork, the plan's worker stops at step j, raising or exiting
    # without a word: step j and every later one are encoded in this
    # process, and the output and every step's transcript are the inline
    # ones, which one core gives
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], 8)
    rows = {i: {"x": 1.5 * i - 4.0, "y": 2.0 * i + 1.0} for i in range(1, 6)}
    j, caller, here = 2, os.getpid(), []
    inner = netsim._encodings

    def encodings(system, query, data):
        if os.getpid() == caller:
            here.append(query.window)
        elif query.window == plan.query(j).window:
            if fault == "raise":
                raise ValueError(f"no encodings at step {j}")
            os._exit(1)
        return inner(system, query, data)

    def run():
        here.clear()
        with pytest.MonkeyPatch.context() as patch:
            buses = _recorded_buses(patch)
            out = analytics.run_plan(small_pda, plan, rows, seed=11, registry=pda.SlotRegistry())
        return out, [bus.transcript_jsonl() for bus in buses]

    monkeypatch.setattr(netsim, "_encodings", encodings)
    with pytest.MonkeyPatch.context() as one_core:
        one_core.setattr(numtheory, "_cores", lambda: 1)
        inline = run()
    assert here == [plan.query(i).window for i in range(1, len(plan.steps))]
    request.getfixturevalue("forked")
    assert run() == inline
    assert here == [plan.query(i).window for i in range(j, len(plan.steps))]
    with pytest.raises(ChildProcessError):  # no worker running, nor exited and not reaped
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


def test_vector_walk_leaves_run_plan_unchanged(small_pda, monkeypatch):
    # on one core, so that every step is encoded in this process, each
    # ceremony's round 1 walks its 5 * 5 masks in one vector walk; with
    # the ceiling patched to 0 they go to `pows`, and the plan's output and
    # every ceremony's transcript and traffic agree
    system = small_pda
    ids = sorted(system.enc_keys)
    plan = analytics.plan_linear_regression(ids, ["x"], 4)
    rows = {i: {"x": float(i % 7), "y": float(3 * (i % 7) - 2 + i % 3)} for i in ids}
    steps = sum(1 for step in plan.steps if step.columns)
    monkeypatch.setattr(numtheory, "_cores", lambda: 1)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            buses = _recorded_buses(patch)
            info = numtheory._limb_comb.cache_info()
            out = analytics.run_plan(system, plan, rows, seed=7, registry=pda.SlotRegistry())
            after = numtheory._limb_comb.cache_info()
        walks = after.hits + after.misses - info.hits - info.misses
        return walks, out, [(bus.transcript_jsonl(), bus.traffic_report()) for bus in buses]

    vector = run()
    monkeypatch.setattr(numtheory, "_VECTOR_CEILING", 0)
    scalar = run()
    assert (vector[0], scalar[0]) == (steps, 0)
    assert vector[1:] == scalar[1:]
    assert len(vector[2]) == steps
    sums = vector[1]["sums"]
    assert sums["A_1_1"] == sum(row["x"] ** 2 for row in rows.values())
    assert sums["b_1"] == sum(row["x"] * row["y"] for row in rows.values())


def test_regression_takes_group_size_locally(small_pda, monkeypatch):
    buses = _recorded_buses(monkeypatch)
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["a", "b"], 12)
    rows = {i: {"a": float(i), "b": float(i * i), "y": 3.0 * i - 2.0} for i in range(1, 6)}
    out = analytics.run_plan(small_pda, plan, rows, seed=9, registry=pda.SlotRegistry())
    # D = 3: every one of the D(D+1)/2 + D steps but A_0_0 = Σ 1 runs a ceremony
    assert len(buses) == 3 * 4 // 2 + 3 - 1
    assert out["sums"]["A_0_0"] == 5


def test_run_plan_reports_traffic_of_each_step(small_pda, monkeypatch):
    buses = _recorded_buses(monkeypatch)
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], 12)
    rows = {i: {"x": float(i), "y": 2.0 * i + 1.0} for i in range(1, 6)}
    out = analytics.run_plan(small_pda, plan, rows, seed=10, registry=pda.SlotRegistry())
    ran = [step.name for step in plan.steps if step.columns]
    assert len(buses) == len(ran)
    assert out["traffic"] == {
        "A_0_0": {"rounds": 0, "bytes": 0},
        **{
            name: {"rounds": len(bus.rounds), "bytes": sum(bus.sent.values())}
            for name, bus in zip(ran, buses)
        },
    }
    assert all(out["traffic"][name]["rounds"] == 3 for name in ran)
    assert all(out["traffic"][name]["bytes"] > 0 for name in ran)


def test_regression_errors(small_pda):
    with pytest.raises(ValueError):
        analytics.plan_linear_regression([1, 2, 3], [], 12)
    with pytest.raises(GroupTooSmall):
        analytics.plan_linear_regression([1, 2], ["x"], 12)
    # duplicated column makes the normal equations singular
    f = 14
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x", "x"], f)
    rows = {i: {"x": float(i), "y": float(i)} for i in range(1, 6)}
    with pytest.raises(SingularNormalEquations):
        analytics.run_plan(small_pda, plan, rows, seed=8, registry=pda.SlotRegistry())


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_read_rows(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    features, rows = analytics.read_rows(csv_path)
    assert features == ["a", "b"]
    assert rows == {1: {"a": 1.0, "b": 2.0, "y": 3.0}, 2: {"a": 4.0, "b": 5.0, "y": 6.0}}


def test_read_rows_with_user_column(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("user,x\n7,1.5\n9,2.5\n")
    features, rows = analytics.read_rows(csv_path)
    assert features == ["x"]
    assert set(rows) == {7, 9}


def test_read_rows_int_cells_stay_exact(tmp_path):
    # a value mod a 1041-bit N is past float range and must not be rounded
    big = (1 << 1100) + 1
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(f"user,x0,x1\n3,{big},5\n1,2,{-big}\n")
    features, rows = analytics.read_rows(csv_path, int)
    assert features == ["x0", "x1"]
    assert rows == {3: {"x0": big, "x1": 5}, 1: {"x0": 2, "x1": -big}}
    csv_path.write_text("x\n1\n2.5\n")
    with pytest.raises(ValueError, match="row 2, column 'x': not an integer"):
        analytics.read_rows(csv_path, int)


@pytest.mark.parametrize(
    "csv_text, where",
    [
        ("user,x,x\n1,3,7\n2,4,8\n", "header: column 'x' repeated"),
        ("x,y,x\n3,1,7\n4,2,8\n", "header: column 'x' repeated"),
        ("user,x,user\n1,3,1\n2,4,2\n", "header: column 'user' repeated"),
        ("x,y\n1,2\n1,2,9\n", "row 2: more cells than the header's 2"),
        ("x,y\n1,2\n1\n3,4\n", "row 2: fewer cells than the header's 2"),
        ("user,x,y\n1,2,3\n2,4\n", "row 2: fewer cells than the header's 3"),
        ("x,y,\n1,2,\n3,4,\n", "header: column 3 has no name"),
        ("x,,y\n1,,2\n3,,4\n", "header: column 2 has no name"),
        ("x,y, \n1,2,3\n", "header: column 3 has no name"),
    ],
)
def test_read_rows_refuses_a_ragged_table(tmp_path, csv_text, where):
    # no cell is dropped or read as missing: a repeated column, a long row
    # and a short row are refused by name, for either cell kind
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(csv_text)
    for kind in (float, int):
        with pytest.raises(ValueError, match=f"^{where}$"):
            analytics.read_rows(csv_path, kind)
