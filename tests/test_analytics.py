import math
import random

import pytest

from pda_kit import analytics, netsim, pda
from pda_kit.errors import (
    FixedPointOverflow,
    GroupTooSmall,
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
    assert analytics.fixed_encode(1.5, 4, n) == 24
    assert analytics.fixed_encode(-0.25, 4, n) == n - 4
    assert analytics.fixed_decode(24, 1 << 4, n) == 1.5
    assert analytics.fixed_decode(n - 4, 1 << 4, n) == -0.25


def test_fixed_point_roundtrip_tolerance():
    n = (1 << 63) - 59
    rnd = random.Random(1)
    f = 16
    for _ in range(200):
        x = rnd.uniform(-1000, 1000)
        raw = analytics.fixed_encode(x, f, n)
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
        analytics.fixed_encode(10.0, 8, 100)


def test_scale_coefficients_exact_on_integers():
    # mixed-degree query: c1*x (deg 1) + c2*x*y (deg 2) with integer inputs
    f = 12
    coeffs, total_scale = analytics.scale_coefficients([3, 5], [1, 2], f)
    assert total_scale == 1 << (2 * f)
    x, y = 7, -4
    acc = coeffs[0] * analytics.to_scaled(float(x), f)
    acc += coeffs[1] * analytics.to_scaled(float(x), f) * analytics.to_scaled(float(y), f)
    n = (1 << 80) - 65
    decoded = analytics.fixed_decode(analytics.to_residue(acc, n), total_scale, n)
    assert decoded == 3 * x + 5 * x * y


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
    step = analytics.PlanStep("sum_x", ("x",), analytics._sum_query(ids, 0), 1)
    plan = analytics.QueryPlan([step], 0, lambda sums: {}, "sum of x")
    rows = {i: {"x": float(x)} for i in ids}
    registry = pda.SlotRegistry()
    with pytest.raises(FixedPointOverflow, match="sum_x"):
        analytics.run_plan(system, plan, rows, seed=5, registry=registry)
    assert registry.windows == []  # rejected before any window is claimed


def test_plan_windows_disjoint(small_pda):
    plan = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["a", "b"], 12)
    windows = plan.windows()
    for i, w1 in enumerate(windows):
        for w2 in windows[i + 1 :]:
            assert not w1.overlaps(w2)
    # D = 3: D(D+1)/2 + D = 9 queries
    assert len(plan.steps) == 9


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


def test_regression_ridge_changes_solution(small_pda):
    f = 16
    rows = {i: {"x": float(i), "y": 2.0 * i + 1.0} for i in range(1, 6)}
    plain = analytics.plan_linear_regression([1, 2, 3, 4, 5], ["x"], f)
    ridge = analytics.plan_linear_regression(
        [1, 2, 3, 4, 5], ["x"], f, ridge_lambda=10.0
    )
    a = analytics.run_plan(small_pda, plain, rows, seed=6, registry=pda.SlotRegistry())
    b = analytics.run_plan(small_pda, ridge, rows, seed=7, registry=pda.SlotRegistry())
    assert abs(a["coefficients"][0] - b["coefficients"][0]) > 1e-6


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
