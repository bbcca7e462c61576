"""Statistics and regression as batches of sum-queries over the framework.

Each analysis entry (a mean, a normal-equation coefficient, ...) is one
sum over users of a locally computed monomial of that user's row.  The
per-user-per-term shape of the query polynomial forces exactly this
layout: term k of a sum-query carries exponent 1 for its owning user and
0 for everyone else, and the owner submits the monomial value.

Reals ride on two's-complement-style fixed point: x maps to
round(x * 2^f), negatives to N - |raw|.  All terms of one query share
the total scale 2^(f * degree); mixed-degree queries pre-scale their
coefficients by 2^(f * (d_max - d_k)) instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import netsim, pda
from .errors import FixedPointOverflow, GroupTooSmall, SingularNormalEquations
from .rng import Rng


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def to_scaled(x: float, frac_bits: int) -> int:
    """Signed integer round(x * 2^f)."""
    scaled = x * (1 << frac_bits)
    return int(scaled + 0.5) if scaled >= 0 else -int(-scaled + 0.5)


def to_residue(raw: int, modulus: int) -> int:
    """Signed integer into Z_N; |raw| must stay below N/2."""
    if 2 * abs(raw) >= modulus:
        raise FixedPointOverflow(f"|{raw}| does not fit below {modulus}/2")
    return raw % modulus


def fixed_encode(x: float, frac_bits: int, modulus: int) -> int:
    """Residue of the fixed-point image of x."""
    return to_residue(to_scaled(x, frac_bits), modulus)


def fixed_decode(raw: int, total_scale: int, modulus: int) -> float:
    """Re-sign a residue (values above N/2 are negative) and unscale."""
    value = raw % modulus
    if 2 * value >= modulus:
        value -= modulus
    return value / total_scale


def scale_coefficients(
    coeffs: Sequence[int], degrees: Sequence[int], frac_bits: int
) -> tuple[list[int], int]:
    """Align a mixed-degree query on the common scale 2^(f * d_max)."""
    if len(coeffs) != len(degrees):
        raise ValueError("need one degree per coefficient")
    d_max = max(degrees)
    scaled = [c << (frac_bits * (d_max - d)) for c, d in zip(coeffs, degrees)]
    return scaled, 1 << (frac_bits * d_max)


# ---------------------------------------------------------------------------
# query plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One sum-query: every user contributes the product of its named columns."""

    name: str
    columns: tuple[str, ...]  # () means the constant 1
    query: pda.PdaQuery
    total_scale: int

    def monomial(self, row: Mapping[str, float], frac_bits: int) -> int:
        raw = 1
        for col in self.columns:
            raw *= to_scaled(float(row[col]), frac_bits)
        return raw


@dataclass
class QueryPlan:
    steps: list[PlanStep]
    frac_bits: int
    postprocess: Callable[[dict[str, float]], dict]
    description: str

    def windows(self) -> list[pda.Window]:
        return [s.query.window for s in self.steps]


def _sum_query(participants: Sequence[int], window_start: int) -> pda.PdaQuery:
    """Query whose k-th term is owned by the k-th participant, all coefficients 1."""
    ids = tuple(sorted(participants))
    m = len(ids)
    exponents = {ids[k]: {k: 1} for k in range(m)}
    return pda.PdaQuery(
        coeffs=(1,) * m,
        exponents=exponents,
        participants=ids,
        window=pda.Window(window_start, m),
    )


def plan_mean_variance(
    participants: Sequence[int],
    frac_bits: int,
    theta_min: int = 3,
    window_start: int = 0,
    column: str = "x",
) -> QueryPlan:
    """Two queries (sum of x, sum of x^2) plus local mean/variance math."""
    ids = tuple(sorted(participants))
    if len(ids) < theta_min:
        raise GroupTooSmall(f"|P|={len(ids)} below theta_min={theta_min}")
    q1 = _sum_query(ids, window_start)
    q2 = _sum_query(ids, window_start + len(ids))
    steps = [
        PlanStep("sum_x", (column,), q1, 1 << frac_bits),
        PlanStep("sum_xx", (column, column), q2, 1 << (2 * frac_bits)),
    ]

    count = len(ids)

    def post(sums: dict[str, float]) -> dict:
        mean = sums["sum_x"] / count
        variance = sums["sum_xx"] / count - mean * mean
        return {"mean": mean, "variance": variance}

    return QueryPlan(
        steps=steps,
        frac_bits=frac_bits,
        postprocess=post,
        description=f"mean and population variance of '{column}' over {count} users",
    )


def plan_linear_regression(
    participants: Sequence[int],
    feature_columns: Sequence[str],
    frac_bits: int,
    theta_min: int = 3,
    window_start: int = 0,
    ridge_lambda: float = 0.0,
) -> QueryPlan:
    """Normal-equation entries as sum-queries; solve A p = b locally.

    The design matrix is the named feature columns plus an intercept, so
    with D = len(features)+1 the plan holds D(D+1)/2 + D queries.  The
    ridge term, when nonzero, is added to the diagonal after decoding.
    """
    ids = tuple(sorted(participants))
    if len(ids) < theta_min:
        raise GroupTooSmall(f"|P|={len(ids)} below theta_min={theta_min}")
    if not feature_columns:
        raise ValueError("need at least one feature column")
    design: list[tuple[str, ...]] = [()] + [(c,) for c in feature_columns]
    dim = len(design)

    steps: list[PlanStep] = []
    start = window_start
    for r in range(dim):
        for c in range(r, dim):
            q = _sum_query(ids, start)
            start += len(ids)
            cols = design[r] + design[c]
            steps.append(
                PlanStep(f"A_{r}_{c}", cols, q, 1 << (frac_bits * len(cols)))
            )
    for r in range(dim):
        q = _sum_query(ids, start)
        start += len(ids)
        cols = design[r] + ("y",)
        steps.append(PlanStep(f"b_{r}", cols, q, 1 << (frac_bits * len(cols))))

    def post(sums: dict[str, float]) -> dict:
        a = np.zeros((dim, dim))
        b = np.zeros(dim)
        for r in range(dim):
            for c in range(r, dim):
                a[r, c] = a[c, r] = sums[f"A_{r}_{c}"]
            b[r] = sums[f"b_{r}"]
        if ridge_lambda:
            a = a + ridge_lambda * np.eye(dim)
        try:
            coef = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations(str(exc)) from exc
        return {
            "intercept": float(coef[0]),
            "coefficients": [float(v) for v in coef[1:]],
            "normal_matrix": a.tolist(),
            "rhs": b.tolist(),
        }

    return QueryPlan(
        steps=steps,
        frac_bits=frac_bits,
        postprocess=post,
        description=(
            f"least squares on {len(feature_columns)} features (+intercept) "
            f"over {len(ids)} users"
            + (f", ridge {ridge_lambda}" if ridge_lambda else "")
        ),
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_plan(
    system: netsim.PdaSystem,
    plan: QueryPlan,
    rows: Mapping[int, Mapping[str, float]],
    seed: int | str | bytes,
    registry: pda.SlotRegistry | None = None,
) -> dict:
    """Evaluate every step through the full protocol, then post-process."""
    n_mod = system.params.N
    root = Rng(seed)
    sums: dict[str, float] = {}
    for idx, step in enumerate(plan.steps):
        ids = step.query.participants
        data = {i: [1] * step.query.m for i in ids}
        total = 0
        for k in range(step.query.m):
            owner = ids[k]
            raw = step.monomial(rows[owner], plan.frac_bits)
            data[owner][k] = to_residue(raw, n_mod)
            total += raw
        if 2 * abs(total) >= n_mod:
            raise FixedPointOverflow(
                f"step {step.name}: |sum| {abs(total)} does not fit below {n_mod}/2"
            )
        value, _ = netsim.run_pda_aggregation(
            system,
            step.query,
            data,
            seed=root.fork(f"step:{idx}").take(32),
            registry=registry,
        )
        sums[step.name] = fixed_decode(value, step.total_scale, n_mod)
    out = plan.postprocess(sums)
    out["sums"] = sums
    return out


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def read_rows(path) -> tuple[list[str], dict[int, dict[str, float]]]:
    """Header names the features; column 'y' is the dependent variable.

    Rows become users 1..n in file order unless a 'user' column is present.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("empty CSV")
        names = [c for c in reader.fieldnames if c not in ("user",)]
        rows: dict[int, dict[str, float]] = {}
        for idx, record in enumerate(reader, start=1):
            user = int(record["user"]) if "user" in record and record["user"] else idx
            rows[user] = {c: float(record[c]) for c in names}
    features = [c for c in names if c != "y"]
    return features, rows
