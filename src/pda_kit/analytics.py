"""Statistics and regression as batches of sum-queries over the framework.

Each analysis entry (a mean, a normal-equation coefficient, ...) is one
sum over users of a locally computed monomial of that user's row.  The
per-user-per-term shape of the query polynomial forces exactly this
layout: term k of a sum-query carries exponent 1 for its owning user and
0 for everyone else, and the owner submits the monomial value.

Reals ride on two's-complement-style fixed point: x maps to
round(x * 2^f), negatives to N - |raw|.  All terms of one query share
the total scale 2^(f * degree).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import netsim, numtheory, pda
from .errors import FixedPointOverflow, GroupTooSmall, IncompleteGroup, SingularNormalEquations
from .errors import SlotReused
from .rng import Rng


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def to_scaled(x: float, frac_bits: int) -> int:
    """Signed integer round(x * 2^f), exact, halves away from zero."""
    if not math.isfinite(x):
        raise FixedPointOverflow(f"{x} has no fixed-point value")
    num, den = x.as_integer_ratio()
    scaled, rest = divmod(abs(num) << frac_bits, den)
    if 2 * rest >= den:
        scaled += 1
    return scaled if num >= 0 else -scaled


def _check_fits(value: int, modulus: int, what: str) -> None:
    """FixedPointOverflow naming `what` and both widths unless |value| < N/2."""
    if 2 * abs(value) >= modulus:
        raise FixedPointOverflow(
            f"{what} of {abs(value).bit_length()} bits does not fit below N/2, "
            f"N of {modulus.bit_length()} bits"
        )


def to_residue(raw: int, modulus: int) -> int:
    """Signed integer into Z_N; |raw| must stay below N/2."""
    _check_fits(raw, modulus, "|value|")
    return raw % modulus


def fixed_decode(raw: int, total_scale: int, modulus: int) -> float:
    """Re-sign a residue (values above N/2 are negative) and unscale."""
    value = raw % modulus
    if 2 * value >= modulus:
        value -= modulus
    return value / total_scale


# ---------------------------------------------------------------------------
# query plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One sum-query: every user contributes the product of its named columns."""

    name: str
    columns: tuple[str, ...]  # () means the constant 1

    def monomial(self, row: Mapping[str, float], frac_bits: int) -> int:
        raw = 1
        for col in self.columns:
            raw *= to_scaled(float(row[col]), frac_bits)
        return raw


@dataclass
class QueryPlan:
    """Sum-queries over one sorted group, step j in the window of |P| slots
    from window_start + j*|P|."""

    participants: tuple[int, ...]
    window_start: int
    steps: list[PlanStep]
    frac_bits: int
    postprocess: Callable[[dict[str, float]], dict]
    description: str

    def query(self, j: int) -> pda.PdaQuery:
        """Step j's query: term k is owned by the k-th participant, coefficients 1."""
        ids = self.participants
        m = len(ids)
        return pda.PdaQuery(
            coeffs=(1,) * m,
            exponents={i: {k: 1} for k, i in enumerate(ids)},
            participants=ids,
            window=pda.Window(self.window_start + j * m, m),
        )


def _group(participants: Sequence[int], theta_min: int) -> tuple[int, ...]:
    ids = tuple(sorted(participants))
    if len(ids) < theta_min:
        raise GroupTooSmall(f"|P|={len(ids)} below theta_min={theta_min}")
    return ids


def plan_mean_variance(
    participants: Sequence[int],
    frac_bits: int,
    theta_min: int = 3,
    window_start: int = 0,
    column: str = "x",
) -> QueryPlan:
    """Two queries (sum of x, sum of x^2) plus local mean/variance math."""
    ids = _group(participants, theta_min)
    steps = [PlanStep("sum_x", (column,)), PlanStep("sum_xx", (column, column))]
    count = len(ids)

    def post(sums: dict[str, float]) -> dict:
        mean = sums["sum_x"] / count
        variance = sums["sum_xx"] / count - mean * mean
        return {"mean": mean, "variance": variance}

    return QueryPlan(
        participants=ids,
        window_start=window_start,
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
) -> QueryPlan:
    """Normal-equation entries as sum-queries; solve A p = b locally.

    The design matrix is the named feature columns plus an intercept, so
    with D = len(features)+1 the plan holds D(D+1)/2 + D queries, of which
    `run_plan` takes A_0_0 = |P| locally.
    """
    ids = _group(participants, theta_min)
    if not feature_columns:
        raise ValueError("need at least one feature column")
    design: list[tuple[str, ...]] = [()] + [(c,) for c in feature_columns]
    dim = len(design)
    steps = [
        PlanStep(f"A_{r}_{c}", design[r] + design[c]) for r in range(dim) for c in range(r, dim)
    ] + [PlanStep(f"b_{r}", design[r] + ("y",)) for r in range(dim)]

    def post(sums: dict[str, float]) -> dict:
        a = np.zeros((dim, dim))
        b = np.zeros(dim)
        for r in range(dim):
            for c in range(r, dim):
                a[r, c] = a[c, r] = sums[f"A_{r}_{c}"]
            b[r] = sums[f"b_{r}"]
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
        participants=ids,
        window_start=window_start,
        steps=steps,
        frac_bits=frac_bits,
        postprocess=post,
        description=(
            f"least squares on {len(feature_columns)} features (+intercept) "
            f"over {len(ids)} users"
        ),
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

# What travels was chosen by paired `regress_n64` runs (`op_p50_s`, 10
# pairs, CPython 3.11, x86-64 VM shared with others): with user 2's
# encryptions computed in the worker too, a fit took 0.564 s against
# 0.441 s for the encodings alone (faster in 9 of 10), as the worker then
# holds the critical path (its CPU 0.60 s a fit against the caller's
# 0.42 s; 0.48 s and 0.49 s with the encodings alone).  Two such workers
# on the same 2 cores took 0.587 s against one's 0.557 s (8 alternating
# fits in one process), so the plan leaves one core spare.


def run_plan(
    system: netsim.PdaSystem,
    plan: QueryPlan,
    rows: Mapping[int, Mapping[str, float]],
    seed: int | str | bytes,
    registry: pda.SlotRegistry | None = None,
) -> dict:
    """Evaluate every step through the full protocol, then post-process.

    A step over the constant column, Σ 1 = |P|, is public and taken
    locally; its window stays in the plan but no ceremony runs on it.
    Every participant's row and every column a step names are checked,
    every step's values and sum against N/2, and every ceremony step's
    window against the registry, before the first ceremony, so a plan
    refused with IncompleteGroup, FixedPointOverflow or SlotReused
    (naming the step, and for a value too wide the participant with the
    widest, with widths in bits) claims no window.
    `out["traffic"]` holds each step's bus rounds and bytes sent.

    Where the process may fork on two or more cores
    (`numtheory._forked`), each ceremony's encodings, which depend on
    the senders' own keys and values alone, are computed ahead in a
    forked worker, while this process runs every step's checks, claim
    and bus, user 2's encryptions, user 1 and the aggregator; a step
    whose encodings do not arrive is computed here at its turn.
    """
    n_mod = system.params.N
    root = Rng(seed)
    sums: dict[str, float] = {}
    traffic: dict[str, dict[str, int]] = {}
    ids = plan.participants
    residues: dict[int, list[int]] = {}
    missing = [i for i in ids if i not in rows]
    if missing:
        raise IncompleteGroup(f"no row for participants {missing}")
    columns = {col for step in plan.steps for col in step.columns}
    for i in ids:
        lacking = columns - rows[i].keys()
        if lacking:
            raise IncompleteGroup(f"participant {i}'s row has no column {sorted(lacking)}")
    for idx, step in enumerate(plan.steps):
        if step.columns:
            raws = [step.monomial(rows[owner], plan.frac_bits) for owner in ids]
            owner, widest = max(zip(ids, raws), key=lambda pair: abs(pair[1]))
            _check_fits(widest, n_mod, f"step {step.name}: participant {owner}: |value|")
            residues[idx] = [raw % n_mod for raw in raws]
            _check_fits(sum(raws), n_mod, f"step {step.name}: |sum|")
    registry = registry if registry is not None else system.registry
    for idx in residues:
        window = plan.query(idx).window
        clash = registry.overlapping(window)
        if clash is not None:
            raise SlotReused(
                f"step {plan.steps[idx].name}: window [{window.start},{window.end}) "
                f"overlaps consumed [{clash.start},{clash.end})"
            )

    def step_data(idx: int) -> dict[int, list[int]]:
        data = {i: [1] * len(ids) for i in ids}
        for k, (owner, residue) in enumerate(zip(ids, residues[idx])):
            data[owner][k] = residue
        return data

    def encodings(idx: int) -> dict[int, list[int]]:
        return netsim._encodings(system, plan.query(idx), step_data(idx))

    if residues:  # a worker inherits the group's weights instead of building them
        plan.query(min(residues)).validate(system.params)  # a bad group: its first step's error
        numtheory.lagrange_weights(ids)
    with numtheory._forked(encodings, list(residues), True, spare=1) as ahead:
        for idx, step in enumerate(plan.steps):
            if idx not in residues:
                sums[step.name] = float(len(ids))
                traffic[step.name] = {"rounds": 0, "bytes": 0}
                continue
            value, result = netsim._aggregation(
                system,
                plan.query(idx),
                step_data(idx),
                root.fork(f"step:{idx}").take(32),
                registry,
                ahead.__next__,
            )
            sums[step.name] = fixed_decode(
                value, 1 << (plan.frac_bits * len(step.columns)), n_mod
            )
            traffic[step.name] = {
                "rounds": result.round_count,
                "bytes": sum(result.bus.sent.values()),
            }
    out = plan.postprocess(sums)
    out["sums"] = sums
    out["traffic"] = traffic
    return out


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def read_rows(
    path, kind: type = float
) -> tuple[list[str], dict[int, dict[str, int | float]]]:
    """Header names the features; column 'y' is the dependent variable.

    Rows become users 1..n in file order unless a 'user' column is present.
    Cells are read as `kind`: float for analytics, int for values mod N,
    which a float cannot carry exactly.  An empty, non-numeric or
    non-finite cell, a row with more or fewer cells than the header, or a
    repeated user raises ValueError naming its row, and a header column
    without a name, or repeated, one naming the column.
    """

    def cell(record: dict, idx: int, column: str, kind: type) -> int | float:
        text = record[column]
        try:
            value = kind(text)
        except (TypeError, ValueError):
            value = math.nan
        if isinstance(value, float) and not math.isfinite(value):
            what = "an integer" if kind is int else "a finite number"
            raise ValueError(f"row {idx}, column {column!r}: not {what}: {text!r}")
        return value

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise ValueError("empty CSV")
        wrong = [f"column {k} has no name" for k, c in enumerate(header, 1) if not c.strip()]
        wrong += [f"column {c!r} repeated" for c in header if header.count(c) > 1]
        if wrong:
            raise ValueError(f"header: {wrong[0]}")
        names = [c for c in header if c not in ("user",)]
        rows: dict[int, dict[str, int | float]] = {}
        for idx, record in enumerate(reader, start=1):
            if None in record or None in record.values():  # DictReader's filler for a ragged row
                side = "more" if None in record else "fewer"
                raise ValueError(f"row {idx}: {side} cells than the header's {len(header)}")
            user = cell(record, idx, "user", int) if "user" in record else idx
            if user in rows:
                raise ValueError(f"row {idx}: repeated user {user}")
            rows[user] = {c: cell(record, idx, c, kind) for c in names}
    features = [c for c in names if c != "y"]
    return features, rows
